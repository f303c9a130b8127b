"""The well-quasi orders on trees and their intersections.

Eight base orders, each named by the one letter the command line uses
and defined by its kernel below: S `rel_size`, H `rel_embed`, Z
`rel_set`, Y `rel_repeated`, B `rel_bag`, M `rel_sized_set`, P
`rel_preorder` and E `rel_euler`.  Intersections are written by
concatenating letters ("SB", "YZH", ...).  A WqoSpec holds a canonical,
redundancy-free component set: M is treated as the intersection of Z and
S, and any component implied by another is dropped (H implies E implies
P implies both B and S).  Canonicalizing all combinations of the eight
letters yields exactly 27 distinct named orders.

A combined relation is decided by its base relations in `LETTERS` order,
short-circuiting on the first failure (`conjunction`, `rel`); the whistle
checker needs no conjunction, as the lattice leaves it one kernel at most.
`rel_embed` first calls the kernels of B and P, which H implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import le
from typing import Callable

from .signature import (ConstructorBag, Tree, _check_threshold, _subtree_ends, bag_at_least,
                        tree_equal)

__all__ = [
    "LETTERS",
    "WqoSpec",
    "parse_wqo_name",
    "all_named_specs",
    "named_implications",
    "is_subsequence",
    "multiset_subset",
    "multiset_leq",
    "rel_size",
    "rel_embed",
    "rel_set",
    "rel_repeated",
    "rel_bag",
    "rel_sized_set",
    "rel_preorder",
    "rel_euler",
    "rel",
    "implies",
]

# the base orders in evaluation order, by their kernels' cost class: field
# comparisons (Z S M), bag scans (B Y), subsequences (P E), tree search (H)
LETTERS = "ZSMBYPEH"
_LOWER_LETTERS = LETTERS.lower()

# proper implications among single letters, transitively closed
# (M is handled by expansion into Z and S, not listed here)
_IMPLIES = {
    "H": frozenset("EPBS"),
    "E": frozenset("PBS"),
    "P": frozenset("BS"),
    "S": frozenset(),
    "B": frozenset(),
    "Z": frozenset(),
    "Y": frozenset(),
}

_DISPLAY_ORDER = "YMZSHEPB"


def _expand(components: frozenset[str]) -> frozenset[str]:
    """Replace M by its definition Z & S."""
    if "M" in components:
        return components - {"M"} | {"Z", "S"}
    return components


def _canonicalize(components: frozenset[str]) -> frozenset[str]:
    comps = _expand(components)
    dropped = {c for c in comps for d in comps if c != d and c in _IMPLIES[d]}
    comps -= dropped
    if {"Z", "S"} <= comps:
        comps = comps - {"Z", "S"} | {"M"}
    return comps


@dataclass(frozen=True)
class WqoSpec:
    """A canonical intersection of base orders.

    `y_threshold` is the repetition count used by the Y component, an
    int of at least 2 (ignored when Y is absent).
    """

    components: frozenset[str]
    y_threshold: int = 2

    def __post_init__(self):
        if not self.components:
            raise ValueError("a WQO spec needs at least one component")
        bad = set(self.components) - set(LETTERS)
        if bad:
            raise ValueError(f"unknown order letter(s): {', '.join(map(repr, sorted(bad)))}")
        _check_threshold(self.y_threshold)
        object.__setattr__(self, "components", _canonicalize(frozenset(self.components)))

    @cached_property
    def name(self) -> str:
        return "".join(c for c in _DISPLAY_ORDER if c in self.components)

    @property
    def expanded(self) -> frozenset[str]:
        return _expand(self.components)

    def __str__(self) -> str:
        return self.name


def parse_wqo_name(name: str, y_threshold: int = 2) -> WqoSpec:
    """Parse a concatenated-letter order name; only the eight letters fold
    case, so an unknown letter is reported as typed."""
    if not name:
        raise ValueError("empty WQO name")
    return WqoSpec(frozenset(c.upper() if c in _LOWER_LETTERS else c for c in name),
                   y_threshold)


def implies(finer: WqoSpec, coarser: WqoSpec) -> bool:
    """True when finer-relatedness entails coarser-relatedness.

    Holds iff every component of the coarser spec is matched or implied by
    some component of the finer one (after expanding M into Z and S); Y
    matches only Y of the same threshold.
    """
    fine = finer.expanded
    if finer.y_threshold != coarser.y_threshold:
        fine -= {"Y"}
    return all(
        any(c == d or c in _IMPLIES[d] for d in fine) for c in coarser.expanded
    )


@lru_cache(maxsize=1)
def all_named_specs() -> tuple[WqoSpec, ...]:
    """The 27 distinct orders reachable by combining the eight letters."""
    seen: dict[str, WqoSpec] = {}
    for bits in range(1, 1 << len(LETTERS)):
        spec = WqoSpec(frozenset(l for i, l in enumerate(LETTERS) if bits >> i & 1))
        seen.setdefault(spec.name, spec)
    return tuple(sorted(seen.values(), key=lambda s: (len(s.name), s.name)))


@lru_cache(maxsize=1)
def named_implications() -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """The implication order on the named orders, as (finer, coarser) name
    pairs: every proper implication, and its covering edges, those with no
    named order strictly between."""
    specs = all_named_specs()
    pairs = tuple((s1.name, s2.name) for s1 in specs for s2 in specs
                  if s1.name != s2.name and implies(s1, s2))
    below = {s.name: {c for f, c in pairs if f == s.name} for s in specs}
    edges = tuple((fine, coarse) for fine, coarse in pairs
                  if not any(coarse in below[mid] for mid in below[fine] if mid != coarse))
    return pairs, edges


# ---------------------------------------------------------------------------
# sub-orders on strings and bags

def is_subsequence(v, w) -> bool:
    """True iff v can be obtained from w by deleting symbols.

    Single greedy left-to-right scan, O(|v| + |w|); a subsequence as long
    as w is w itself, so equal lengths reduce to equality.  Takes plain
    sequences of comparable symbols, such as the traversal codes `t.pre`.
    """
    n = len(v)
    if n == 0:
        return True
    if n >= len(w):
        return n == len(w) and tuple(v) == tuple(w)
    i = 0
    need = v[0]
    for sym in w:
        if sym == need:
            i += 1
            if i == n:
                return True
            need = v[i]
    return False


def _same_signature(b1: ConstructorBag, b2: ConstructorBag) -> None:
    if b1.sig is not b2.sig and b1.sig != b2.sig:
        raise ValueError("bags over different signatures")


def multiset_subset(b1: ConstructorBag, b2: ConstructorBag) -> bool:
    """Pointwise multiset inclusion: every count in b1 is <= its count in b2."""
    _same_signature(b1, b2)
    return all(map(le, b1.counts, b2.counts))


def multiset_leq(b1: ConstructorBag, b2: ConstructorBag) -> bool:
    """Bag order: equal bags, or equal supports with b1 strictly smaller."""
    _same_signature(b1, b2)
    if b1.counts == b2.counts:
        return True
    return b1.support() == b2.support() and b1.total() < b2.total()


# ---------------------------------------------------------------------------
# the eight base relations on trees

def rel_size(s: Tree, t: Tree) -> bool:
    """S: equal trees, or s strictly smaller than t."""
    return s.size < t.size or tree_equal(s, t)


def rel_set(s: Tree, t: Tree) -> bool:
    """Z: s and t use the same set of constructors."""
    return bag_at_least(s, 1) == bag_at_least(t, 1)


def rel_repeated(s: Tree, t: Tree, k: int = 2) -> bool:
    """Y: s and t use the same set of at-least-k-times-used constructors."""
    _check_threshold(k)
    return bag_at_least(s, k) == bag_at_least(t, k)


def rel_bag(s: Tree, t: Tree) -> bool:
    """B: the constructor bag of s is a sub-multiset of t's.  With every
    guard bit of t's packed bag set, subtracting s's clears a guard bit
    exactly where s counts more (see `signature.bag_at_least`)."""
    guards = t.sig.bag_guards
    return ((t.packed_bag | guards) - s.packed_bag) & guards == guards


def rel_sized_set(s: Tree, t: Tree) -> bool:
    """M: same constructor set, and equal or strictly smaller, which is
    exactly the intersection of Z and S."""
    if s.size < t.size:
        return bag_at_least(s, 1) == bag_at_least(t, 1)
    return tree_equal(s, t)  # equal trees use one constructor set


def rel_preorder(s: Tree, t: Tree) -> bool:
    """P: preorder string of s embeds into preorder string of t."""
    return is_subsequence(s.pre, t.pre)


def rel_euler(s: Tree, t: Tree) -> bool:
    """E: Euler-tour string of s embeds into Euler-tour string of t."""
    return is_subsequence(s.eul, t.eul)


def rel_embed(s: Tree, t: Tree) -> bool:
    """H: homeomorphic embedding.

    s embeds into t iff the roots are equal and the children embed
    pairwise (coupling), or s embeds into some child of t (diving).
    H implies B and P, so the pair is first tested by `rel_bag` and
    `rel_preorder`, before any ends are made; a larger s fails B, and a
    pair of equal sizes passes both only when its codes are equal.  The
    search then runs on index pairs into the two preorder code arrays,
    with a fresh memo for every call, so no node is read; a subtree's
    children start one past it and at each child's end, from
    `signature._subtree_ends`.  H implies S, so a subproblem whose left
    subtree is not smaller holds only when the two code slices are
    equal; any other, a leaf included, is decided by a coupling loop and
    a diving loop, each exiting with its verdict or at the first
    undecided subproblem, which is pushed.
    """
    if not (rel_bag(s, t) and rel_preorder(s, t)):
        return False
    sp, tp = s.pre, t.pre
    s_ends, t_ends = _subtree_ends(s), _subtree_ends(t)
    width = len(tp)
    memo: dict[int, bool] = {}  # i * width + j -> the verdict on (s at i, t at j)
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        key = i * width + j
        if key in memo:
            stack.pop()
            continue
        ei, ej = s_ends[i], t_ends[j]
        if ei - i >= ej - j:
            memo[key] = ei - i == ej - j and sp[i:ei] == tp[j:ej]
            stack.pop()
            continue
        if sp[i] == tp[j]:
            ci, cj = i + 1, j + 1
            while ci < ei:
                v = memo.get(ci * width + cj)
                if not v:
                    break
                ci, cj = s_ends[ci], t_ends[cj]
            else:
                memo[key] = True
                stack.pop()
                continue
            if v is None:
                stack.append((ci, cj))
                continue
        cj = j + 1
        while cj < ej:
            v = memo.get(i * width + cj)
            if v is not False:
                break
            cj = t_ends[cj]
        else:
            memo[key] = False
            stack.pop()
            continue
        if v is None:
            stack.append((i, cj))
            continue
        memo[key] = True
        stack.pop()
    return memo[0]


KEY_LETTERS = frozenset("ZY")


def partition_key(letters: str | frozenset[str], y_threshold: int) -> Callable[[Tree], int]:
    """One exact int per tree, equal for two trees iff they are related under
    every key letter (Z, Y) in `letters`: the guard bits of the packed bag's
    fields that count at least 1 for Z, at least the threshold for Y (see
    `signature.bag_at_least`), Y's one place below Z's; 0 for neither.  A Y
    threshold that is not an int of at least 2 is refused here, once."""
    if "Y" in letters:
        _check_threshold(y_threshold)
        if "Z" in letters:
            return lambda t: bag_at_least(t, 1) | bag_at_least(t, y_threshold) >> 1
        return lambda t: bag_at_least(t, y_threshold)
    return (lambda t: bag_at_least(t, 1)) if "Z" in letters else (lambda t: 0)


_BASE_RELS: dict[str, Callable[[Tree, Tree], bool]] = {
    "S": rel_size,
    "H": rel_embed,
    "Z": rel_set,
    "B": rel_bag,
    "M": rel_sized_set,
    "P": rel_preorder,
    "E": rel_euler,
}


def base_relation(letter: str, y_threshold: int = 2) -> Callable[[Tree, Tree], bool]:
    """The pairwise decision procedure for one base order."""
    if letter == "Y":
        return lambda s, t: rel_repeated(s, t, y_threshold)
    return _BASE_RELS[letter]


def conjunction(spec: WqoSpec) -> Callable[[Tree, Tree], bool]:
    """One predicate for the spec's order: its base relations in `LETTERS`
    order, short-circuiting on the first failure.  A single component is
    returned as its own base relation."""
    checks = tuple(base_relation(l, spec.y_threshold) for l in LETTERS if l in spec.components)
    if len(checks) == 1:
        return checks[0]

    def related(s: Tree, t: Tree) -> bool:
        for check in checks:
            if not check(s, t):
                return False
        return True

    return related


def rel(spec: WqoSpec, s: Tree, t: Tree) -> bool:
    """Combined relation on one pair of trees over one signature, decided as
    `conjunction(spec)` decides it, without building the predicate per call."""
    if s.sig is not t.sig and s.sig != t.sig:
        raise ValueError("trees over different signatures")
    for letter in LETTERS:
        if letter in spec.components and not base_relation(letter, spec.y_threshold)(s, t):
            return False
    return True
