"""The well-quasi orders on trees and their intersections.

Eight base orders, identified by the one-letter codes the command line
uses:

  S  equal trees, or the left one strictly smaller
  H  homeomorphic embedding (couple equal roots childwise, or dive into
     some child of the right tree)
  Z  both trees use the same set of constructors
  Y  both trees use the same set of k-times-repeated constructors (k >= 2)
  B  the left constructor bag is a sub-multiset of the right one
  M  same constructor set and S-related; equivalently size comparison
     restricted to trees over one constructor set
  P  preorder string of the left is a subsequence of the right's
  E  Euler-tour string of the left is a subsequence of the right's

Intersections are written by concatenating letters ("SB", "YZH", ...).
A WqoSpec holds a canonical, redundancy-free component set: M is treated
as the intersection of Z and S, and any component implied by another is
dropped (H implies E implies P implies both B and S).  Canonicalizing all
combinations of the eight letters yields exactly 27 distinct named orders.

Combined relations are evaluated cheapest-component-first with
short-circuiting.  `LETTERS` lists the base orders in that order, by their
measured cost per pair, and `cost_rank(letter)` is a letter's index there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import le
from typing import Callable

from .signature import ConstructorBag, Tree, repeated_mask, tree_equal

__all__ = [
    "LETTERS",
    "WqoSpec",
    "parse_wqo_name",
    "all_named_specs",
    "named_implications",
    "cost_rank",
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

# the base orders in evaluation order for short-circuiting conjunctions:
# ascending measured cost per pair (orders.<L>.ns_per_pair), embedding last
LETTERS = "ZSMBYPEH"
cost_rank = LETTERS.index

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

    `y_threshold` is the repetition count used by the Y component
    (ignored when Y is absent).
    """

    components: frozenset[str]
    y_threshold: int = 2

    def __post_init__(self):
        if not self.components:
            raise ValueError("a WQO spec needs at least one component")
        bad = set(self.components) - set(LETTERS)
        if bad:
            raise ValueError(f"unknown order letter(s): {', '.join(map(repr, sorted(bad)))}")
        if self.y_threshold < 2:
            raise ValueError(f"y_threshold must be >= 2, got {self.y_threshold}")
        object.__setattr__(self, "components", _canonicalize(frozenset(self.components)))

    @property
    def name(self) -> str:
        return "".join(c for c in _DISPLAY_ORDER if c in self.components)

    @property
    def evaluation_order(self) -> tuple[str, ...]:
        return tuple(sorted(self.components, key=cost_rank))

    @property
    def expanded(self) -> frozenset[str]:
        return _expand(self.components)

    def __str__(self) -> str:
        return self.name


def parse_wqo_name(name: str, y_threshold: int = 2) -> WqoSpec:
    """Parse a concatenated-letter order name; only ASCII letters fold case."""
    if not name:
        raise ValueError("empty WQO name")
    return WqoSpec(frozenset(c.upper() if c.isascii() else c for c in name), y_threshold)


def implies(finer: WqoSpec, coarser: WqoSpec) -> bool:
    """True when finer-relatedness entails coarser-relatedness.

    Holds iff every component of the coarser spec is matched or implied by
    some component of the finer one (after expanding M into Z and S).
    """
    fine = finer.expanded
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


def multiset_subset(b1: ConstructorBag, b2: ConstructorBag) -> bool:
    """Pointwise multiset inclusion: every count in b1 is <= its count in b2."""
    return all(map(le, b1.counts, b2.counts))


def multiset_leq(b1: ConstructorBag, b2: ConstructorBag) -> bool:
    """Bag order: equal bags, or equal supports with b1 strictly smaller."""
    if b1.counts == b2.counts:
        return True
    return b1.support().mask == b2.support().mask and b1.total() < b2.total()


# ---------------------------------------------------------------------------
# the eight base relations on trees

def rel_size(s: Tree, t: Tree) -> bool:
    """S: equal trees, or s strictly smaller than t."""
    return s.size < t.size or tree_equal(s, t)


def rel_set(s: Tree, t: Tree) -> bool:
    """Z: s and t use the same set of constructors."""
    return s.mask == t.mask


def rel_repeated(s: Tree, t: Tree, k: int = 2) -> bool:
    """Y: s and t use the same set of at-least-k-times-used constructors."""
    return repeated_mask(s, k) == repeated_mask(t, k)


def rel_bag(s: Tree, t: Tree) -> bool:
    """B: the constructor bag of s is a sub-multiset of t's."""
    return all(map(le, s.bag, t.bag))


def rel_sized_set(s: Tree, t: Tree) -> bool:
    """M: same constructor set, and equal or strictly smaller.

    This is exactly the intersection of Z and S, i.e. size comparison
    restricted to trees with one underlying constructor set.
    """
    return s.mask == t.mask and (s.size < t.size or tree_equal(s, t))


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
    Decided iteratively with memoization over subtree pairs, with a fresh
    memo for every call (a census shares one memo across the pairs of its
    corpus instead).  H implies S, so a subproblem whose left subtree is
    not smaller holds only when the two are equal, and one whose left
    subtree uses constructors the right one lacks fails; both are decided
    without recursion.
    """
    return _embeds(s, t, {})


def _embeds(s: Tree, t: Tree, memo: dict[tuple[int, int], bool]) -> bool:
    """The H kernel.  `memo` maps (id(a), id(b)) of subtree pairs to their
    verdicts; a caller may share it across pairs only while every tree it
    has seen stays alive, and equal subtrees share entries only when they
    are one object (see census._hashcons)."""
    stack = [(s, t)]
    while stack:
        a, b = stack[-1]
        key = (id(a), id(b))
        if key in memo:
            stack.pop()
            continue
        if a.size >= b.size or a.mask & ~b.mask:
            memo[key] = a.size == b.size and tree_equal(a, b)
            stack.pop()
            continue
        pending = None
        if a.root == b.root:
            coupled = True
            for ca, cb in zip(a.children, b.children):
                v = memo.get((id(ca), id(cb)))
                if v is None:
                    pending = (ca, cb)
                    break
                if not v:
                    coupled = False
                    break
            if pending is not None:
                stack.append(pending)
                continue
            if coupled:
                memo[key] = True
                stack.pop()
                continue
        dived = False
        for cb in b.children:
            v = memo.get((id(a), id(cb)))
            if v is None:
                pending = (a, cb)
                break
            if v:
                dived = True
                break
        if pending is not None:
            stack.append(pending)
            continue
        memo[key] = dived
        stack.pop()
    return memo[(id(s), id(t))]


KEY_LETTERS = frozenset("ZY")


def partition_key(letter: str, y_threshold: int) -> Callable[[Tree], int]:
    """The key of a key order (Z or Y): two trees are related iff their keys
    are equal.  `t.mask` for Z, `repeated_mask(t, k)` for Y."""
    return {"Z": lambda t: t.mask, "Y": lambda t: repeated_mask(t, y_threshold)}[letter]


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


@lru_cache(maxsize=256)
def conjunction(components: frozenset[str], y_threshold: int = 2) -> Callable[[Tree, Tree], bool]:
    """One predicate for the intersection of the given base orders: the base
    relations in ascending cost rank, short-circuiting on the first failure.
    A single component is returned as its own base relation."""
    checks = tuple(base_relation(l, y_threshold) for l in sorted(components, key=cost_rank))
    if len(checks) == 1:
        return checks[0]

    def related(s: Tree, t: Tree) -> bool:
        for check in checks:
            if not check(s, t):
                return False
        return True

    return related


def rel(spec: WqoSpec, s: Tree, t: Tree) -> bool:
    """Combined relation: conjunction over the spec's components, evaluated
    in ascending cost rank with short-circuit on the first failure."""
    return conjunction(spec.components, spec.y_threshold)(s, t)
