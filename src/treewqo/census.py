"""Discriminative-power census and hierarchy audit.

The census counts, for each order, the ordered pairs (s, t) of a corpus
(diagonal included) with s related to t.  Every base letter the specs
name is decided on every ordered pair, and none by a pairwise kernel.
Z and Y are equality of one key per tree, and S is a strict `<` of the
sizes OR'd with equality of the preorder codes, which are equal iff the
trees are; equal keys are found by numbering the distinct keys with a
dict.  B compares one array of the trees' bags with itself, H fills one
table over the corpus's distinct subtrees, and P and E decide a whole
column of pairs per scan.  M (= Z AND S) and the combined orders are
conjunctions of their component matrices, which is their definition.

For H alone, the corpus's distinct subtrees are numbered by the key
(root index, *child numbers), in one backward pass over each tree's
preorder codes, so no census reads a node.  The table then applies the
coupling and diving rules of `orders.rel_embed` to every pair of numbered
subtrees (Kilpeläinen & Mannila, "Ordered and unordered tree inclusion",
1995).  Renumbered by height, each height is one block of rows that
reads only rows and columns below it, filled in place by a few numpy
operations; number 0 is a pad of height -1 for a missing child, which
embeds only in itself.  The table takes D*D bools for D distinct
subtrees.  It numbers subtrees by root index, so a corpus must use one
signature.

P and E run the greedy subsequence scan bit-parallel, after Shift-And
(Baeza-Yates & Gonnet, "A new approach to text searching", CACM 1992),
with one Python int as the bit vector.  Each left string s owns a field
of len(s) + 1 bits, the shortest strings lowest, and one set bit per
field marks how much of s is matched.  For each symbol x of a right
string w, `state += state & masks[x]` moves up one place the bit of
every field whose next symbol is x; masks[x] holds the positions of x in
all left strings and never a field's last bit, so a finished field
stays put and no field carries into the next.  s is a subsequence of w
iff its field's last bit is set after the scan, exactly the verdict of
`orders.is_subsequence`.  A scan starts only the fields no longer than
w, so its ints stay short, and the final states are read a bounded
number of bytes at a time.

The audit then checks, on the raw pair sets rather than the counts:

  * every implication between named orders holds pointwise,
  * the orders that are equal by construction (M vs Z&S, and their P/B
    combinations) have identical pair sets,
  * each covering edge of the hierarchy is strict on this corpus, i.e.
    some pair separates the two orders; a missing separating pair is
    reported as unverified, not as a failure.

Since M is Z AND S, M=ZS checks only the conjunctions; the tests and the
benchmark's reference verdicts check M against `rel_sized_set`.  Every
other letter is decided on its own, so the other implications compare
independently decided matrices.  One product of the 27 flattened
matrices counts, for every two orders, the pairs related under one and
not the other, exactly: in float32 while n*n < 2**24, else float64.
"""

from __future__ import annotations

import sys
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from .generate import GeneratorConfig
from .orders import KEY_LETTERS, WqoSpec, all_named_specs, named_implications, partition_key
from .signature import Tree

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CensusResult", "census", "AuditReport", "hierarchy_audit", "write_census_tsv"]


@dataclass
class CensusResult:
    counts: dict[str, int]
    corpus_size: int
    seed: int | None = None
    size_cap: int | None = None
    y_threshold: int = 2
    matrices: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    base_matrices: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def sorted_counts(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: (kv[1], kv[0]))


def _number_subtrees(corpus: list[Tree]) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Number the distinct subtrees by (root index, *child numbers): the keys
    in number order, their heights, and the numbers of the corpus trees."""
    number: dict[tuple[int, ...], int] = {(-1,): 0}  # key -> number; 0 pads
    height = [-1]
    ids = []
    for t in corpus:
        arities = t.sig.arities
        done: list[int] = []  # the numbers of the finished subtrees, the leftmost last
        for c in reversed(t.pre):
            arity = arities[c]
            if arity:
                key = (c, *done[:-arity - 1:-1])
                del done[-arity:]
            else:
                key = (c,)
            b = number.get(key)
            if b is None:
                b = number[key] = len(height)
                height.append(1 + max([height[k] for k in key[1:]], default=-1))
            done.append(b)
        ids.append(done[0])
    return list(number), height, ids


def _embedding_matrix(keys: list[tuple[int, ...]], height: list[int], ids: list[int]) -> np.ndarray:
    """The H matrix from one table over the numbered subtrees, by height blocks."""
    import numpy as np
    width = max(map(len, keys))
    table = np.array([key + (0,) * (width - len(key)) for key in keys], dtype=np.intp)
    # renumber by height: each height is then one block of rows
    order = np.argsort(height, kind="stable")
    rank = np.argsort(order)
    roots, kids = table[order, 0], rank[table[order, 1:]]
    edges = np.searchsorted(np.sort(height), np.arange(max(height) + 2)).tolist()
    slots = np.arange(width - 1)[:, None]
    below = np.zeros((len(order), len(order)), dtype=bool)  # below[b, a]: a embeds in b
    below[0, 0] = True  # the pad embeds only in itself
    for lo, hi in zip(edges, edges[1:]):
        block = below[lo:hi, :hi]
        np.equal(roots[lo:hi, None], roots[:hi], out=block)
        rows = below[kids[lo:hi], :hi]  # rows[b, i]: the row of b's child i
        # rows[b, i, kids[a, i]]: child i of a embeds in child i of b
        block &= rows[:, slots, kids[:hi].T].all(1)
        block |= rows.any(1)
    ids = rank[ids]
    return below[np.ix_(ids, ids)].T


# a scan's final states are read this many bytes at a time, not n at once
_SCAN_BYTES = 1 << 20


def _subsequence_matrix(strings: list[tuple[int, ...]]) -> np.ndarray:
    """m[i, j]: strings[i] is a subsequence of strings[j], for strings of
    small non-negative ints such as traversal codes; see the module docstring."""
    import numpy as np

    def bits(where: np.ndarray) -> int:
        """The bools as one int, where[i] its bit i."""
        return int.from_bytes(np.packbits(where, bitorder="little").tobytes(), "little")

    n = len(strings)
    lengths = np.fromiter(map(len, strings), np.intp, n)
    order = np.argsort(lengths, kind="stable")
    # the p-th shortest string owns the field of bits firsts[p] .. lasts[p]
    lasts = np.cumsum(lengths[order] + 1) - 1
    firsts = lasts - lengths[order]
    total = n + int(lengths.sum())
    codes = np.full(total, -1, dtype=np.intp)  # no mask covers a field's last bit
    inside = np.ones(total, dtype=bool)
    inside[lasts] = False
    codes[inside] = np.fromiter(chain.from_iterable([strings[p] for p in order]), np.intp, total - n)
    masks = {x: bits(codes == x) for x in np.flatnonzero(np.bincount(codes[inside])).tolist()}
    starts = bits(~inside) << 1 | 1  # a field starts above the last bit of the one before
    # a right string starts only the fields no longer than itself, the bits below its ceiling
    ceilings = np.append(firsts, total)[np.searchsorted(lengths[order], lengths, "right")]
    width = (total + 7) // 8  # the bytes of a state

    def scan(w: tuple[int, ...], ceiling: int) -> bytes:
        state = starts & (1 << ceiling) - 1
        for mask in map(masks.__getitem__, w):
            state += state & mask  # a field whose next symbol this is moves up one bit
        return state.to_bytes(width, "little")

    found = np.empty((n, n), dtype=bool)  # found[p, j]: the p-th shortest string is in strings[j]
    step = max(1, _SCAN_BYTES // max(width, 1))
    for lo in range(0, n, step):
        states = b"".join(map(scan, strings[lo:lo + step], ceilings[lo:lo + step].tolist()))
        states = np.frombuffer(states, np.uint8).reshape(-1, width)
        found[:, lo:lo + step] = (states[:, lasts >> 3] >> (lasts & 7) & 1).T
    return found[np.argsort(order)]


def _equal_keys(keys: Iterable[Hashable]) -> np.ndarray:
    """m[i, j]: the i-th and j-th keys are equal, by numbering the distinct keys."""
    import numpy as np
    number: dict = {}
    ids = np.array([number.setdefault(key, len(number)) for key in keys], dtype=np.intp)
    return ids[:, None] == ids[None, :]


def _base_matrix(letter: str, corpus: list[Tree], y_threshold: int) -> np.ndarray:
    import numpy as np
    if letter in KEY_LETTERS:
        return _equal_keys(map(partition_key(letter, y_threshold), corpus))
    if letter == "S":
        sizes = np.array([t.size for t in corpus], dtype=np.int64)
        return (sizes[:, None] < sizes[None, :]) | _equal_keys(t.pre for t in corpus)
    if letter == "H":
        return _embedding_matrix(*_number_subtrees(corpus))
    if letter == "P":
        return _subsequence_matrix([t.pre for t in corpus])
    if letter == "E":
        return _subsequence_matrix([t.eul for t in corpus])
    # B: a sub-multiset, no constructor count above the other's
    n = len(corpus)
    bags = np.array([t.bag for t in corpus], dtype=np.int64).reshape(n, -1 if n else 0)
    return (bags[:, None] <= bags[None]).all(-1)


def census(
    corpus: list[Tree],
    specs: list[WqoSpec] | None = None,
    config: GeneratorConfig | None = None,
) -> CensusResult:
    """Count related ordered pairs for each spec over the whole corpus, whose
    trees share one signature; specs that name Y must share one y_threshold.
    The per-spec boolean matrices are kept on the result for the audit."""
    if specs is None:
        specs = list(all_named_specs())
    thresholds = {s.y_threshold for s in specs if "Y" in s.components}
    if len(thresholds) > 1:
        raise ValueError("census specs that name Y must share one y_threshold")
    y_threshold = thresholds.pop() if thresholds else 2
    if len({t.sig for t in corpus}) > 1:
        raise ValueError("census trees must share one signature")

    # expanded: Z and S back the audit's identity checks even when only M is named
    letters = sorted({l for s in specs for l in s.components | s.expanded})
    base = {l: _base_matrix(l, corpus, y_threshold) for l in letters if l != "M"}
    if "M" in letters:
        base["M"] = base["Z"] & base["S"]  # its definition, so M=ZS holds by construction

    counts: dict[str, int] = {}
    matrices: dict[str, np.ndarray] = {}
    for spec in specs:
        m = None
        for letter in spec.components:
            m = base[letter] if m is None else m & base[letter]
        matrices[spec.name] = m
        counts[spec.name] = int(m.sum())

    return CensusResult(
        counts=counts,
        corpus_size=len(corpus),
        seed=config.seed if config else None,
        size_cap=config.size_cap if config else None,
        y_threshold=y_threshold,
        matrices=matrices,
        base_matrices=base,
    )


def write_census_tsv(result: CensusResult, out=None) -> None:
    """Counts as TSV, ascending (ties by name), with a metadata header."""
    if out is None:
        out = sys.stdout
    out.write(f"# seed={result.seed if result.seed is not None else 'unknown'}\n")
    out.write(f"# corpus={result.corpus_size}\n")
    out.write(f"# cap={result.size_cap if result.size_cap is not None else 'unknown'}\n")
    out.write("wqo_name\tpair_count\n")
    for name, count in result.sorted_counts():
        out.write(f"{name}\t{count}\n")


# ---------------------------------------------------------------------------
# audit

@dataclass
class AuditReport:
    implications_checked: int = 0
    violations: list[str] = field(default_factory=list)
    identities: dict[str, bool] = field(default_factory=dict)
    strict_verified: list[tuple[str, str, int]] = field(default_factory=list)
    strict_unverified: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and all(self.identities.values())

    def summary(self) -> str:
        lines = [
            f"implications checked: {self.implications_checked}, "
            f"violations: {len(self.violations)}",
            "identities: " + ", ".join(
                f"{name} {'ok' if good else 'FAILED'}" for name, good in self.identities.items()
            ),
            f"strict edges separated on this corpus: {len(self.strict_verified)}, "
            f"unverified: {len(self.strict_unverified)}",
        ]
        if self.strict_unverified:
            lines.append("unverified edges: " + ", ".join(
                f"{a}<{b}" for a, b in self.strict_unverified))
        lines.extend(self.violations)
        return "\n".join(lines)


def hierarchy_audit(result: CensusResult, corpus: list[Tree] | None = None) -> AuditReport:
    """Audit a census over all named orders; see the module docstring.
    A partial census needs the corpus, to recompute the missing orders."""
    import numpy as np
    specs = list(all_named_specs())
    missing = [s.name for s in specs if s.name not in result.matrices]
    if missing or not result.base_matrices:
        if corpus is None:
            raise ValueError(f"census does not cover all named orders (missing {missing})")
        result = census(corpus, [WqoSpec(s.components, result.y_threshold) for s in specs])

    report = AuditReport()
    mats = result.matrices
    # only[f, c]: the pairs related under f but not under c, exact in either dtype
    row = {s.name: i for i, s in enumerate(specs)}
    flat = np.array([mats[s.name].ravel() for s in specs],
                    dtype=np.float32 if mats["S"].size < 2 ** 24 else np.float64)
    only = flat.sum(1)[:, None] - flat @ flat.T

    implication_pairs, covering_edges = named_implications()

    # (a) every implication, pointwise on pairs
    for fine, coarse in implication_pairs:
        report.implications_checked += 1
        if only[row[fine], row[coarse]]:
            i, j = map(int, np.argwhere(mats[fine] & ~mats[coarse])[0])
            report.violations.append(
                f"implication {fine} => {coarse} violated at corpus pair ({i}, {j})"
            )

    # (b) identities that must hold exactly, built from the base matrices
    base = result.base_matrices
    zs = base["Z"] & base["S"]
    ident = {
        "M=ZS": (mats["M"], zs),
        "MP=ZP": (mats["M"] & base["P"], base["Z"] & base["P"]),
        "MB=ZSB": (mats["MB"], zs & base["B"]),
    }
    for name, (left, right) in ident.items():
        report.identities[name] = bool((left == right).all())

    # (c) strictness on the covering edges of the implication order
    for fine, coarse in covering_edges:
        separating = int(only[row[coarse], row[fine]])
        if separating:
            report.strict_verified.append((fine, coarse, separating))
        else:
            report.strict_unverified.append((fine, coarse))
    return report
