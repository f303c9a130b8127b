"""Discriminative-power census and hierarchy audit.

The census counts, for each order, the ordered pairs (s, t) of a corpus
(diagonal included) with s related to t.  Every base letter the specs
name is decided on every ordered pair: the key orders Z and Y compare one
key per tree, B compares one array of the trees' bags with itself,
homeomorphic embedding (H) reads one bottom-up table, and the other
letters run their pairwise decision procedures.  Combined orders are
conjunctions of their component matrices, which is their definition.

The H table numbers the corpus's distinct subtrees by the key
(root, *child numbers): a embeds in b iff the roots are equal and each
child of a embeds in the same child of b (coupling), or a embeds in some
child of b (diving) (Kilpeläinen & Mannila, "Ordered and unordered tree
inclusion", 1995).  Renumbered by height, each height is one block of
rows that reads only rows and columns below it, filled in place by a few
numpy operations; number 0 is a pad of height -1 for a missing child,
which embeds only in itself.  The table takes D*D bools for D distinct
subtrees, about 5 000 (25 MB) for the command line's default 400 trees.
It numbers subtrees by root index, so a corpus must use one signature.

The audit then checks, on the raw pair sets rather than the counts:

  * every implication between named orders holds pointwise,
  * the orders that are equal by construction (M vs Z&S, and their P/B
    combinations) have identical pair sets,
  * each covering edge of the hierarchy is strict on this corpus, i.e.
    some pair separates the two orders; a missing separating pair is
    reported as unverified, not as a failure.

Since every letter is decided on its own, each of the 188 implications
compares independently decided matrices.  One product of the 27
flattened matrices counts, for every two orders, the pairs related under
one and not the other, exactly: in float32 while n*n < 2**24, else float64.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .generate import GeneratorConfig
from .orders import (KEY_LETTERS, WqoSpec, all_named_specs, base_relation,
                     named_implications, partition_key)
from .signature import Tree

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


def _embedding_matrix(corpus: list[Tree]) -> np.ndarray:
    """The H matrix from one table over the corpus's distinct subtrees, by height blocks."""
    number: dict[tuple[int, ...], int] = {(-1,): 0}  # (root, *child numbers) -> number; 0 pads
    height = [-1]
    # every node after its parent, and a node's children side by side
    nodes = list(corpus)
    for node in nodes:
        nodes.extend(node.children)
    numbered = [0] * len(nodes)  # the number of each node of `nodes`
    start = len(nodes)  # where the children of nodes[k + 1] start
    for k in range(len(nodes) - 1, -1, -1):
        node = nodes[k]
        start, end = start - len(node.children), start
        key = (node.root, *numbered[start:end])
        b = numbered[k] = number.setdefault(key, len(number))
        if b == len(height):
            height.append(1 + max([height[c] for c in key[1:]], default=-1))
    width = max(map(len, number))
    table = np.array([key + (0,) * (width - len(key)) for key in number], dtype=np.intp)
    # renumber by height: each height is then one block of rows
    order = np.argsort(height, kind="stable")
    rank = np.argsort(order)
    roots, kids = table[order, 0], rank[table[order, 1:]]
    edges = np.searchsorted(np.sort(height), np.arange(max(height) + 2)).tolist()
    below = np.zeros((len(order), len(order)), dtype=bool)  # below[b, a]: a embeds in b
    below[0, 0] = True  # the pad embeds only in itself
    for lo, hi in zip(edges, edges[1:]):
        block = below[lo:hi, :hi]
        np.equal(roots[lo:hi, None], roots[:hi], out=block)
        rows = below[kids[lo:hi], :hi]  # rows[b, i]: the row of b's child i
        for i in range(width - 1):
            block &= rows[:, i, kids[:hi, i]]
        block |= rows.any(1)
    ids = rank[numbered[:len(corpus)]]
    return below[np.ix_(ids, ids)].T


def _base_matrix(letter: str, corpus: list[Tree], y_threshold: int) -> np.ndarray:
    if letter in KEY_LETTERS:
        # related iff equal keys: number the distinct keys, compare the numbers
        key = partition_key(letter, y_threshold)
        number: dict[int, int] = {}
        ids = np.array([number.setdefault(key(t), len(number)) for t in corpus], dtype=np.intp)
        return ids[:, None] == ids[None, :]
    if letter == "H":
        return _embedding_matrix(corpus)
    n = len(corpus)
    if letter == "B":
        # a sub-multiset: no constructor count above the other's
        bags = np.array([t.bag for t in corpus], dtype=np.int64).reshape(n, -1 if n else 0)
        return (bags[:, None] <= bags[None]).all(-1)
    check = base_relation(letter, y_threshold)
    return np.array([[check(s, t) for t in corpus] for s in corpus], dtype=bool).reshape(n, n)


def census(
    corpus: list[Tree],
    specs: list[WqoSpec] | None = None,
    config: GeneratorConfig | None = None,
) -> CensusResult:
    """Count related ordered pairs for each spec over the whole corpus.

    Specs that name Y must share one y_threshold, and all trees one signature.
    Deterministic for a fixed corpus; the per-spec boolean matrices are
    kept on the result for the audit.
    """
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
    base = {l: _base_matrix(l, corpus, y_threshold) for l in letters}

    counts: dict[str, int] = {}
    matrices: dict[str, np.ndarray] = {}
    for spec in specs:
        m = None
        for letter in spec.components:
            m = base[letter] if m is None else m & base[letter]
        matrices[spec.name] = m
        counts[spec.name] = int(m.sum())

    result = CensusResult(
        counts=counts,
        corpus_size=len(corpus),
        seed=config.seed if config else None,
        size_cap=config.size_cap if config else None,
        y_threshold=y_threshold,
        matrices=matrices,
        base_matrices=base,
    )
    return result


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

    Every base letter is decided on every pair, so each implication
    compares matrices that were decided independently; one product of
    the flattened matrices counts the pairs that separate any two orders.

    If the result lacks a named order's matrix (a partial census), the
    corpus is required so they can be recomputed.
    """
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
