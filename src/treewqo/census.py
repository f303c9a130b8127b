"""Discriminative-power census and hierarchy audit.

The census counts, for each order, the ordered pairs (s, t) of a corpus
(diagonal included) with s related to t.  Base orders are evaluated
pairwise with their own decision procedures into boolean matrices, except
the key orders Z and Y, which compare one key per tree; combined orders
are conjunctions of their component matrices, which is their definition.

The base matrices are decided in lattice order (H => E => P => B, S): the
letters the specs name are closed under the implication table, and each
letter is decided only on the pairs where every letter it implies holds,
P where B and S hold, E where P holds, H where E holds.  Every other pair
is unrelated by the implication.  `CensusResult.decided` counts the pairs
each pairwise kernel ran on.

Homeomorphic embedding (H) dominates the cost.  Its matrix is decided
over hash-consed copies of the corpus, in which equal subtrees are one
object, with one embedding memo for all pairs, so each distinct pair of
subtrees is decided once per call.  The intern table and the memo live
only as long as the call; the caller's trees are not touched, and no
consed tree reaches the result.

The audit then checks, on the raw pair sets rather than the counts:

  * every implication between named orders holds pointwise,
  * the orders that are equal by construction (M vs Z&S, and their P/B
    combinations) have identical pair sets,
  * each covering edge of the hierarchy is strict on this corpus, i.e.
    some pair separates the two orders; a missing separating pair is
    reported as unverified, not as a failure.

Because of the lattice order, the implications among B, S, P, E and H
hold by construction, and so does every named implication that follows
from them and from conjunction alone: 170 of the 188.  The audit no
longer verifies them; the per-pair reference verdicts of the test suite
and of the benchmark's sampled pairs check those matrices instead.  The
18 implications into an order containing M, which keeps its own kernel,
the identities and the strictness report remain independent checks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .generate import GeneratorConfig
from .orders import (_IMPLIES, KEY_LETTERS, WqoSpec, _embeds, all_named_specs,
                     base_relation, named_implications, partition_key)
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
    # pairwise-decided base letter -> number of pairs its kernel ran on
    decided: dict[str, int] = field(default_factory=dict)

    def sorted_counts(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: (kv[1], kv[0]))


def _hashcons(corpus: list[Tree]) -> list[Tree]:
    """Copies of the corpus trees in which equal subtrees are one object.

    Interns bottom-up, keyed by the root and the ids of the already interned
    children; the caller's trees are left untouched."""
    table: dict[tuple[int, ...], Tree] = {}
    consed: dict[int, Tree] = {}  # id of a corpus node -> its interned copy
    for t in corpus:
        # reversed preorder visits every node after its children
        for node in reversed(list(t.nodes())):
            kids = tuple(consed[id(c)] for c in node.children)
            key = (node.root, *map(id, kids))
            u = table.get(key)
            if u is None:
                u = table[key] = Tree(node.sig, node.root, kids)
            consed[id(node)] = u
    return [consed[id(t)] for t in corpus]


def _base_matrix(letter: str, corpus: list[Tree], y_threshold: int,
                 open_pairs: np.ndarray) -> np.ndarray:
    """The letter's matrix, decided only on the open pairs; the others are False."""
    if letter in KEY_LETTERS:
        # related iff equal keys: number the distinct keys, compare the numbers
        key = partition_key(letter, y_threshold)
        ids = np.unique([key(t) for t in corpus], return_inverse=True)[1]
        return ids[:, None] == ids[None, :]
    if letter == "H":
        # one embedding memo for all pairs, over subtrees made shared objects
        corpus = _hashcons(corpus)
        memo: dict[tuple[int, int], bool] = {}
        check = lambda s, t: _embeds(s, t, memo)
    else:
        check = base_relation(letter, y_threshold)
    m = np.zeros(open_pairs.shape, dtype=bool)
    # np.argwhere lists the pairs in the row-major order of mask assignment
    m[open_pairs] = [check(corpus[i], corpus[j]) for i, j in np.argwhere(open_pairs).tolist()]
    return m


def census(
    corpus: list[Tree],
    specs: list[WqoSpec] | None = None,
    config: GeneratorConfig | None = None,
) -> CensusResult:
    """Count related ordered pairs for each spec over the whole corpus.

    All specs must share one y_threshold.  Deterministic for a fixed
    corpus; the per-spec boolean matrices are kept on the result for the
    audit.
    """
    if specs is None:
        specs = list(all_named_specs())
    thresholds = {s.y_threshold for s in specs}
    if len(thresholds) > 1:
        raise ValueError("census specs must share one y_threshold")
    y_threshold = thresholds.pop() if thresholds else 2

    # expanded: Z and S back the audit's identity checks even when only M is
    # named; the implied letters filter the pairs their implier is decided on
    named = {l for s in specs for l in s.components | s.expanded}
    letters = named.union(*(_IMPLIES.get(l, ()) for l in named))
    n = len(corpus)
    base: dict[str, np.ndarray] = {}
    decided: dict[str, int] = {}
    # _IMPLIES is transitively closed, so an implied letter implies fewer
    # letters than its implier: this order builds the filters first
    for letter in sorted(letters, key=lambda l: (len(_IMPLIES.get(l, ())), l)):
        open_pairs = np.ones((n, n), dtype=bool)
        for implied in _IMPLIES.get(letter, ()):
            open_pairs &= base[implied]
        base[letter] = _base_matrix(letter, corpus, y_threshold, open_pairs)
        if letter not in KEY_LETTERS:
            decided[letter] = int(open_pairs.sum())

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
        decided=decided,
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

    The census decides P, E and H only where the letters they imply hold,
    so every implication except those into an order containing M (such as
    H => E or YH => YB) holds by construction here; the tests compare the
    chained matrices with per-pair reference verdicts instead.

    If the result lacks a named order's matrix (a partial census, or one
    loaded from TSV) the corpus is required so they can be recomputed.
    """
    specs = list(all_named_specs())
    missing = [s.name for s in specs if s.name not in result.matrices]
    if missing or not result.base_matrices:
        if corpus is None:
            raise ValueError(f"census does not cover all named orders (missing {missing})")
        result = census(corpus, [WqoSpec(s.components, result.y_threshold) for s in specs])

    report = AuditReport()
    mats = result.matrices

    implication_pairs, covering_edges = named_implications()

    # (a) every implication, pointwise on pairs
    for fine, coarse in implication_pairs:
        report.implications_checked += 1
        bad = mats[fine] & ~mats[coarse]
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
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
        separating = int((mats[coarse] & ~mats[fine]).sum())
        if separating:
            report.strict_verified.append((fine, coarse, separating))
        else:
            report.strict_unverified.append((fine, coarse))
    return report
