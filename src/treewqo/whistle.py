"""Incremental sequence checkers ("whistles").

A checker admits trees one at a time.  A push either admits the tree into
the growing sequence or blows the whistle, reporting some earlier admitted
element that is related to (at or below) the new one.  Whistled elements
do not join the sequence, so the admitted elements always form an
antichain under the checker's order.  Positions count pushes (admitted
or not, 0-based); a whistle's witness is the position at which the
witnessing element was pushed.

`SequenceChecker` decides every push by one rule read off the order
lattice.  Trees with different `Z`/`Y` keys are unrelated, so the
admitted trees are partitioned by one int per tree that packs both keys
(`orders.partition_key`, called once a push).  A spec that is not keys
alone implies `S` or `B`, and both bound size (a bag's total is the
size), so s sits below t only if s is strictly smaller or shares what
equal-size related trees share: the tree under `S`, else the bag under
`B` (equal bags give equal keys), else the keys.  One table keyed by the
bag under `S` or `B`, else by the keys, holds the first admitted tree of
each value and decides the equal case; under `S` a tree of a bag already
in it is compared with that first tree, then looked up in a second table
keyed by tree, which holds only the later trees of a seen bag.  So a
stream of distinct bags hashes no tree.  A partition keeps its members in
non-increasing size order beside a column of their negated sizes, so one
`bisect_right` over the column finds both the candidates, the strictly
smaller tail, and where t goes if admitted, after the trees of its size.
An admitted tree is kept once, as one `(pos, t)` entry: its partition
holds it, and the first table holds that same entry when the tree is
the first of its value.
The candidates are checked smallest first, among equal sizes the newest
first, against the rest of the spec (less `Z`, `Y` and `S`), at most one
letter of the chain `B`, `P`, `E`, `H`, whose kernel is called directly;
when nothing is left, any candidate is a witness.

`NaiveChecker` is the differential-testing reference: both checkers must
whistle at identical positions on identical streams, though the reported
witness may differ.  Only it lists the admitted trees, as `admitted`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .orders import KEY_LETTERS, WqoSpec, base_relation, conjunction, implies, partition_key
from .signature import Signature, Tree

__all__ = ["PushOutcome", "SequenceChecker", "NaiveChecker"]

# builds a PushOutcome without the named tuple's Python-level __new__
_new_tuple = tuple.__new__


class PushOutcome(NamedTuple):
    position: int
    whistled: bool
    witness: int | None = None

    @property
    def admitted(self) -> bool:
        return not self.whistled

    def __str__(self) -> str:
        if self.whistled:
            return f"{self.position}\tWHISTLE\t{self.witness}"
        return f"{self.position}\tADMIT"


class _CheckerBase:
    """Shared bookkeeping: positions, comparisons, signature pinning."""

    def __init__(self, spec: WqoSpec):
        self.spec = spec
        self.reset()

    def reset(self) -> None:
        self.sig: Signature | None = None
        self.position = 0
        self.comparisons = 0  # pairwise relation evaluations performed

    def _enter(self, t: Tree) -> None:
        if self.sig is None:
            self.sig = t.sig
        elif t.sig is not self.sig and t.sig != self.sig:
            raise ValueError("tree pushed over a different signature")


def _scan(entries, t, related):
    """Position of the first element in entries related to t, else None;
    also returns how many elements were examined."""
    scanned = 0
    for wpos, s in entries:
        scanned += 1
        if related(s, t):
            return (wpos, scanned)
    return (None, scanned)


class NaiveChecker(_CheckerBase):
    """Reference checker: compare the new element to every admitted one,
    in order, with the combined relation.  `admitted` lists the
    `(position, tree)` of every admitted push, in push order."""

    def __init__(self, spec: WqoSpec):
        self._related = conjunction(spec)
        super().__init__(spec)

    def reset(self) -> None:
        super().reset()
        self.admitted: list[tuple[int, Tree]] = []

    def push(self, t: Tree) -> PushOutcome:
        self._enter(t)
        pos = self.position
        self.position += 1
        witness, scanned = _scan(self.admitted, t, self._related)
        self.comparisons += scanned
        if witness is not None:
            return PushOutcome(pos, True, witness)
        self.admitted.append((pos, t))
        return PushOutcome(pos, False)


class SequenceChecker(_CheckerBase):
    """Optimized checker; see the module docstring for the rule."""

    def __init__(self, spec: WqoSpec):
        expanded = spec.expanded
        self._key = partition_key(expanded, spec.y_threshold)
        self._same_tree = implies(spec, WqoSpec(frozenset("S")))
        self._by_bag = self._same_tree or implies(spec, WqoSpec(frozenset("B")))
        (letter,) = expanded - KEY_LETTERS - {"S"} or {None}
        self._related = base_relation(letter, spec.y_threshold) if letter else None
        super().__init__(spec)

    def reset(self) -> None:
        super().reset()
        # key -> (negated sizes ascending, the (pos, tree) members in that order)
        self._partitions: dict = {}
        # the bag (else key) -> the partition entry of its first admitted tree
        self._seen: dict = {}
        # under S: tree -> pos, for the later trees of a bag in _seen
        self._later: dict = {}

    def push(self, t: Tree) -> PushOutcome:
        if t.sig is not self.sig:
            self._enter(t)
        pos = self.position
        self.position = pos + 1
        key = self._key(t)
        shared = t.packed_bag if self._by_bag else key
        first = self._seen.get(shared)
        if first is not None:
            if not self._same_tree or first[1] == t:
                return PushOutcome(pos, True, first[0])
            dup = self._later.get(t)
            if dup is not None:
                return PushOutcome(pos, True, dup)
        part = self._partitions.get(key)
        if part is None:
            part = self._partitions[key] = ([], [])
        sizes, members = part
        neg = -t.size
        # past the equal sizes: the strictly smaller tail, and where t goes
        i = bisect_right(sizes, neg)
        if i < len(sizes):
            if self._related is None:
                return PushOutcome(pos, True, members[-1][0])
            # smallest first: a smaller tree is likelier to sit below t
            witness, scanned = _scan(reversed(members[i:]), t, self._related)
            self.comparisons += scanned
            if witness is not None:
                return PushOutcome(pos, True, witness)
        entry = (pos, t)
        sizes.insert(i, neg)
        members.insert(i, entry)
        if first is None:
            self._seen[shared] = entry
        else:
            self._later[t] = pos
        return _new_tuple(PushOutcome, (pos, False, None))
