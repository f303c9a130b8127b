"""Incremental sequence checkers ("whistles").

A checker admits trees one at a time.  A push either admits the tree into
the growing sequence or blows the whistle, reporting some earlier admitted
element that is related to (at or below) the new one.  Whistled elements
do not join the sequence, so the admitted elements always form an
antichain under the checker's order.

`SequenceChecker` picks an acceleration strategy from the spec:

  * key mode    - every component maps trees into a finite set (Z and/or
                  Y): keep a table of seen keys; a repeated key is a
                  whistle, a fresh key is admitted with no comparisons.
  * mono mode   - the components are Z/Y keys plus the size order (S, or
                  M = Z & S): partition the sequence by key; within a
                  partition admitted sizes are non-increasing, so one size
                  comparison against the partition's last element plus a
                  seen-tree hash table decide a push in O(1) after the
                  O(size) measure precomputation.
  * scan mode   - anything else: partition by whatever Z/Y keys exist and
                  scan the partition, evaluating the remaining components
                  cheapest-first with short-circuiting per pair.

`NaiveChecker` is the differential-testing reference: it scans all
admitted elements in order and applies the combined relation directly.
Both checkers must whistle at identical positions on identical streams;
which witness is reported may differ.

Positions count pushes (admitted or not, 0-based); a whistle's witness is
the position at which the witnessing element was pushed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orders import WqoSpec, conjunction
from .signature import Signature, Tree, repeated_mask

__all__ = ["PushOutcome", "SequenceChecker", "NaiveChecker"]


@dataclass(frozen=True)
class PushOutcome:
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
    """Shared bookkeeping: positions, admitted list, signature pinning."""

    def __init__(self, spec: WqoSpec):
        self.spec = spec
        self.reset()

    def reset(self) -> None:
        self.sig: Signature | None = None
        self.position = 0
        self.admitted: list[tuple[int, Tree]] = []
        self.comparisons = 0  # pairwise relation evaluations performed

    def _enter(self, t: Tree) -> None:
        if self.sig is None:
            self.sig = t.sig
        elif t.sig != self.sig:
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
    in order, with the combined relation."""

    def __init__(self, spec: WqoSpec):
        self._related = conjunction(spec.components, spec.y_threshold)
        super().__init__(spec)

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
    """Optimized checker; see the module docstring for the strategies."""

    def __init__(self, spec: WqoSpec):
        expanded = spec.expanded
        self._key_parts = []
        if "Z" in expanded:
            self._key_parts.append(lambda t: t.mask)
        if "Y" in expanded:
            k = spec.y_threshold
            self._key_parts.append(lambda t: repeated_mask(t, k))
        residual = expanded - {"Z", "Y"}
        if not residual:
            self._mode = "key"
        elif residual == {"S"}:
            self._mode = "mono"
        else:
            self._mode = "scan"
            self._related = conjunction(residual, spec.y_threshold)
        super().__init__(spec)

    def reset(self) -> None:
        super().reset()
        self._partitions: dict = {}
        self._seen_trees: dict[Tree, int] = {}

    @property
    def strategy(self) -> str:
        """Which acceleration applies: 'key', 'mono' or 'scan', plus the
        number of finite-key partition components."""
        return f"{self._mode}/{len(self._key_parts)}-key"

    def _key(self, t: Tree):
        return tuple(part(t) for part in self._key_parts)

    def push(self, t: Tree) -> PushOutcome:
        self._enter(t)
        pos = self.position
        self.position += 1
        key = self._key(t)

        if self._mode == "key":
            earlier = self._partitions.get(key)
            if earlier is not None:
                return PushOutcome(pos, True, earlier)
            self._partitions[key] = pos
            self.admitted.append((pos, t))
            return PushOutcome(pos, False)

        if self._mode == "mono":
            # equal trees share all keys, so one global table suffices
            dup = self._seen_trees.get(t)
            if dup is not None:
                return PushOutcome(pos, True, dup)
            part = self._partitions.get(key)
            if part is not None:
                last_pos, last_size = part
                if last_size < t.size:
                    return PushOutcome(pos, True, last_pos)
            self._partitions[key] = (pos, t.size)
            self._seen_trees[t] = pos
            self.admitted.append((pos, t))
            return PushOutcome(pos, False)

        members = self._partitions.setdefault(key, [])
        witness, scanned = _scan(members, t, self._related)
        self.comparisons += scanned
        if witness is not None:
            return PushOutcome(pos, True, witness)
        members.append((pos, t))
        self.admitted.append((pos, t))
        return PushOutcome(pos, False)
