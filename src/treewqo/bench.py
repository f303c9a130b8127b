"""Whistle timing benchmarks: optimized checker vs naive reference.

The interesting regime is a stream that never whistles: every naive
push then scans the whole admitted sequence, quadratic total work, so
doubling the stream length roughly quadruples the naive time.
`monotone_stream` builds one deterministically, trees with
pairwise-distinct constructor bags in non-increasing size order: no tree
equals, shares a bag with or is smaller than one after it, so S, B and
every order that implies either admit the whole stream, and the
optimized checker, finding no candidate, stays near-linear.

Each push is timed alone on `time.thread_time`, the CPU time of the
pushing thread, which stands still while the thread is descheduled: a
preemption inside a push of a microsecond or two adds nothing to it.
That needs a thread clock far finer than a push (on Linux its resolution
is 1e-09 s).  The cyclic garbage collector is off, since a collection
would run on the pushing thread and count in its time.  Trees are built
beforehand, so both checkers see identical inputs.  There is no warm-up
pass: a tree's lazily made measures are made by its first push, always
in the 2n run, a cost per tree that keeps that run linear.

A checker's two lengths run in one pass on two fresh checkers, two
pushes of the 2n stream for each push of its first n trees.  A slow
spell of the host then falls on both runs in the fixed ratio of their
costs per step (4:1 for quadratic total work, 2:1 for linear), so it
cancels in time(2n)/time(n).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .orders import WqoSpec
from .signature import Signature, Tree, _check_count, _coded, default_signature
from .whistle import NaiveChecker, SequenceChecker

__all__ = ["BenchReport", "bench_whistle", "monotone_stream"]


def _bag_trees_of_size(sig: Signature, leaf: int, wrappers: list[int], size: int):
    """Yield one tree per realizable bag of the given size: a nullary leaf
    wrapped by the bag's non-nullary constructors (multiplicities m_i with
    sum(m_i * arity_i) = size - 1), extra child slots filled with leaves."""
    *steps, last = [sig.arities[w] for w in wrappers]
    budget = size - 1
    units = sig.bag_units
    # every count but the last in lexicographic order; the last is what the others leave
    for head in product(*(range(budget // step + 1) for step in steps)):
        rest = budget - sum(m * step for m, step in zip(head, steps))
        if rest < 0 or rest % last:
            continue
        counts = head + (rest // last,)
        # innermost first; in preorder come the wrappers outermost first, then leaves
        chain = [w for w, m in zip(wrappers, counts) for _ in range(m)]
        roots = chain[::-1] + [leaf] * (size - len(chain))
        yield _coded(sig, roots, sum(map(units.__getitem__, roots)))


def monotone_stream(sig: Signature, n: int, tree_size: int) -> list[Tree]:
    """n trees with pairwise-distinct bags, sizes non-increasing around
    `tree_size`; fully admitted under S, B and every order implying either."""
    _check_count("stream length", n, 0)
    _check_count("tree size", tree_size, 1)
    nullaries = [i for i, a in enumerate(sig.arities) if a == 0]
    wrappers = [i for i, a in enumerate(sig.arities) if a > 0]
    if not nullaries or not wrappers:
        raise ValueError("stream needs a nullary and a non-nullary constructor")
    leaf = nullaries[0]
    out: list[Tree] = []
    size = max(2, int(tree_size * 1.5))
    while len(out) < n and size >= 1:
        for t in _bag_trees_of_size(sig, leaf, wrappers, size):
            out.append(t)
            if len(out) == n:
                break
        size -= 1
    if len(out) < n:
        raise ValueError(f"only {len(out)} distinct bags available near size {tree_size}")
    return out


@dataclass
class BenchReport:
    wqo: str
    n: int
    tree_size: int
    # (checker, stream length, CPU seconds, whistles observed)
    rows: list[tuple[str, int, float, int]] = field(default_factory=list)

    def seconds(self, checker: str, length: int) -> float:
        for c, l, secs, _ in self.rows:
            if c == checker and l == length:
                return secs
        raise KeyError((checker, length))

    def ratio(self, checker: str) -> float:
        return self.seconds(checker, 2 * self.n) / self.seconds(checker, self.n)

    def to_tsv(self) -> str:
        lines = [f"# wqo={self.wqo}\tn={self.n}\ttree_size={self.tree_size}",
                 "checker\tstream_len\tseconds\twhistles"]
        for c, l, secs, wh in self.rows:
            lines.append(f"{c}\t{l}\t{secs:.6f}\t{wh}")
        return "\n".join(lines) + "\n"


def _interleaved_runs(make_checker, stream: list[Tree]) -> list[tuple[float, int]]:
    """(seconds, whistles) of the first half of `stream` and of all of it,
    each pushed into a fresh checker from `make_checker`, interleaved."""
    pushes = (make_checker().push, make_checker().push)
    secs, whistles = [0.0, 0.0], [0, 0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(len(stream) // 2):
            for run, t in ((1, stream[2 * i]), (1, stream[2 * i + 1]), (0, stream[i])):
                start = time.thread_time()
                whistled = pushes[run](t).whistled
                secs[run] += time.thread_time() - start
                whistles[run] += whistled
        return list(zip(secs, whistles))
    finally:
        if enabled:
            gc.enable()


def bench_whistle(spec: WqoSpec, n: int, tree_size: int = 50,
                  sig: Signature | None = None) -> BenchReport:
    """Time optimized and naive checkers on monotone streams of length n
    and 2n (the length-n run takes the prefix of the longer stream)."""
    _check_count("stream length", n, 0)
    # built even for n == 0, so that a bad size or signature is refused
    stream = monotone_stream(sig or default_signature(), 2 * n, tree_size)
    report = BenchReport(spec.name, n, tree_size)
    if n == 0:
        return report
    for label, checker in (("optimized", SequenceChecker), ("naive", NaiveChecker)):
        runs = _interleaved_runs(partial(checker, spec), stream)
        report.rows += [(label, length, *run) for length, run in zip((n, 2 * n), runs)]
    return report
