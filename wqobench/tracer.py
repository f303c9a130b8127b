"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the package: a name, a start and
an end (perf_counter nanoseconds) and the span that was open when it began.
All spans of one workload run share the tracer's trace id.  Spans are kept
in flat arrays while the run is live and written out once, when it ends.

Span names are `<layer>.<call>`; the layer is the text before the first
dot.  A span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap).
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

__all__ = ["Tracer"]


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self._names: dict[str, int] = {}
        self._name_list: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its id."""
        nid = self._names.get(name)
        if nid is None:
            nid = self._names[name] = len(self._name_list)
            self._name_list.append(name)
        sid = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        if self._open.pop() != sid:
            raise RuntimeError("spans must close innermost first")

    def unwind(self, sid: int) -> None:
        """Close span `sid` and every span opened inside it (after a raise)."""
        while sid in self._open:
            self.end(self._open[-1])

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns)."""
        child_ns = [0] * len(self.starts)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, nid in enumerate(self.name_ids):
            dur = self.ends[sid] - self.starts[sid]
            row = out[self._name_list[nid]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_ns[sid]
        return {name: tuple(row) for name, row in out.items()}

    @staticmethod
    def layer_self_ns(summary: dict[str, tuple[int, int, int]]) -> dict[str, int]:
        """Self time summed per layer, from `summary()`."""
        layers: dict[str, int] = defaultdict(int)
        for name, (_, _, self_ns) in summary.items():
            layers[name.split(".", 1)[0]] += self_ns
        return dict(layers)

    def write(self, path) -> None:
        """All spans as gzipped TSV: trace, span, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("trace_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            names = self._name_list
            tid = self.trace_id
            for sid, nid in enumerate(self.name_ids):
                fh.write(f"{tid}\t{sid}\t{self.parents[sid]}\t{names[nid]}\t"
                         f"{self.starts[sid]}\t{self.ends[sid]}\n")
