"""Machine-speed calibration: a fixed piece of pure-Python work, timed.

The benchmark scales the times it reports by CALIBRATION_REF_NS over the
thread CPU time this work takes around each measurement, so that they read
at a fixed reference speed on a machine whose speed changes under load from
other processes.  The timed loop calibrates between its requests;
`SpeedSampler` calibrates from a timer signal, inside one long stretch of
work such as a set-up.
"""

from __future__ import annotations

import signal
import time

CALIBRATION_REF_NS = 500_000
CALIBRATION_INTERVAL_NS = 10_000_000


def _calibration_work() -> int:
    """Fixed pure-Python work of dict, string and integer operations."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1250):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) if i % 7 else i >> 3
    return acc + len(table)


def calibration_ns() -> int:
    """Thread CPU time of `_calibration_work`, about 0.5 ms at the reference
    speed."""
    start = time.thread_time_ns()
    _calibration_work()
    return time.thread_time_ns() - start


class SpeedSampler:
    """Calibrates every `interval_s` of process CPU time, from a profiling
    timer signal, while a stretch of work runs in this thread.

    `spent_ns` is the wall time the calibrations took, to be left out of
    the stretch's duration; `speed()` is the reference over their mean.
    """

    def __init__(self, interval_s: float = 0.01):
        self.interval_s = interval_s
        self.samples: list[int] = []
        self.spent_ns = 0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append(calibration_ns())
        self.spent_ns += time.perf_counter_ns() - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def speed(self) -> float:
        if not self.samples:
            return 1.0
        return CALIBRATION_REF_NS * len(self.samples) / sum(self.samples)
