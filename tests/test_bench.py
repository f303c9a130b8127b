import gc
import hashlib
import time

import pytest

from treewqo import (
    NaiveChecker,
    PushOutcome,
    SequenceChecker,
    bench_whistle,
    default_signature,
    monotone_stream,
    parse_wqo_name,
    render_tree,
)
from treewqo.bench import _timed_run


class TestMonotoneStream:
    def test_sizes_non_increasing_and_bags_distinct(self, sig):
        stream = monotone_stream(sig, 500, 30)
        sizes = [t.size for t in stream]
        assert sizes == sorted(sizes, reverse=True)
        bags = {t.bag for t in stream}
        assert len(bags) == 500

    @pytest.mark.parametrize("name", ["S", "M"])
    def test_fully_admitted(self, sig, name):
        stream = monotone_stream(sig, 300, 25)
        for checker in (SequenceChecker(parse_wqo_name(name)),
                        NaiveChecker(parse_wqo_name(name))):
            assert all(checker.push(t).admitted for t in stream)

    @pytest.mark.parametrize("size", [0, -3])
    def test_refuses_non_positive_size(self, sig, size):
        with pytest.raises(ValueError, match=f"tree size must be >= 1, got {size}"):
            monotone_stream(sig, 5, size)

    def test_refuses_negative_length(self, sig):
        with pytest.raises(ValueError, match="stream length must be >= 0, got -5"):
            monotone_stream(sig, -5, 10)

    def test_needs_workable_signature(self):
        from treewqo import Signature
        with pytest.raises(ValueError, match="nullary"):
            monotone_stream(Signature([("a", 0)]), 10, 5)


    def test_fixed_stream(self, sig):
        # the benchmark's antichain input
        text = "".join(render_tree(t) + "\n" for t in monotone_stream(sig, 240, 50))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "5c3b0393222af44656f9c3c80b5be651e9344bf53ec7c08b485636c95582cde7"


class TestBenchReport:
    def test_empty_run(self):
        rep = bench_whistle(parse_wqo_name("S"), 0)
        assert rep.rows == []
        assert rep.to_tsv().count("\n") == 2  # header lines only

    def test_report_shape(self):
        rep = bench_whistle(parse_wqo_name("S"), 50, 20)
        # in timing order: a checker's two lengths back to back
        assert [(c, l) for c, l, _, _ in rep.rows] == [
            ("optimized", 50), ("optimized", 100), ("naive", 50), ("naive", 100)]
        assert all(secs >= 0 for _, _, secs, _ in rep.rows)
        assert all(wh == 0 for _, _, _, wh in rep.rows)

    def test_tsv_round_numbers(self):
        rep = bench_whistle(parse_wqo_name("M"), 20, 15)
        lines = rep.to_tsv().splitlines()
        assert lines[0].startswith("# wqo=M")
        assert lines[1] == "checker\tstream_len\tseconds\twhistles"
        assert len(lines) == 6

    @pytest.mark.parametrize("name", ["SB", "P", "E", "H", "ZP", "YZH",
                                      "B", "ZB", "YB", "YZB"])
    def test_size_implying_checkers_skip_monotone_history(self, sig, name):
        # these orders imply S or B; bags are distinct and sizes never grow
        # along the stream, so no admitted tree is a candidate or shares a
        # table entry; the naive checker compares every pair
        stream = monotone_stream(sig, 100, 30)
        spec = parse_wqo_name(name)
        fast, slow = SequenceChecker(spec), NaiveChecker(spec)
        assert [fast.push(t).whistled for t in stream] == \
               [slow.push(t).whistled for t in stream]
        n = len(stream)
        assert fast.comparisons == 0
        assert slow.comparisons == n * (n - 1) // 2


class TestGarbageCollector:
    def test_pushes_are_timed_with_the_collector_off(self, sig):
        seen = []

        class Stub:
            def __init__(self):
                self.checker = NaiveChecker(parse_wqo_name("S"))

            def push(self, t):
                seen.append(gc.isenabled())
                return self.checker.push(t)

        assert gc.isenabled()
        _, whistles = _timed_run(Stub, monotone_stream(sig, 3, 5))
        assert seen and not any(seen) and whistles == 0
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        gc.enable() if enabled else gc.disable()
        try:
            bench_whistle(parse_wqo_name("S"), 10, 10)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestRepeatedRuns:
    @staticmethod
    def clocked_runs(monkeypatch, sig, durations):
        """Time runs that take the given seconds on a patched clock; return
        the reported seconds and the checkers made."""
        clock, made = [0.0], []
        ticks = iter(durations)

        class Stub:
            def __init__(self):
                self.pushes = 0
                made.append(self)

            def push(self, t):
                self.pushes += 1
                if self.pushes == 1:
                    clock[0] += next(ticks)
                return PushOutcome(self.pushes - 1, False)

        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        secs, _ = _timed_run(Stub, monotone_stream(sig, 4, 5))
        return secs, made

    def test_short_runs_repeat_on_fresh_checkers(self, monkeypatch, sig):
        # 0.17 s after four runs, so a fifth, and no sixth
        secs, made = self.clocked_runs(monkeypatch, sig, [0.05, 0.02, 0.04, 0.06, 0.03, 0.01])
        assert secs == pytest.approx(0.02)
        assert len(made) == 5 and [c.pushes for c in made] == [4] * 5

    def test_budget_stops_repeats(self, monkeypatch, sig):
        secs, made = self.clocked_runs(monkeypatch, sig, [0.15, 0.1, 0.01])
        assert secs == pytest.approx(0.1) and len(made) == 2

    def test_long_run_runs_once(self, monkeypatch, sig):
        secs, made = self.clocked_runs(monkeypatch, sig, [1.5, 0.01])
        assert secs == pytest.approx(1.5) and len(made) == 1
