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
from treewqo.bench import _interleaved_runs

from .oracles import naive_preorder


class TestMonotoneStream:
    def test_sizes_non_increasing_and_bags_distinct(self, sig):
        stream = monotone_stream(sig, 500, 30)
        sizes = [t.size for t in stream]
        assert sizes == sorted(sizes, reverse=True)
        bags = {t.bag for t in stream}
        assert len(bags) == 500
        assert all(t.pre == tuple(naive_preorder(t)) for t in stream)

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

    @pytest.mark.parametrize("n, size, message", [
        (2.5, 10, "stream length is not an int: 2.5"),
        (True, 10, "stream length is not an int: True"),
        (5, 10.0, "tree size is not an int: 10.0"),
        (5, False, "tree size is not an int: False"),
    ])
    def test_refuses_non_int_counts(self, sig, n, size, message):
        with pytest.raises(ValueError, match=message):
            monotone_stream(sig, n, size)

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
        # a checker's two lengths next to each other, n before 2n; on the
        # all-admitted stream of length m the naive run compares every pair,
        # m(m - 1)/2, and the optimized S run finds no candidate
        assert [(c, l, comps) for c, l, _, _, comps in rep.rows] == [
            ("optimized", 50, 0), ("optimized", 100, 0),
            ("naive", 50, 50 * 49 // 2), ("naive", 100, 100 * 99 // 2)]
        assert all(secs >= 0 for _, _, secs, _, _ in rep.rows)
        assert all(wh == 0 for _, _, _, wh, _ in rep.rows)

    @pytest.mark.parametrize("n, size, message", [
        (2.5, 10, "stream length is not an int: 2.5"),
        (True, 10, "stream length is not an int: True"),
        (5, 10.0, "tree size is not an int: 10.0"),
    ])
    def test_refuses_bad_counts(self, n, size, message):
        with pytest.raises(ValueError, match=message):
            bench_whistle(parse_wqo_name("S"), n, size)

    def test_tsv_round_numbers(self):
        rep = bench_whistle(parse_wqo_name("M"), 20, 15)
        lines = rep.to_tsv().splitlines()
        assert lines[0].startswith("# wqo=M")
        assert lines[1] == "checker\tstream_len\tseconds\twhistles\tcomparisons"
        assert len(lines) == 6
        assert lines[-1].endswith(f"\t{40 * 39 // 2}")

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
        runs = _interleaved_runs((Stub(), Stub()), monotone_stream(sig, 4, 5))
        assert len(seen) == 6 and not any(seen)
        assert [whistles for _, whistles in runs] == [0, 0]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        gc.enable() if enabled else gc.disable()
        try:
            bench_whistle(parse_wqo_name("S"), 10, 10)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestInterleavedPass:
    @staticmethod
    def clocked_pass(monkeypatch, n, slow=range(0)):
        """Run the pass over the stream 0..2n-1 with stub checkers whose push
        at position p takes (p + 1) * speed seconds of a patched clock, speed
        3 while the pass's push count is in `slow` and 1 elsewhere; the runs
        and the pushes in pass order as (checker made, tree)."""
        clock, made, log = [0.0], [], []

        class Stub:
            def __init__(self):
                self.pushes = 0
                made.append(self)

            def push(self, t):
                self.pushes += 1
                clock[0] += self.pushes * (3 if len(log) in slow else 1)
                log.append((made.index(self), t))
                return PushOutcome(self.pushes - 1, t % 3 == 0)

        monkeypatch.setattr(time, "thread_time", lambda: clock[0])
        return _interleaved_runs((Stub(), Stub()), list(range(2 * n))), log

    def test_time_asleep_in_a_push_is_not_counted(self, sig):
        made = []

        class Stub:
            def __init__(self):
                self.checker = NaiveChecker(parse_wqo_name("S"))
                self.slept = False
                made.append(self)

            def push(self, t):
                # the first checker made takes the half stream
                if self is made[0] and not self.slept:
                    self.slept = True
                    time.sleep(0.02)
                return self.checker.push(t)

        runs = _interleaved_runs((Stub(), Stub()), monotone_stream(sig, 4, 5))
        assert made[0].slept
        assert runs[0][0] < 0.01

    def test_two_whole_pushes_for_each_half_push(self, monkeypatch):
        _, log = self.clocked_pass(monkeypatch, 5)
        whole, half = log[0][0], log[2][0]
        assert whole != half
        assert [t for c, t in log if c == half] == list(range(5))
        assert [t for c, t in log if c == whole] == list(range(10))
        assert [c for c, _ in log] == [whole, whole, half] * 5

    @pytest.mark.parametrize("slow", [range(0, 100), range(100, 200), range(200, 300)],
                             ids=["first", "middle", "last"])
    def test_slow_spell_cancels_in_the_ratio(self, monkeypatch, slow):
        steady, _ = self.clocked_pass(monkeypatch, 100)
        spelled, _ = self.clocked_pass(monkeypatch, 100, slow)
        assert spelled[1][0] > steady[1][0]
        ratio = steady[1][0] / steady[0][0]
        assert spelled[1][0] / spelled[0][0] == pytest.approx(ratio, rel=0.02)

    def test_whistles_counted_per_run(self, monkeypatch):
        # the stub whistles on every third tree: 0, 3, ..., 99 of the
        # half stream and 0, 3, ..., 198 of the whole
        runs, _ = self.clocked_pass(monkeypatch, 100)
        assert [whistles for _, whistles in runs] == [34, 67]
