import re
import subprocess
import sys

import pytest

from treewqo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_unrelated_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "--wqo", "H",
                           "b(b(a))", "d(b(a),b(a),b(a))")
        assert code == 1
        assert "UNRELATED" in out

    def test_related_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "--wqo", "E",
                           "b(b(a))", "d(b(a),b(a),b(a))")
        assert code == 0
        assert "RELATED" in out and "E: related" in out

    def test_reflexive(self, capsys):
        code, out, _ = run(capsys, "compare", "--wqo", "S", "a", "a")
        assert code == 0

    def test_per_component_verdicts(self, capsys):
        code, out, _ = run(capsys, "compare", "--wqo", "SB",
                           "c(b(a),b(a))", "c(b(b(b(a))),a)")
        assert code == 0
        assert "S: related" in out and "B: related" in out

    def test_verdicts_in_name_order(self, capsys):
        code, out, _ = run(capsys, "compare", "--wqo", "YZH", "b(b(a))", "b(b(b(a)))")
        assert [line.split(":")[0] for line in out.splitlines()] == ["Y", "Z", "H", "RELATED"]
        assert code == 0

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "--wqo", "S", "c(a)", "a")
        assert code == 2
        assert "arity" in err

    def test_bad_wqo_name_exits_2(self, capsys):
        for name, shown in (("XQ", "'Q', 'X'"), ("ß", "'ß'"), (" H", "' '")):
            code, _, err = run(capsys, "compare", "--wqo", name, "a", "b(a)")
            assert code == 2
            assert f"unknown order letter(s): {shown}" in err

    def test_custom_signature(self, capsys, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("leaf 0\npair 2\n")
        code, out, _ = run(capsys, "compare", "--sig", str(p), "--wqo", "S",
                           "leaf", "pair(leaf,leaf)")
        assert code == 0


class TestWhistle:
    def write_stream(self, tmp_path, lines):
        p = tmp_path / "stream.txt"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_whistles(self, capsys, tmp_path):
        path = self.write_stream(tmp_path, ["a", "b(a)"])
        code, out, _ = run(capsys, "whistle", "--wqo", "S", path)
        assert code == 0
        assert out.splitlines() == ["0\tADMIT", "1\tWHISTLE\t0"]

    def test_exhausted(self, capsys, tmp_path):
        path = self.write_stream(tmp_path, ["b(a)", "a"])
        code, out, _ = run(capsys, "whistle", "--wqo", "S", path)
        assert code == 1
        assert out.splitlines() == ["0\tADMIT", "1\tADMIT"]

    def test_euler_pair_whistles(self, capsys, tmp_path):
        path = self.write_stream(tmp_path, ["b(b(a))", "d(b(a),b(a),b(a))"])
        code, out, _ = run(capsys, "whistle", "--wqo", "E", path)
        assert code == 0
        assert out.splitlines()[-1] == "1\tWHISTLE\t0"

    def test_stops_at_first_whistle(self, capsys, tmp_path):
        path = self.write_stream(tmp_path, ["a", "b(a)", "c(a,a)"])
        code, out, _ = run(capsys, "whistle", "--wqo", "S", path)
        assert len(out.splitlines()) == 2

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = self.write_stream(tmp_path, ["a", "c(a)"])
        code, _, err = run(capsys, "whistle", "--wqo", "S", path)
        assert code == 2
        assert "line 2" in err


class TestCensus:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "30", "--seed", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# seed=9"
        assert len([l for l in lines if not l.startswith("#")]) == 28

    def test_corpus_of_one(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "1")
        assert code == 0
        counts = [int(l.split("\t")[1]) for l in out.splitlines()[4:]]
        assert counts == [1] * 27

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "census", "--n", "40", "--seed", "3")
        _, out2, _ = run(capsys, "census", "--n", "40", "--seed", "3")
        assert out1 == out2

    def test_audit_passes(self, capsys):
        code, _, err = run(capsys, "census", "--n", "60", "--seed", "5", "--audit")
        assert code == 0
        assert "violations: 0" in err

    def test_subset_of_orders(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "25", "--wqo", "S,ZS,H")
        assert code == 0
        names = {l.split("\t")[0] for l in out.splitlines()[4:]}
        assert names == {"S", "M", "H"}

    def test_spaces_around_order_names(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "15", "--wqo", "S, H ")
        assert code == 0
        assert {l.split("\t")[0] for l in out.splitlines()[4:]} == {"S", "H"}

    def test_threshold_of_all_orders(self, capsys):
        # --k reaches every spec, and those without Y ignore it
        code, out, err = run(capsys, "census", "--n", "20", "--k", "3", "--wqo", "all",
                             "--audit")
        assert code == 0 and "violations: 0" in err
        assert len(out.splitlines()[4:]) == 27

    def test_audit_of_partial_census(self, capsys):
        # a census that names fewer orders is audited by a census of all 27
        code, _, err = run(capsys, "census", "--n", "10", "--wqo", "S,H", "--audit")
        assert code == 0 and "violations: 0" in err

    def test_audit_of_partial_census_at_k(self, capsys):
        # the census of all 27 orders behind the audit runs at --k too
        def summary(wqo):
            code, _, err = run(capsys, "census", "--n", "12", "--cap", "40", "--seed", "5",
                               "--wqo", wqo, "--k", "3", "--audit")
            assert code == 0
            return err.split("audit in ")[1].split("\n", 1)[1]

        partial = summary("H")
        assert partial == summary("all")
        assert "strict edges separated on this corpus: 44, unverified: 8" in partial

    def test_tsv_format(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "40", "--seed", "3", "--cap", "200")
        assert code == 0
        lines = out.splitlines()
        assert lines[:4] == ["# seed=3", "# corpus=40", "# cap=200", "wqo_name\tpair_count"]
        rows = [(int(c), name) for name, c in (l.split("\t") for l in lines[4:])]
        assert len(rows) == 27
        assert rows == sorted(rows)  # ascending counts, ties by name

    @pytest.mark.parametrize("option, value, message", [
        ("--n", "-1", "corpus size must be >= 0, got -1"),
        ("--cap", "0", "size cap must be >= 1, got 0"),
    ], ids=["n", "cap"])
    def test_bad_generator_value_named(self, capsys, option, value, message):
        code, out, err = run(capsys, "census", option, value)
        assert (code, out) == (2, "") and message in err

    def test_replay_dumped_corpus(self, capsys, tmp_path):
        path = str(tmp_path / "c.txt")
        _, generated, _ = run(capsys, "census", "--n", "30", "--seed", "2", "--dump", path)
        code, replayed, _ = run(capsys, "census", "--corpus", path)
        assert code == 0
        assert replayed.splitlines()[:3] == ["# seed=unknown", "# corpus=30", "# cap=unknown"]
        assert replayed.splitlines()[3:] == generated.splitlines()[3:]

    def test_corpus_and_dump_refused(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--corpus", str(tmp_path / "c"), "--dump", str(tmp_path / "d")])
        assert exc.value.code == 2 and "not allowed with" in capsys.readouterr().err

    def test_stage_times_on_stderr(self, capsys):
        _, _, err = run(capsys, "census", "--n", "20", "--audit")
        assert re.match(r"corpus of 20 trees generated in \S+s\ncensus of 27 orders in "
                        r"\S+s\naudit in \S+s\n", err)


class TestBench:
    def test_zero_n(self, capsys):
        code, out, _ = run(capsys, "bench", "--wqo", "S", "--n", "0")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_small_bench(self, capsys):
        code, out, _ = run(capsys, "bench", "--wqo", "S", "--n", "30", "--size", "20")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_doubling_ratios_on_stderr(self, capsys):
        code, out, err = run(capsys, "bench", "--wqo", "S", "--n", "30", "--size", "20")
        assert code == 0 and len(out.splitlines()) == 6
        assert re.fullmatch(r"# doubling ratios: optimized \d+\.\d\d, naive \d+\.\d\d\n", err)

    def test_negative_length_exits_2(self, capsys):
        code, out, err = run(capsys, "bench", "--wqo", "S", "--n", "-1")
        assert (code, out) == (2, "") and "stream length must be >= 0" in err

    @pytest.mark.parametrize("n", ["5", "0"])
    def test_negative_size_exits_2(self, capsys, n):
        code, out, err = run(capsys, "bench", "--wqo", "S", "--n", n, "--size", "-3")
        assert (code, out) == (2, "") and "tree size must be >= 1, got -3" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treewqo.cli", "compare", "--wqo", "P",
         "b(b(a))", "c(b(a),b(a))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "RELATED" in proc.stdout
