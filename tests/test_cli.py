"""Command-line behavior: exit codes, file formats, determinism, bench CSV."""

from __future__ import annotations

import csv
import json
import statistics
import subprocess
import sys

import pytest

from shortcutforge import cli
from shortcutforge.cli import main


def run(*argv: str) -> int:
    return main(list(argv))


def test_version_via_console_script():
    out = subprocess.run(
        [sys.executable, "-m", "shortcutforge.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "shortcutforge 0.1.0"


def test_unknown_subcommand_exits_2():
    assert run("frobnicate") == 2


def test_missing_seed_exits_2(tmp_path):
    assert run("gen", "--family", "path", "--n", "5", "--out", str(tmp_path / "g.txt")) == 2


def test_missing_input_file_reports_error(tmp_path):
    assert (
        run(
            "shortcut",
            "--input",
            str(tmp_path / "absent.txt"),
            "--diameter",
            "4",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "h.txt"),
        )
        == 2
    )


def test_pipeline_and_byte_identical_rerun(tmp_path, capsys):
    g = tmp_path / "g.txt"
    h1 = tmp_path / "h1.txt"
    h2 = tmp_path / "h2.txt"
    assert run("gen", "--family", "random_dag", "--n", "64", "--p", "0.15",
               "--seed", "11", "--out", str(g)) == 0
    assert run("shortcut", "--input", str(g), "--diameter", "4",
               "--seed", "7", "--out", str(h1)) == 0
    assert run("shortcut", "--input", str(g), "--diameter", "4",
               "--seed", "7", "--out", str(h2)) == 0
    assert h1.read_bytes() == h2.read_bytes()
    assert run("verify", "--graph", str(g), "--edges", str(h1),
               "--mode", "shortcut", "--diameter", "4") == 0
    out = capsys.readouterr().out
    assert "closure_membership: pass" in out


def test_weighted_pipeline(tmp_path):
    g = tmp_path / "w.txt"
    h = tmp_path / "h.txt"
    report = tmp_path / "report.json"
    assert run("gen", "--family", "weighted_random", "--n", "40", "--p", "0.15",
               "--W", "9", "--seed", "3", "--out", str(g)) == 0
    assert run("hopset", "--input", str(g), "--beta", "12", "--eps", "1/4",
               "--seed", "5", "--out", str(h)) == 0
    assert run("verify", "--graph", str(g), "--edges", str(h), "--mode", "hopset",
               "--beta", "12", "--eps", "1/4", "--json", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert data["achieved_hops"] == 12


def test_hopset_rejects_unweighted_input(tmp_path):
    g = tmp_path / "g.txt"
    assert run("gen", "--family", "path", "--n", "8", "--seed", "0",
               "--out", str(g)) == 0
    assert run("hopset", "--input", str(g), "--beta", "12", "--eps", "1/4",
               "--seed", "0", "--out", str(tmp_path / "h.txt")) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["hopset", "--input", "g.txt", "--seed", "0", "--out", "h.txt"],
        ["verify", "--graph", "g.txt", "--edges", "h.txt", "--mode", "hopset"],
    ],
)
def test_zero_denominator_eps_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--family", "weighted_random", "--n", "20", "--p", "0.2",
               "--W", "5", "--seed", "0", "--out", "g.txt") == 0
    (tmp_path / "h.txt").write_text("20 0\n")
    capsys.readouterr()
    assert run(*command, "--beta", "12", "--eps", "1/0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode, flags, message",
    [
        ("shortcut", ["--diameter", "-5"], "diameter target must be >= 0, got -5"),
        ("hopset", ["--beta", "-3", "--eps", "1/4"], "hop bound must be >= 0"),
    ],
)
def test_verify_negative_target_is_a_usage_error(tmp_path, monkeypatch, capsys, mode, flags,
                                                 message):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--family", "weighted_random", "--n", "20", "--p", "0.2",
               "--W", "5", "--seed", "0", "--out", "g.txt") == 0
    (tmp_path / "h.txt").write_text("20 0\n")
    capsys.readouterr()
    assert run("verify", "--graph", "g.txt", "--edges", "h.txt", "--mode", mode, *flags) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("const", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["shortcut", "--diameter", "4"],
        ["hopset", "--beta", "24", "--eps", "1/4"],
    ],
)
def test_const_must_be_finite_and_positive(tmp_path, monkeypatch, capsys, command, const):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--family", "weighted_random", "--n", "60", "--p", "0.1",
               "--W", "20", "--seed", "0", "--out", "g.txt") == 0
    capsys.readouterr()
    assert run(*command, "--input", "g.txt", "--const", const, "--seed", "0",
               "--out", "h.txt") == 2
    err = capsys.readouterr().err
    assert f"argument --const: {const!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "h.txt").exists()


def test_verify_failure_exits_1(tmp_path):
    g = tmp_path / "g.txt"
    h = tmp_path / "h.txt"
    assert run("gen", "--family", "path", "--n", "40", "--seed", "0",
               "--out", str(g)) == 0
    h.write_text("40 0\n")  # no shortcuts: a long path misses diameter 3
    assert run("verify", "--graph", str(g), "--edges", str(h),
               "--mode", "shortcut", "--diameter", "3") == 1


@pytest.mark.parametrize(
    "text, code, err",
    [
        ("# c\n4 3\n0 1 path_shortcut\n\n1 2\n0 2 lifted extra # x\n", 0, ""),
        ("", 2, "empty edge file"),
        ("4\n", 2, "line 1: header must start with 'n m'"),
        ("4 1\n0 x 1\n", 2, "line 2: expected 'u v [w] [tag]'"),
        ("4 2\n0 1 tag\n1 2 5 tag\n", 2, "line 3: expected 2 integers, as on the first row"),
        ("4 99\n0 1\n", 2, "header declares m=99 edges but file has 1"),
        ("# c\n4 x\n0 1\n", 2, "line 2: non-integer header field"),
        ("4 1\n0 99999999999999999999 tag\n", 2, "integer field outside the int64 range"),
    ],
    ids=["tags_optional", "empty", "header", "row", "mixed_widths", "count", "header_int",
         "int64"],
)
def test_verify_edge_file_reader(tmp_path, capsys, text, code, err):
    g = tmp_path / "g.txt"
    h = tmp_path / "h.txt"
    assert run("gen", "--family", "path", "--n", "4", "--seed", "0",
               "--out", str(g)) == 0
    h.write_text(text)
    capsys.readouterr()
    assert run("verify", "--graph", str(g), "--edges", str(h),
               "--mode", "shortcut", "--diameter", "2") == code
    assert err in capsys.readouterr().err


def test_gen_subdivide(tmp_path):
    g = tmp_path / "gk.txt"
    assert run("gen", "--family", "path", "--n", "4", "--k", "2",
               "--seed", "0", "--out", str(g)) == 0
    header = next(
        line for line in g.read_text().splitlines() if not line.startswith("#")
    )
    assert header.split() == ["12", "11"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "random_dag", "--n", "1000000", "--p", "0.000001"],
        ["--family", "weighted_random", "--n", "200000", "--p", "0.01", "--W", "5"],
        ["--family", "path", "--n", "10", "--k", "1000000000000"],
    ],
)
def test_gen_above_vertex_ceiling_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "g.txt"
    assert run("gen", *flags, "--seed", "0", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex count ") and "Traceback" not in err
    assert not out.exists()


def test_decomp_prints_chains(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert run("gen", "--family", "path", "--n", "16", "--seed", "0",
               "--out", str(g)) == 0
    capsys.readouterr()
    assert run("decomp", "--input", str(g), "--ell", "4") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["chain: " + " ".join(map(str, range(16)))]


@pytest.mark.parametrize(
    "text, note",
    [
        ("4 3\n0 1\n1 2\n2 3\n", None),
        ("4 5\n0 1\n1 1\n0 1\n1 2\n2 3\n",
         "dropped 1 self-loop(s) and 1 duplicate edge(s)"),
        ("5 3\n10 11\n11 12\n12 13\n",
         "vertex ids renumbered, n=5 -> n=4; new ids follow the sorted order"
         " of the original ids; original ids by new id: 10 11 12 13\n"),
        ("4 3\n0 99999999999999999999\n99999999999999999999 100000000000000000000\n"
         "100000000000000000000 100000000000000000001\n",
         "vertex ids renumbered, n=4 -> n=4"),
    ],
    ids=["valid", "dropped", "renumbered", "renumbered_past_int64"],
)
def test_input_changes_reported_on_stderr(tmp_path, capsys, text, note):
    g = tmp_path / "g.txt"
    g.write_text(text)
    assert run("decomp", "--input", str(g), "--ell", "2") == 0
    cap = capsys.readouterr()
    assert cap.out == "chain: 0 1 2 3\n"
    if note is None:
        assert cap.err == ""
    else:
        assert note in cap.err
        assert len(cap.err.splitlines()) == 1


def test_tcspanner_mode_tags_backbone(tmp_path):
    g = tmp_path / "g.txt"
    h = tmp_path / "h.txt"
    assert run("gen", "--family", "random_dag", "--n", "32", "--p", "0.3",
               "--seed", "2", "--out", str(g)) == 0
    assert run("shortcut", "--input", str(g), "--diameter", "4",
               "--mode", "tcspanner", "--seed", "2", "--out", str(h)) == 0
    tags = {
        line.split()[-1]
        for line in h.read_text().splitlines()
        if line and not line.startswith("#") and len(line.split()) == 3
    }
    assert "baseline" in tags


class TestBench:
    def rows_of(self, path) -> list[dict]:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_single_cell(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "algorithm=small_diam family=random_dag n=64 p=0.15 D=4 seeds=3\n"
        )
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        rows = self.rows_of(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "small_diam"
        assert int(row["edges_total"]) > 0
        assert int(row["achieved_diameter"]) <= 4
        assert row["beta"] == ""

    def test_grid_two_d_three_seeds(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "# comment lines and blanks are fine\n"
            "\n"
            "algorithm=folklore family=random_dag n=48 p=0.2 D=4,6 c=3 seeds=0:3\n"
        )
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        rows = self.rows_of(out)
        assert len(rows) == 6
        assert [(r["D"], r["seed"]) for r in rows] == [
            ("4", "0"), ("4", "1"), ("4", "2"),
            ("6", "0"), ("6", "1"), ("6", "2"),
        ]

    def test_hopset_cell(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "algorithm=hopset_small family=weighted_random n=40 p=0.2 W=8"
            " beta=12 eps=1/4 seeds=1\n"
        )
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        row = self.rows_of(out)[0]
        assert row["beta"] == "12"
        assert row["eps"] == "1/4"
        assert row["achieved_hops"] == "12"
        assert row["D"] == ""

    @pytest.mark.parametrize(
        "line, lineno, message",
        [
            ("algorithm=small_diam family=random_dag\n", 1, "missing key 'n'"),
            ("x\nalgorithm=nope family=random_dag n=8 D=4\n", 1, "expected key=value, got 'x'"),
            ("# fine\nalgorithm=small_diam family=random_dag n=8 D=4 w0t=1\n", 2,
             "unknown key 'w0t'"),
            ("algorithm=hopset_small family=random_dag n=8 beta=12 eps=1/4\n", 1,
             "hopset_small needs family=weighted_random"),
            ("algorithm=small_diam family=random_dag n=abc D=4\n", 1,
             "invalid literal for int() with base 10: 'abc'"),
            ("# fine\nalgorithm=small_diam family=random_dag n=8 D=x\n", 2,
             "invalid literal for int() with base 10: 'x'"),
            ("algorithm=small_diam family=random_dag n=8 D=4 seeds=\n", 1,
             "invalid literal for int() with base 10: ''"),
            ("\nalgorithm=small_diam family=random_dag n=8 D=4 W=\n", 2,
             "invalid literal for int() with base 10: ''"),
            ("algorithm=small_diam family=random_dag n=8 p= D=4\n", 1,
             "could not convert string to float: ''"),
            ("algorithm=small_diam family=random_dag n=8 D=4 c=\n", 1,
             "could not convert string to float: ''"),
            ("algorithm=hopset_small family=weighted_random n=8 beta=12 eps=\n", 1,
             "Invalid literal for Fraction: ''"),
            ("algorithm=hopset_small family=weighted_random n=8 beta=12 eps=1/0\n", 1,
             "eps '1/0' has a zero denominator"),
            ("algorithm=small_diam family=random_dag n=64 p=0.15 D=4 seeds=0:1\n"
             "algorithm=small_diam family=random_dag n=64 p=0.15 D=4 seeds=5:5\n", 2,
             "seeds=5:5 is an empty range"),
            ("algorithm=small_diam family=random_dag n=64 p=0.15 D=4 c=0\n", 1,
             "'0' is not a finite number > 0"),
            ("# fine\nalgorithm=small_diam family=random_dag n=64 p=0.15 D=4 c=3,nan\n", 2,
             "'nan' is not a finite number > 0"),
            # Fails before any cell runs: D=5 is outside [3, 4] at n=64.
            ("# fine\nalgorithm=small_diam family=random_dag n=64 p=0.15 D=4,5\n", 2,
             "diameter target 5 outside [3, 4]"),
            ("algorithm=large_d family=random_dag n=216 p=0.05 D=5\n", 1,
             "diameter target 5 below floor(n^(1/3)) = 6"),
            ("algorithm=folklore family=random_dag n=64 p=0.15 D=0\n", 1,
             "diameter target must be >= 1, got 0"),
            ("algorithm=hopset_small family=weighted_random n=8 p=0.5 W=4 beta=11 eps=1/4\n", 1,
             "hop budget must be >= 12, got 11"),
            ("algorithm=hopset_small family=weighted_random n=8 p=0.5 W=4 beta=12 eps=3/2\n", 1,
             "eps must lie in (0, 1), got 3/2"),
            ("# fine\nalgorithm=hopset_large family=weighted_random n=600 p=0.01 W=4 beta=7 eps=1/4\n",
             2, "hop budget 7 below max(12, floor(n^(1/4)))"),
            ("algorithm=folklore family=random_dag n=1000000 p=0.000001 D=8\n", 1,
             "vertex count 1000000 exceeds the supported ceiling of 4096"),
        ],
    )
    def test_config_errors_carry_line_numbers(self, tmp_path, capsys, line, lineno, message):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(line)
        assert run("bench", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: config line {lineno}: {message}\n"

    @staticmethod
    def bench_after_five_cells(tmp_path, monkeypatch, line: str) -> tuple[int, list]:
        """Exit code and the cells run, for five good cells followed by ``line``."""
        ran = []
        real = cli._run_bench_cell
        monkeypatch.setattr(cli, "_run_bench_cell", lambda *cell: ran.append(cell) or real(*cell))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("algorithm=small_diam family=random_dag n=216 p=0.05 D=6 seeds=0:5\n" + line)
        return run("bench", "--config", str(cfg)), ran

    def test_bad_last_line_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        line = "algorithm=small_diam family=random_dag n=216 p=0.05 D=9\n"
        assert self.bench_after_five_cells(tmp_path, monkeypatch, line) == (2, [])
        err = capsys.readouterr().err
        assert err == "error: config line 2: diameter target 9 outside [3, 6]\n"

    def test_vertex_count_past_the_ceiling_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        line = "algorithm=small_diam family=random_dag n=5000 p=0.001 D=9\n"
        assert self.bench_after_five_cells(tmp_path, monkeypatch, line) == (2, [])
        err = capsys.readouterr().err
        assert err == "error: config line 2: vertex count 5000 exceeds the supported ceiling of 4096\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("family=random_dag n=0 p=0.05", "n must be >= 1, got 0"),
            ("family=random_dag n=216 density=-1", "density -1.0 must be >= 0"),
            ("family=random_dag n=216 p=1.5", "edge probability 1.5 outside [0, 1]"),
            ("family=path n=216 p=0.1", "family 'path' takes no edge probability"),
            ("family=random_dag n=216 p=0.05 W=3", "family 'random_dag' takes no weight bound"),
        ],
    )
    def test_bad_spec_runs_no_cell(self, tmp_path, capsys, monkeypatch, spec, message):
        line = f"algorithm=small_diam {spec} D=6\n"
        assert self.bench_after_five_cells(tmp_path, monkeypatch, line) == (2, [])
        assert capsys.readouterr().err == f"error: config line 2: {message}\n"

    def test_cyclic_family_range_waits_for_the_condensation(self, tmp_path):
        # n=216 would need D >= 6 for large_d, but this random_digraph
        # condenses to 5 vertices, where D=3 is in range
        cfg = tmp_path / "bench.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text("algorithm=large_d family=random_digraph n=216 p=0.02 D=3 seeds=0\n")
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        assert len(self.rows_of(out)) == 1

    def test_median_small_beats_folklore(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            "algorithm=small_diam family=random_dag n=216 p=0.05 D=6 c=3 seeds=0:5\n"
            "algorithm=folklore family=random_dag n=216 p=0.05 D=6 c=3 seeds=0:5\n"
        )
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        rows = self.rows_of(out)
        small = [int(r["edges_total"]) for r in rows if r["algorithm"] == "small_diam"]
        folk = [int(r["edges_total"]) for r in rows if r["algorithm"] == "folklore"]
        assert len(small) == len(folk) == 5
        assert statistics.median(small) < statistics.median(folk)
