from fractions import Fraction

import pytest

from ngbounds import Graph, emit_graph6
from ngbounds.cli import main
from ngbounds.verify import SUITES, Report

from helpers import cycle_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_graph6(capsys):
    code, out, _ = run(capsys, "count", "--graph6", "Bw", "--t", "2")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["sigma"] == "12"
    assert lines["pi"] == "32"
    assert lines["k_2"] == "3"
    assert lines["i_2"] == "0"


def test_count_rejects_bad_graph6(capsys):
    code, _, err = run(capsys, "count", "--graph6", "A" + chr(200))
    assert code == 2
    assert "byte" in err


def test_count_rejects_out_of_range_t(capsys):
    code, out, err = run(capsys, "count", "--graph6", "Bw", "--t", "9")
    assert code == 2
    assert "t=9" in err
    assert out == ""
    code, out, err = run(capsys, "count", "--graph6", "Bw", "--t", "2", "--t", "-1")
    assert (code, out) == (2, "")
    assert "t=-1" in err


def test_count_coloring_file(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("3 2\n")  # empty partial family on 3 vertices
    code, out, _ = run(capsys, "count", "--coloring", str(path))
    assert code == 0
    assert "product 16" in out
    assert "total no" in out


def test_count_coloring_error_names_line(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("3 2\n0 1 1\n0 1 2\n")
    code, _, err = run(capsys, "count", "--coloring", str(path))
    assert code == 2
    assert "line 3" in err


def test_count_coloring_rejects_huge_header(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("100 2\n")
    code, out, err = run(capsys, "count", "--coloring", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: line 1")


def test_count_coloring_rejects_t(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("3 2\n0 1 1\n")
    code, out, err = run(capsys, "count", "--coloring", str(path), "--t", "9")
    assert (code, out) == (2, "")
    assert "--t" in err


def test_compress_command(tmp_path, capsys):
    g6 = emit_graph6(cycle_graph(4))
    code, out, _ = run(capsys, "compress", "--graph6", g6)
    assert code == 0
    assert "code " in out
    assert "pivots " in out
    assert "compress " in out

    path = tmp_path / "g.g6"
    path.write_text(g6 + "\n")
    code2, out2, _ = run(capsys, "compress", "--graph6-file", str(path))
    assert code2 == 0 and out2 == out


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", "100")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert abs(float(lines["split_3"]) - 0.640388203202) < 1e-9
    assert lines["pi_upper(n=100)"] == str(101 * 2**100)
    assert "code_joined" in lines

    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", "9", "--r", "3")
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["certificate_bound(r=3)"] == str(Fraction(27, 2))
    assert lines["construction_floor(r=3)"] == str(2**9 * 3**3)
    assert lines["certificate_counts"] == "9,3"


def test_bounds_two_color_upper(capsys):
    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", "5", "--r", "2")
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["pi_upper(n=5)"] == "192"


def test_bounds_with_instance(capsys):
    g6 = emit_graph6(Graph.complete(5))
    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", "5", "--graph6", g6)
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["instance_pi"] == "192"
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", "4", "--graph6", g6)
    assert code == 2 and "vertices" in err
    assert out == ""
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", "5", "--graph6", "D")
    assert (code, out) == (2, "") and "input error" in err


def test_bounds_rejects_bad_sizes_before_printing(capsys):
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", "5", "--r", "1")
    assert (code, out) == (2, "") and "colors" in err
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", "-1")
    assert (code, out) == (2, "") and "n=-1" in err
    code, out, err = run(capsys, "bounds", "--t", "2", "--n", "5")
    assert (code, out) == (2, "") and "t >= 3" in err


def test_verify_known_suite(capsys):
    code, out, _ = run(capsys, "verify", "borders", "--t", "3", "--n-max", "3")
    assert code == 0
    assert out.strip().endswith("borders: PASS")
    code, out, _ = run(capsys, "verify", "extremal", "--n-max", "3")
    assert code == 0 and "extremal: PASS" in out


def test_verify_borders_reports_the_small_square_artifact(capsys):
    # the scaled-objective maximum at total size 4 sits on a two-turn path
    # (280/36 at the balanced rectangle vs 256/36 for the best one-turn path),
    # so the suite flags it; from size 5 on the one-turn claim holds
    code, out, _ = run(capsys, "verify", "borders", "--t", "3", "--n-max", "5")
    assert code == 1
    assert "n=4" in out and "2 turns" in out


def test_verify_small_randomized_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "compression", "--trials", "50", "--n-max", "8", "--seed", "7"
    )
    assert code == 0 and "compression: PASS" in out
    code, out, _ = run(capsys, "verify", "thresholds", "--trials", "50", "--seed", "3")
    assert code == 0 and "thresholds: PASS" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_reports_violations_with_exit_one(capsys):
    def broken_suite():
        rep = Report("broken")
        rep.fail("synthetic violation", "Bw")
        return rep

    SUITES["broken"] = broken_suite
    try:
        code, out, _ = run(capsys, "verify", "broken")
    finally:
        del SUITES["broken"]
    assert code == 1
    assert "VIOLATION" in out
    assert "counterexample" in out
    assert "Bw" in out


def test_extremal_command(capsys):
    code, out, _ = run(capsys, "extremal", "--n", "3", "--quantity", "pi", "--direction", "max")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,quantity,direction")
    fields = row.split(",")
    assert fields[0] == "3" and fields[5] == "32"
    assert set(fields[7].split(";")) == {emit_graph6(Graph.complete(3)), emit_graph6(Graph.empty(3))}

    # single-shard partial record
    code, out, _ = run(
        capsys, "extremal", "--n", "4", "--quantity", "sigma_t", "--t", "2",
        "--direction", "max", "--shards", "4", "--shard", "1",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "1"

    code, out, _ = run(
        capsys, "extremal", "--n", "4", "--quantity", "sum", "--direction", "max",
        "--coloring-r", "3",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[5] == "26"

    code, _, err = run(capsys, "extremal", "--n", "9", "--quantity", "pi")
    assert code == 2 and "capped" in err


def test_exponent_csv(tmp_path, capsys):
    out_path = tmp_path / "ratios.csv"
    code, _, err = run(
        capsys, "exponent", "--n", "15", "--trials", "5", "--seed", "9", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "trial,pi,ratio"
    assert len(lines) == 6
    assert "median=" in err

    code, stdout, _ = run(capsys, "exponent", "--n", "15", "--trials", "5", "--seed", "9")
    assert code == 0
    assert stdout.strip().splitlines() == lines
