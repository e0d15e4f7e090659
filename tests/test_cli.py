import importlib.util
import json
import sys
import time
from fractions import Fraction
from math import factorial, isclose
from pathlib import Path

import pytest

import ngbounds.verify
from ngbounds import ExtremalRecord, Graph, emit_coloring, emit_graph6, leading_term_bound, multicolor_upper_bound
from ngbounds.cli import main
from ngbounds.verify import SUITES, Report

from helpers import complement, cycle_graph, profile_by_scan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_INPUTS = PERFBENCH / "inputs"


def _bench_workloads():
    """perfbench's operation table, imported without writing bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _bench_references():
    """(op, committed reference) for every benchmark operation with a committed output."""
    bench = _bench_workloads()
    refs = []
    for workload in bench.WORKLOADS:
        expected = json.loads((BENCH_INPUTS / workload / bench.EXPECTED).read_text(encoding="utf-8"))
        for op in bench.ops(workload, bench.DEFAULT_SEED, BENCH_INPUTS / workload):
            if op.id in expected:
                refs.append((op, expected[op.id]))
    return refs


BENCH_REFERENCES = _bench_references()


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


@pytest.mark.parametrize("op, expected", BENCH_REFERENCES, ids=[op.id for op, _ in BENCH_REFERENCES])
def test_benchmark_operation_replays_its_committed_reference(capsys, op, expected):
    if op.call:  # a direct call: its repr is the reference, as perfbench prints it
        name, args = op.call
        result = (0, repr(getattr(ngbounds.verify, name)(*args)) + "\n", "")
    else:
        result = run(capsys, *op.argv)
    assert result == (expected["exit"], expected["stdout"], "")


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("compress", "--graph6", "?"), "pivots 0\ncode (none)\npi 1 -> 1\n"),
        (("compress", "--graph6", "@"), "pivots 0\ncode \npi 4 -> 4\n"),
        (("bounds", "--n", "1"), "split_3 0.640388203202\npeak_3 0.077460543678\nleading_bound(n=1) 2.151682e-03\n"
         "pi_upper(n=1) 4\ncode_joined \ncode_disjoint \n"),
        (("bounds", "--n", "2", "--t", "4"), "split_4 0.607625218511\npeak_4 0.023245461350\n"
         "leading_bound(n=2) 1.033132e-02\npi_upper(n=2) 12\ncode_joined -\ncode_disjoint +\n"),
    ],
    ids=["compress-0-vertices", "compress-1-vertex", "bounds-n1", "bounds-n2-t4"],
)
def test_code_lines_at_the_smallest_sizes(capsys, argv, stdout):
    assert run(capsys, *argv) == (0, stdout, "")


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


def test_count_and_bounds_print_the_scanned_size_counts_of_every_small_graph(capsys):
    # both commands index the clique and independent-set profiles at t; bounds prints 0 once t passes n
    for n in range(5):
        for mask in range(1 << n * (n - 1) // 2):
            g = Graph.from_edge_mask(n, mask)
            g6, kp, ip = emit_graph6(g), profile_by_scan(g), profile_by_scan(complement(g))
            for t in range(n + 1):
                code, out, _ = run(capsys, "count", "--graph6", g6, "--t", str(t))
                kt, it = kp[t], ip[t]
                sized = [f"k_{t} {kt}", f"i_{t} {it}", f"sigma_{t} {kt + it}", f"pi_{t} {kt * it}"]
                assert (code, out.splitlines()[-4:]) == (0, sized)
            for t in range(3, n + 3):
                code, out, _ = run(capsys, "bounds", "--graph6", g6, "--n", str(n), "--t", str(t))
                assert (code, out.splitlines()[-1]) == (0, f"instance_pi_{t} {kp[t] * ip[t] if t <= n else 0}")


def test_bounds_rejects_bad_sizes_before_printing(capsys):
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", "5", "--r", "1")
    assert (code, out) == (2, "") and "colors" in err
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", "-1")
    assert (code, out) == (2, "") and "n=-1" in err
    code, out, err = run(capsys, "bounds", "--t", "2", "--n", "5")
    assert (code, out) == (2, "") and "t >= 3" in err


def test_bounds_rejects_an_unprintable_r_before_printing(capsys):
    for r in ("41", "100"):  # 41 is built and measured; at 100, r(r-1) alone rules it out
        code, out, err = run(capsys, "bounds", "--t", "3", "--n", "9", "--r", r)
        assert (code, out) == (2, "")
        assert f"--r {r} is too large" in err
    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", "9", "--r", "40")
    assert code == 0
    assert out.splitlines()[-3] == f"product_upper(r=40) {multicolor_upper_bound(9, 40)}"


def test_bounds_rejects_an_unprintable_n_before_printing(capsys):
    limit = sys.get_int_max_str_digits()
    last = 10 * limit // 3  # 2^(10/3) > 10, so pi_upper(n) >= 10^limit from here on
    while (last + 1) * 2**last >= 10**limit:
        last -= 1
    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", str(last))
    assert code == 0
    assert out.splitlines()[3] == f"pi_upper(n={last}) {(last + 1) * 2**last}"
    for n in (last + 1, 10 * limit // 3, 10**18):  # the last one is refused before 2^n is built
        code, out, err = run(capsys, "bounds", "--t", "3", "--n", str(n))
        assert (code, out) == (2, "")
        assert f"--n {n} is too large" in err
    code, out, err = run(capsys, "bounds", "--t", "3", "--n", str(last), "--r", "2")
    assert (code, out) == (2, "")
    assert f"--r 2 is too large for --n {last}" in err


def test_bounds_refuses_colors_on_zero_vertices_before_printing(capsys):
    # product_upper would read 0 there, though the lone 0-vertex family has product 1
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 0):  # 0 turns the digit limit off
            sys.set_int_max_str_digits(digits)
            for r in ("2", "3", "7"):
                code, out, err = run(capsys, "bounds", "--t", "3", "--n", "0", "--r", r)
                assert (code, out) == (2, "")
                assert "needs n >= 1, got n=0" in err
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run(capsys, "bounds", "--t", "3", "--n", "0")
    head = "split_3 0.640388203202\npeak_3 0.077460543678\n"
    assert (code, out) == (0, head + "leading_bound(n=0) 0.000000e+00\npi_upper(n=0) 1\n")


def test_bounds_refuses_a_leading_term_past_float_range_before_printing(capsys):
    code, out, err = run(capsys, "bounds", "--t", "60", "--n", "14270")
    assert (code, out) == (2, "")
    assert "leading_bound(n=14270) overflows" in err
    code, out, _ = run(capsys, "bounds", "--t", "60", "--n", "100")
    assert code == 0 and out.splitlines()[2].startswith("leading_bound(n=100) ")


def test_bounds_prints_every_positive_peak_to_seven_significant_digits(capsys):
    # fixed point down to 1e-6 and scientific below it; in fixed point alone
    # the peak read 0.000000000000 from t = 23 on
    for t in range(3, 89):  # t = 89 is the first size whose leading bound underflows at n = 1
        code, out, _ = run(capsys, "bounds", "--t", str(t), "--n", "1")
        line = out.splitlines()[1]
        assert code == 0 and line.startswith(f"peak_{t} ")
        peak = float(line.split()[1])
        assert peak > 0 and isclose(peak, leading_term_bound(t)[1], rel_tol=1e-6)


def test_bounds_refuses_an_unprintable_t_before_any_work(capsys):
    # leading_bound builds n^t and t! as exact ints: past the digit limit a large t ran for
    # minutes and then printed a leading bound of 0
    limit = sys.get_int_max_str_digits()
    last = 3
    while factorial(last + 1) < 10**limit:
        last += 1
    code, out, _ = run(capsys, "bounds", "--t", str(last), "--n", "0")  # n = 0: the bound is exactly 0, no underflow
    assert code == 0 and out.splitlines()[0].startswith(f"split_{last} ")
    for n, t in ((0, last + 1), (10, 3_000_000), (10, 10**18), (14000, 1100)):  # 14000^1100 has 4,562 digits
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--t", str(t), "--n", str(n))
        assert (code, out) == (2, "")
        assert f"--t {t} is too large for --n {n}: {n}^{t} or {t}! has more than {limit} digits" in err
        assert time.perf_counter() - start < 1


def test_bounds_refuses_a_leading_term_that_underflows_before_printing(capsys):
    # the bound is positive for every n >= 1; past float range it used to print as 0
    for n, t in ((10, 200), (1, 170)):
        code, out, err = run(capsys, "bounds", "--t", str(t), "--n", str(n))
        assert (code, out) == (2, "")
        assert f"--t {t} is too large for --n {n}: leading_bound(n={n}) underflows a float" in err
    code, out, _ = run(capsys, "bounds", "--t", "60", "--n", "3")
    assert code == 0 and out.splitlines()[2] == "leading_bound(n=3) 1.210426e-141"
    code, out, _ = run(capsys, "bounds", "--t", "200", "--n", "0")  # exactly 0, so not refused
    assert code == 0 and out.splitlines()[2] == "leading_bound(n=0) 0.000000e+00"


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


def test_verify_borders_refuses_an_out_of_range_n_max_before_scanning(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned before checking --n-max")

    # the suite reads every rectangle from one table: building it is the scan
    monkeypatch.setattr("ngbounds.packing._pareto_table", no_scan)
    for n_max in ("25", "-1"):
        code, out, err = run(capsys, "verify", "borders", "--t", "3", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert f"0 <= n_max <= 24, got {n_max}" in err


def test_verify_borders_refuses_an_unprintable_t_before_scanning(capsys):
    # every value is printed as a Fraction over (t!)^2; a t past the digit limit
    # used to end in Python's own int-to-str message
    limit = sys.get_int_max_str_digits()
    for t in ("1500", "20000", "1"):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "borders", "--t", t)
        assert (code, out) == (2, "")
        last = int(err.split("2 <= t <= ", 1)[1].split(",", 1)[0])
        assert err == f"error: --t: the borders suite needs 2 <= t <= {last}, got {t}\n"
        assert time.perf_counter() - start < 1
    assert factorial(last) ** 2 < 10**limit <= factorial(last + 1) ** 2
    code, out, _ = run(capsys, "verify", "borders", "--t", str(last), "--n-max", "2")
    assert code == 0 and out.endswith("borders: PASS\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("borders", "--seed", "99", "--trials", "5", "--shards", "7"), "--trials"),
        (("borders", "--seed", "1"), "--seed"),
        (("compression", "--t", "3"), "--t"),
        (("thresholds", "--shards", "2"), "--shards"),
        (("extremal", "--seed", "1"), "--seed"),
        (("multicolor", "--n-max", "4"), "--n-max"),
    ],
    ids=["borders-three", "borders-seed", "compression-t", "thresholds-shards", "extremal-seed", "multicolor-n-max"],
)
def test_verify_refuses_options_its_suite_ignores(capsys, argv, option):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"{option} does not apply to the {argv[0]} suite" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv, bounds",
    [
        (("thresholds", "--n-max", "0"), "1 <= n_max <= 62, got 0"),
        (("thresholds", "--n-max", "63", "--trials", "3"), "1 <= n_max <= 62, got 63"),
        (("thresholds", "--n-max", "63", "--trials", "300"), "1 <= n_max <= 62, got 63"),
        (("compression", "--n-max", "1"), "2 <= n_max <= 62, got 1"),
        (("compression", "--n-max", "63"), "2 <= n_max <= 62, got 63"),
        (("extremal", "--n-max", "0"), "1 <= n_max <= 7, got 0"),
        (("extremal", "--n-max", "8"), "1 <= n_max <= 7, got 8"),
    ],
    ids=["thresholds-0", "thresholds-63-trials-3", "thresholds-63-trials-300", "compression-1", "compression-63",
         "extremal-0", "extremal-8"],
)
def test_verify_suites_refuse_an_out_of_range_n_max_before_any_work(capsys, monkeypatch, argv, bounds):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --n-max")

    monkeypatch.setattr("ngbounds.verify.rng_for", no_work)
    monkeypatch.setattr("ngbounds.verify.exhaustive_extremal", no_work)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"--n-max: the {argv[0]} suite needs {bounds}" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "suite, trials", [("compression", "-3"), ("thresholds", "-2"), ("multicolor", "-1"), ("multicolor", "0")]
)
def test_verify_suites_refuse_a_trial_count_below_one_before_any_work(capsys, monkeypatch, suite, trials):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --trials")

    monkeypatch.setattr("ngbounds.verify.rng_for", no_work)
    code, out, err = run(capsys, "verify", suite, "--trials", trials)
    assert (code, out) == (2, "")
    assert f"--trials: the {suite} suite needs trials >= 1, got {trials}" in err


def test_verify_extremal_refuses_zero_shards_before_any_scan(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before checking --shards")

    monkeypatch.setattr("ngbounds.verify.exhaustive_extremal", no_scan)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "extremal", "--n-max", "7", "--shards", "0")
    assert (code, out) == (2, "")
    assert "needs shards >= 1, got 0" in err
    assert time.perf_counter() - start < 0.5


def test_verify_suites_accept_the_ends_of_their_n_max_range(capsys):
    for argv in (("compression", "--n-max", "2"), ("thresholds", "--n-max", "1"), ("extremal", "--n-max", "1")):
        code, out, _ = run(capsys, "verify", *argv, *(("--trials", "20") if argv[0] != "extremal" else ()))
        assert code == 0 and out.endswith(f"{argv[0]}: PASS\n")
    code, out, _ = run(capsys, "verify", "thresholds", "--n-max", "62", "--trials", "20", "--seed", "5")
    assert code == 0 and "n <= 62" in out


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


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda vertices, colors: (vertices[:-1], colors[:-1]) if vertices else None,
        lambda vertices, colors: (vertices, (1 - colors[0],) + colors[1:]) if colors else None,
    ],
    ids=["one-vertex-short", "flipped-color"],
)
def test_verify_multicolor_reports_an_invalid_certificate_with_its_coloring(capsys, monkeypatch, corrupt):
    greedy, blobs = ngbounds.verify.good_sequence_certificate, []

    def corrupted(fam):
        cert = greedy(fam)
        bad = corrupt(*cert)
        if bad is None:  # n < r leaves no vertex to drop, n < r^2 no color to flip
            return cert
        blobs.append(emit_coloring(fam))
        return bad

    monkeypatch.setattr("ngbounds.verify.good_sequence_certificate", corrupted)
    code, out, _ = run(capsys, "verify", "multicolor", "--trials", "10")
    assert code == 1 and out.endswith("multicolor: FAIL\n")
    violations = [line for line in out.splitlines() if line.startswith("VIOLATION: ")]
    assert blobs and len(violations) == len(blobs)
    assert all(line.startswith("VIOLATION: greedy certificate invalid at n=") for line in violations)
    assert out.split("counterexample:\n")[1:] == [blob + "\n" for blob in blobs[:-1]] + [blobs[-1] + "\nmulticolor: FAIL\n"]


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


def test_extremal_exits_1_when_a_witness_does_not_re_evaluate(capsys, monkeypatch):
    witnesses = (emit_graph6(Graph.empty(3)), emit_graph6(Graph.complete(3)))
    one_off = ExtremalRecord(3, "pi", "max", None, 33, witnesses, 2)  # both witnesses have pi = 32
    monkeypatch.setattr("ngbounds.cli.exhaustive_extremal", lambda *args, **kwargs: one_off)
    code, out, err = run(capsys, "extremal", "--n", "3", "--quantity", "pi")
    assert code == 1
    header = "n,quantity,direction,t,shard,value,total_witnesses,witnesses"
    assert out == f"{header}\n3,pi,max,,,33,2,{';'.join(witnesses)}\n"
    assert err == "witness re-evaluation failed\n"


def test_extremal_quantity_defaults_to_pi_for_graphs_and_product_for_colorings(capsys):
    for argv, quantity in ((("--n", "3"), "pi"), (("--n", "3", "--coloring-r", "2"), "product")):
        code, out, _ = run(capsys, "extremal", *argv)
        assert code == 0 and out.splitlines()[1].startswith(f"3,{quantity},max,")
        assert run(capsys, "extremal", *argv, "--quantity", quantity) == (0, out, "")
    code, out, err = run(capsys, "extremal", "--n", "3", "--coloring-r", "2", "--quantity", "pi")
    assert (code, out, err) == (2, "", "error: unknown coloring quantity 'pi'\n")


def test_extremal_refuses_an_unprintable_coloring_value_before_printing(capsys):
    # the product 2^20000 has 6,021 digits, past Python's int-to-str limit
    code, out, err = run(capsys, "extremal", "--n", "1", "--coloring-r", "20000", "--quantity", "product")
    assert (code, out) == (2, "")
    assert "--coloring-r 20000 is too large" in err
    code, out, _ = run(capsys, "extremal", "--n", "1", "--coloring-r", "20000", "--quantity", "sum")
    assert code == 0 and out.splitlines()[1].split(",")[5] == "40000"


@pytest.mark.parametrize("argv", [("--n", "2", "--coloring-r", "2000000"), ("--n", "1", "--coloring-r", "1000000000")])
def test_extremal_refuses_coloring_scans_past_the_work_cap(capsys, argv):
    code, out, err = run(capsys, "extremal", *argv, "--quantity", "product")
    assert (code, out) == (2, "")
    assert "past the cap" in err


def test_count_coloring_refuses_an_unprintable_product_before_printing(tmp_path, capsys):
    # 9,099 two-vertex members without an edge and one with it: the product 4 * 3^9099 has 4,342 digits
    path = tmp_path / "fam.txt"
    path.write_text("2 9100\n0 1 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--coloring", str(path))
    assert (code, out) == (2, "")
    assert "product has more than" in err
    assert time.perf_counter() - start < 1


def test_count_coloring_refuses_a_huge_product_without_counting_it(tmp_path, capsys):
    # 65,535 edgeless members count in closed form, and the lower bound 63^65536 on
    # the product refuses it before the product is built
    path = tmp_path / "fam.txt"
    path.write_text("62 65536\n0 1 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--coloring", str(path))
    assert (code, out) == (2, "")
    assert "product has more than" in err
    assert time.perf_counter() - start < 1


def test_count_coloring_prints_a_product_just_under_the_digit_limit(tmp_path, capsys):
    # one vertex, no pairs: every member has the 2 cliques of K_1, and 2^14284 has
    # 4,300 digits, the most that prints; one color more is refused
    path = tmp_path / "fam.txt"
    path.write_text("1 14284\n")
    code, out, _ = run(capsys, "count", "--coloring", str(path))
    assert code == 0 and out.splitlines()[-1] == f"product {2**14284}"
    path.write_text("1 14285\n")
    assert run(capsys, "count", "--coloring", str(path))[:2] == (2, "")


def test_count_coloring_refuses_a_header_past_the_color_cap(tmp_path, capsys):
    # without the cap this header would build 10^8 graphs, tens of GB
    path = tmp_path / "fam.txt"
    path.write_text("3 100000000\n0 1 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--coloring", str(path))
    assert (code, out) == (2, "")
    assert "line 1:" in err and "1 <= r <= 65536, got n=3 r=100000000" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "extra,option",
    [(("--t", "3"), "--t"), (("--shards", "4", "--shard", "1"), "--shard"), (("--shard", "0"), "--shard"),
     (("--shards", "2"), "--shards")],
)
def test_extremal_coloring_refuses_graph_options_before_printing(capsys, extra, option):
    code, out, err = run(capsys, "extremal", "--n", "4", "--coloring-r", "3", "--quantity", "sum", *extra)
    assert (code, out) == (2, "")
    assert f"{option} applies to graph scans" in err
    code, out, _ = run(capsys, "extremal", "--n", "4", "--coloring-r", "3", "--quantity", "sum", "--shards", "1")
    assert code == 0 and out.splitlines()[1].split(",")[5] == "26"


EXPONENT_CSV = """trial,pi,ratio
0,25179,0.957817778
1,16356,0.917041479
2,18944,0.930925381
3,23850,0.952692465
4,26820,0.963785380
"""
EXPONENT_SUMMARY = "# n=15 trials=5 min=0.917041 median=0.952692 max=0.963785\n"


def test_exponent_csv(tmp_path, capsys):
    out_path = tmp_path / "ratios.csv"
    code, out, err = run(
        capsys, "exponent", "--n", "15", "--trials", "5", "--seed", "9", "--out", str(out_path)
    )
    assert (code, out, err) == (0, "", EXPONENT_SUMMARY)
    assert out_path.read_bytes() == EXPONENT_CSV.encode("ascii")

    code, stdout, err = run(capsys, "exponent", "--n", "15", "--trials", "5", "--seed", "9")
    assert (code, stdout, err) == (0, EXPONENT_CSV, EXPONENT_SUMMARY)


def test_readme_quick_start_runs_and_prints_what_its_comments_state(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[:2] == ["22 121", "True"]
    assert lines[2].startswith("0.6403882032022076 100388864.607")
    assert lines[3] == "27/2 True"
