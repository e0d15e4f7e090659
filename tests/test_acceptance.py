"""Acceptance suite: one check per shipping criterion, printed pass/fail.

Every expected value is either trivial arithmetic, a closed form verified
by an exact certificate, or a value frozen from the package's brute-force
oracles.  Run with ``pytest tests/test_acceptance.py -v -s``.

Two checks test asymptotic claims at finite size, so they assert what those
claims promise there rather than their limits; their docstrings carry the
exact numbers:

* acceptance 07: the one-turn property of the discrete path objective is
  false at total size 4 (exact rationals: 70/9 on a two-turn path beats the
  best one-turn value 15/2).  What the border reduction does bound is every
  lattice path by the continuous one-turn optimum: 70/9 < 8.813 there.
* acceptance 08b: at n = 60 the exact maximum of k_3 * i_3 over all graphs
  is 87,042,648, 86.71% of the leading term, so the leading term is only
  reached up to a lower-order correction, of first order c_3 / n.
"""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, isfinite, prod, sqrt
from statistics import median

from ngbounds import (
    Graph,
    GraphFamily,
    Tournament,
    count_good_sequences,
    emit_graph6,
    exhaustive_coloring_extremal,
    exhaustive_extremal,
    leading_term_bound,
    multicolor_upper_bound,
    parse_coloring,
    pigeonhole_sequence,
    pi_t,
    product_clique_counts,
    random_pi_exponent,
    tournament_construction,
)
from ngbounds.cli import main
from ngbounds.counting import count_cliques
from ngbounds.graphs import edge_list
from ngbounds.multicolor import _counted_families, count_covering_tuples
from ngbounds.oracle import rng_for
from ngbounds.threshold import build, closed_form_counts, extremal_one_turn_codes
from ngbounds.verify import (
    threshold_code_max,
    verify_borders,
    verify_compression,
    verify_thresholds,
)

from helpers import (
    conjugate,
    exponent_ratios,
    one_turn_slope_identity,
    packed_pair,
    poly_at,
    ratio_polynomial,
    sign_changes,
    split_polynomial,
    two_turn_grid_argmax,
    walk,
    walk_columns,
    walk_heights,
)


def _report(tag: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {tag}: {state}{suffix}")
    return ok


def test_acceptance_01_product_max_scan():
    """Exhaustive n = 1..7: max product is (n+1)2^n, witnesses exactly the
    complete and empty graphs; n = 7 runs in 8 shards within the budget."""
    start = time.time()
    ok = True
    for n in range(1, 8):
        shards = 8 if n == 7 else 1
        rec = exhaustive_extremal(n, "pi", "max", shards=shards)
        expect = {emit_graph6(Graph.complete(n)), emit_graph6(Graph.empty(n))}
        ok &= rec.value == (n + 1) * 2**n
        ok &= set(rec.witnesses) == expect and rec.total_witnesses == len(expect)
        ok &= rec.recheck()
    elapsed = time.time() - start
    ok &= elapsed < 120
    assert _report("01 product-max-scan", ok, f"{elapsed:.1f}s for n=1..7")


def test_acceptance_02_sum_max_scan():
    """Same scan for the sum: max is 2^n + n + 1 with the same witnesses."""
    ok = True
    for n in range(1, 8):
        shards = 8 if n == 7 else 1
        rec = exhaustive_extremal(n, "sigma", "max", shards=shards)
        expect = {emit_graph6(Graph.complete(n)), emit_graph6(Graph.empty(n))}
        ok &= rec.value == 2**n + n + 1
        ok &= set(rec.witnesses) == expect and rec.total_witnesses == len(expect)
    assert _report("02 sum-max-scan", ok)


def test_acceptance_03_compression_monotonicity():
    """10^4 random (graph, x, y) with n <= 12: every fixed-size count is
    monotone under one compression; iterated compression ends at a threshold
    graph within n^2 pivots with the product quantities never decreasing."""
    rep = verify_compression(trials=10_000, n_max=12, seed=7)
    assert _report("03 compression-monotonicity", rep.passed, "; ".join(rep.lines)), rep.lines


def test_acceptance_04_closed_form_counts():
    """10^3 random threshold codes, n <= 16, t in {2,3,4}: the closed-form
    walk sums of the recognized walk equal brute-force counts exactly."""
    rep = verify_thresholds(trials=1000, n_max=16, seed=11)
    assert _report("04 threshold-closed-forms", rep.passed, "; ".join(rep.lines)), rep.lines


def test_acceptance_05_packing_fixture():
    """Packed-pair fixture: packed_pair((0,1,1,3), 3, 4) and conjugate of
    (3,2,2,0) both equal (3,3,1), and so do the '+' columns, seed side
    first, of the walk -+--++-, whose '-' heights are (0,1,1,3)."""
    ok = packed_pair((0, 1, 1, 3), 3, 4) == (3, 3, 1)
    ok &= conjugate((3, 2, 2, 0)) == (3, 3, 1)
    ok &= walk_heights("-+--++-") == (0, 1, 1, 3)
    ok &= walk_columns("-+--++-")[::-1] == (3, 3, 1)
    assert _report("05 packing-fixture", ok)


def test_acceptance_06_boundary_lemma_desk_scale():
    """Exact integer grid search (step 1/1000) attains its maximum on the
    a = 0 or b = 0 boundary for t in {3,4,5}; the interior critical ratio at
    t = 3 is exactly 2, the one positive root of R_3; the closed-form optimal
    split is the maximizer of one_turn_value, bracketed within 1e-12 of the
    root of P_3 by exact signs."""
    ok = True
    for t in (3, 4, 5):
        i, j, _ = two_turn_grid_argmax(t, 1000)
        ok &= i == 0 or j == 0
    ratio = ratio_polynomial(3)
    ok &= ratio[1] < 0 and sign_changes(ratio[1:]) == 1 and poly_at(ratio, 2) == 0
    split = leading_term_bound(3)[0]
    ok &= split == (1 + sqrt(17)) / 8
    p3 = split_polynomial(3)
    delta = Fraction(1, 10**12)
    ok &= sign_changes(p3) == 1
    ok &= poly_at(p3, Fraction(split) - delta) < 0 < poly_at(p3, Fraction(split) + delta)
    ok &= one_turn_slope_identity(3)  # so that root maximizes one_turn_value(3, .)
    assert _report("06 boundary-lemma", ok)


_BORDER_MAX_LINE = re.compile(r"n=(?P<n>\d+): max scaled value (?P<value>[0-9/]+) at rectangle")


def test_acceptance_07_border_reduction():
    """Exhaustive lattice-path maximization for every total size n <= 20:
    no path beats the continuous one-turn optimum (n^3/6)^2 * value, and the
    value is symmetric under swapping the rectangle sides.

    A one-turn lattice path is the continuous one-turn border sampled at
    q = r/n, so its value is exactly (n^3/6)^2 * one_turn_value(3, r/n).
    Paths with more turns can beat those grid samples, but not the optimum
    over q: at total size 4 the maximum 70/9 sits on the two-turn balanced
    path (heights (1,1)) and beats the best one-turn value 15/2, yet stays
    below 8.813.  The report still flags that size as having a two-turn
    argmax; the turn counts are not asserted on.  The tightest size is
    n = 14, with 16200 against 16201.17.
    """
    rep = verify_borders(t=3, n_max=20)
    coefficient = Fraction(leading_term_bound(3)[1])
    maxima = {
        int(m["n"]): Fraction(m["value"]) for m in map(_BORDER_MAX_LINE.match, rep.lines) if m
    }
    ok = sorted(maxima) == list(range(21))
    ok &= not any(line.startswith("VIOLATION: value not symmetric") for line in rep.lines)
    bounds = {n: Fraction(n**3, 6) ** 2 * coefficient for n in maxima}
    ok &= all(maxima[n] <= bounds[n] for n in maxima)
    tight = max((n for n in maxima if n), key=lambda n: maxima[n] / bounds[n])
    detail = f"tightest n={tight}: max {float(maxima[tight]):.2f}, bound {float(bounds[tight]):.2f}"
    assert _report("07 border-reduction", ok, detail), rep.lines


def _one_turn_code_max(n: int, t: int) -> int:
    best = 0
    for k in range(n):
        for display in ("+" * (n - 1 - k) + "-" * k, "-" * (n - 1 - k) + "+" * k):
            best = max(best, pi_t(build(walk(display)), t))
    return best


def test_acceptance_08a_tightness_chain_desk_scale():
    """For n <= 8 and t = 3 the exhaustive maximum of the size-3 product over
    all graphs equals the maximum over threshold codes, a one-turn code
    attains it, and compressing any recorded maximizer lands on another
    maximizer."""
    from ngbounds import compress_to_threshold, parse_graph6
    from ngbounds.threshold import recognize

    ok = True
    for n in range(3, 9):
        rec = exhaustive_extremal(n, "pi_t", "max", t=3)
        code_max, one_turn, _ = threshold_code_max(n, 3)
        ok &= rec.value == code_max == _one_turn_code_max(n, 3)
        ok &= one_turn
        for blob in rec.witnesses:
            squeezed, _ = compress_to_threshold(parse_graph6(blob))
            ok &= recognize(squeezed) is not None
            ok &= pi_t(squeezed, 3) == rec.value
    assert _report("08a tightness-chain", ok)


def test_acceptance_08b_leading_term_at_n60():
    """The one-turn code at the rounded optimal split reaches the leading term
    (n^3/6)^2 * value up to its first-order correction: at n = 60 and along
    n = 60, 120, ..., 960, 1 - c_3/n <= value / lead(n) < 1, and the ratio
    strictly increases.

    The construction's closed form (C(r,3) + s C(r,2)) C(s,3) expands to
    lead(n) (1 - c_3/n + O(1/n^2)) with c_3 = 3/q + 3/((1-q)(1+2q)) ~ 8.342
    at the optimal split q.  At n = 60 its exact size-3 product is
    9520 * 9139 = 87,003,280, 86.67% of lead(60) = 100,388,865 (the floor
    1 - c_3/60 is 86.10%).  The exact maximum over all 60-vertex graphs,
    from a Pareto search over the lattice paths of every threshold graph
    and the compression theorem, is 87,042,648 = 86.71%: no graph reaches a
    fixed fraction like 0.9 of the leading term at this n.
    """
    t = 3
    q, peak = leading_term_bound(t)
    c3 = 3 / q + 3 / ((1 - q) * (1 + 2 * q))

    n = 60
    joined, _ = extremal_one_turn_codes(n, t)
    s_k, s_i = closed_form_counts(joined, t)
    value = s_k * s_i
    # closed form cross-checked against the counting engine
    assert value == pi_t(build(joined), t)

    ratios = {}
    for m in (60, 120, 240, 480, 960):
        s_k, s_i = closed_form_counts(extremal_one_turn_codes(m, t)[0], t)
        ratios[m] = s_k * s_i / ((m**t / factorial(t)) ** 2 * peak)
    ok = all(1 - c3 / m <= ratio < 1 for m, ratio in ratios.items())
    ladder = list(ratios.values())
    ok &= all(a < b for a, b in zip(ladder, ladder[1:]))
    detail = f"exact {value} = {ratios[n]:.4f} of lead({n}), floor {1 - c3 / n:.4f}; "
    detail += f"{ratios[960]:.4f} at n=960"
    assert _report("08b leading-term-n60", ok, detail)


def test_acceptance_09_good_sequence_sandwich():
    """100 random total colorings (n <= 8, r in {2,3}, q <= 3): the good
    sequence count sits between the pigeonhole product and q! times the
    per-color clique-count product.  Zero violations allowed."""
    violations = 0
    for trial in range(100):
        rng = rng_for([2026, trial])
        n = int(rng.integers(2, 9))
        r = int(rng.integers(2, 4))
        q = int(rng.integers(0, min(3, n) + 1))
        fam = GraphFamily(n, r, [int(rng.integers(0, r)) for _ in edge_list(n)])
        low = prod(pigeonhole_sequence(n, r, q))
        mid = count_good_sequences(fam, q)
        high = factorial(q) * product_clique_counts(fam)
        if not low <= mid <= high:
            violations += 1
    assert _report("09 good-sequence-sandwich", violations == 0, f"{violations} violations")


def test_acceptance_10_multicolor_sum_bound():
    """All 3^6 total 3-colorings of the 4-clique: the sum of clique counts is
    at most 26, with equality exactly on the 3 monochromatic colorings."""
    rec = exhaustive_coloring_extremal(4, 3, "sum", "max")
    ok = rec.value == 26 and rec.total_witnesses == 3
    for blob in rec.witnesses:
        fam = parse_coloring(blob)
        ok &= len(set(fam.colors)) == 1
    assert _report("10 multicolor-sum-bound", ok)


def test_acceptance_11_covering_tuple_bounds():
    """Covering-tuple counts and clique-count products never exceed their
    closed-form caps: exhaustively for two colors up to n = 5, and on 10^3
    sampled edge-disjoint three-color families up to n = 6."""
    ok = True
    for n in range(1, 6):
        cap_cover = (4 * 2 - 2) ** (2 * 1) * n ** comb(2, 2)
        cap_prod = multicolor_upper_bound(n, 2)
        colorings = iproduct(range(3), repeat=len(edge_list(n)))
        fams = (GraphFamily(n, 2, [c - 1 if c else None for c in colors]) for colors in colorings)
        # each family's product of clique counts, its members counted in batches
        for fam, counts in _counted_families(fams):
            if count_covering_tuples(fam) > cap_cover or prod(counts) > cap_prod:
                ok = False
    fams = []
    for trial in range(1000):
        rng = rng_for([31337, trial])
        n = int(rng.integers(1, 7))
        draws = [int(rng.integers(0, 4)) for _ in edge_list(n)]
        fams.append(GraphFamily(n, 3, [c - 1 if c else None for c in draws]))
    for fam, counts in _counted_families(fams):
        n = fam.n
        cap_cover = (4 * 3 - 2) ** (3 * 2) * n ** comb(3, 2)
        if count_covering_tuples(fam) > cap_cover:
            ok = False
        if prod(counts) > multicolor_upper_bound(n, 3):
            ok = False
    assert _report("11 covering-tuple-bounds", ok)


def test_acceptance_12_tournament_construction():
    """Three colors, n in {3, 6, 9}: the construction is edge-disjoint with
    product at least 2^n (n/3)^3; the cyclic 3-vertex instance gives exactly
    125."""
    ok = True
    cyclic = Tournament(3, (0, 2, 1))  # 0 -> 1 -> 2 -> 0
    for n in (3, 6, 9):
        fam = tournament_construction(n, cyclic)
        ok &= product_clique_counts(fam) >= 2**n * (n // 3) ** 3
    cyc = tournament_construction(3, cyclic)
    counts = [count_cliques(g) for g in cyc.members]
    ok &= counts == [5, 5, 5] and product_clique_counts(cyc) == 125
    assert _report("12 tournament-construction", ok)


def test_acceptance_13_advisory_asymptotics():
    """Asymptotic claims are not desk-checkable; the advisory exponent logger
    must instead run to completion deterministically under a fixed seed."""
    first = random_pi_exponent(30, trials=50, seed=99)
    second = random_pi_exponent(30, trials=50, seed=99)
    ok = first == second
    ok &= all(isfinite(x) and x > 0 for x in exponent_ratios(30, first))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        ok &= main(["exponent", "--n", "30", "--trials", "50", "--seed", "99"]) == 0
    ok &= len(out.getvalue().splitlines()) == 51 and err.getvalue().startswith("# n=30 trials=50 ")
    small = median(exponent_ratios(10, random_pi_exponent(10, trials=20, seed=99)))
    large = median(exponent_ratios(40, random_pi_exponent(40, trials=20, seed=99)))
    detail = f"median ratio n=10: {small:.3f}, n=40: {large:.3f} (advisory)"
    assert _report("13 advisory-asymptotics", ok, detail)
