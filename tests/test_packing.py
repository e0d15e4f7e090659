import time
from fractions import Fraction
from itertools import product
from math import factorial, isclose, sqrt

import pytest

from ngbounds.oracle import rng_for
from ngbounds.packing import (
    BorderPath,
    _border_cut,
    _border_max,
    _border_weights,
    _pareto_table,
    discrete_border_max,
    leading_term_bound,
    one_turn_value,
)
from ngbounds.verify import threshold_code_max, verify_borders

from helpers import (
    border_from_heights,
    border_max_by_enumeration,
    code_max_by_enumeration,
    conjugate,
    one_turn_slope_identity,
    packed_pair,
    poly_at,
    ratio_polynomial,
    sign_changes,
    split_polynomial,
    two_turn_grid_argmax,
    walk_end,
    walk_heights,
)


def test_conjugate_fixtures():
    assert conjugate((3, 2, 2, 0)) == (3, 3, 1)
    assert conjugate((0, 0, 0)) == ()
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    with pytest.raises(ValueError):
        conjugate((1, -1))


def _strip_zeros(seq):
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_conjugate_involution():
    for trial in range(300):
        rng = rng_for([67, trial])
        length = int(rng.integers(0, 9))
        c = tuple(sorted((int(rng.integers(0, 8)) for _ in range(length)), reverse=True))
        assert conjugate(conjugate(c)) == _strip_zeros(c)
        assert sum(conjugate(c)) == sum(c)


def test_packed_pair_fixtures():
    assert packed_pair((0, 1, 1, 3), 3, 4) == (3, 3, 1)
    assert packed_pair((3, 3, 3, 3), 3, 4) == (0, 0, 0)
    assert packed_pair((0, 0, 0, 0), 3, 4) == (4, 4, 4)
    with pytest.raises(ValueError):
        packed_pair((0, 4), 3, 2)  # entry above r
    with pytest.raises(ValueError):
        packed_pair((1, 0), 3, 2)  # not non-decreasing
    with pytest.raises(ValueError):
        packed_pair((0, 0), 3, 3)  # wrong length


def test_packed_pair_area_bookkeeping():
    for trial in range(200):
        rng = rng_for([71, trial])
        r = int(rng.integers(0, 9))
        s = int(rng.integers(0, 9))
        b = tuple(sorted(int(rng.integers(0, r + 1)) for _ in range(s)))
        a = packed_pair(b, r, s)
        assert len(a) == r
        assert sum(a) == sum(r - x for x in b)
        assert all(x <= s for x in a)
        assert all(a[i] >= a[i + 1] for i in range(len(a) - 1))


def test_border_path_shape():
    path = border_from_heights((0, 1, 1, 3), 3)
    assert path.steps == "-+--++-" and path.turns == 4
    up_right = border_from_heights((3, 3, 3, 3), 3)
    assert up_right.steps == "+++----" and up_right.turns == 1
    flat = border_from_heights((), 3)
    assert flat.steps == "+++" and flat.turns == 0


def test_border_path_every_step_string():
    # each path of up to 10 steps: its turns and heights agree with its steps
    for length in range(11):
        for walk in product("-+", repeat=length):
            steps = "".join(walk)
            path = BorderPath(steps)
            assert path.turns == steps.count("-+") + steps.count("+-")
            assert border_from_heights(walk_heights(steps), steps.count("+")) == path
            flipped = path.complemented()
            assert walk_end(flipped.steps) == walk_end(steps)[::-1] and flipped.complemented() == path
    for bad in ("x", "-+x", "+ -"):
        with pytest.raises(ValueError, match="path steps"):
            BorderPath(bad)
    for heights, r in (((2, 1), 3), ((0, 4), 3), ((-1,), 3), ((), -1)):
        with pytest.raises(ValueError, match="heights must be non-decreasing"):
            border_from_heights(heights, r)


def test_discrete_border_max_fixtures():
    path, value = discrete_border_max(3, 4, 3)
    assert path.turns <= 1
    # best path is up-then-right: b = (3,3,3,3), a = (0,0,0)
    assert value == Fraction((27 + 3 * 36) * 64, 36) == 240
    assert path.steps[:1] == "+"

    # r = 0 or s = 0 degenerates to a single path of value 0 for t >= 2
    path, value = discrete_border_max(0, 5, 3)
    assert value == 0 and path.turns == 0
    path, value = discrete_border_max(4, 0, 3)
    assert value == 0 and path.turns == 0

    with pytest.raises(ValueError):
        discrete_border_max(13, 12, 3)

    # past the enumeration oracle's reach, as the earlier depth-first search found them: the
    # table is cut here, and the best path turns twice, once in its last column or row
    assert discrete_border_max(11, 12, 6) == (BorderPath("++++++++++------------+"), Fraction(1937857176, 25))
    assert discrete_border_max(12, 11, 6) == (BorderPath("----------++++++++++++-"), Fraction(1937857176, 25))


def test_discrete_border_max_agrees_with_direct_enumeration():
    from itertools import combinations_with_replacement

    t = 3
    for r, s in ((2, 3), (3, 3), (4, 2), (1, 6)):
        best = -1
        for b in combinations_with_replacement(range(r + 1), s):
            a = packed_pair(b, r, s)
            val = (r**t + t * sum(x ** (t - 1) for x in b)) * (
                s**t + t * sum(x ** (t - 1) for x in a)
            )
            best = max(best, val)
        _, value = discrete_border_max(r, s, t)
        assert value == Fraction(best, factorial(t) ** 2)


@pytest.mark.parametrize("t", (2, 3, 4, 5, 6))
def test_discrete_border_max_matches_path_enumeration(t):
    # path and value, tie-break included; the oracle's 2^(n+1) paths make n = 18 about a second.
    # From t = 6 the table cuts its large entries, and two-turn paths win at 7 x 7 and 9 x 9
    for n in range(19):
        for r in range(n + 1):
            got_path, got_value = discrete_border_max(r, n - r, t)
            want_path, want_value = border_max_by_enumeration(r, n - r, t)
            assert (got_path, got_value) == (want_path, want_value)


@pytest.mark.parametrize("t", range(6))
def test_threshold_code_max_matches_code_enumeration(t):
    # value, one-turn flag and the first five maximizers in code order; the
    # oracle builds and counts 2^(n-1) graphs, so n = 14 takes about a second
    for n in range(t, 15):
        assert threshold_code_max(n, t) == code_max_by_enumeration(n, t)


def test_threshold_code_max_refuses_sizes_past_n():
    for n, t in ((1, 2), (3, 4), (12, 13), (5, -1)):
        with pytest.raises(ValueError, match="size t must be in"):
            threshold_code_max(n, t)
    # past the 24-step walk the scan would run for minutes; it refuses at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="capped at n <= 25"):
        threshold_code_max(26, 3)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("t, n_max", ((2, 20), (3, 20), (4, 20), (5, 20), (6, 20), (20, 16), (40, 16)))
def test_verify_borders_reads_each_rectangle_as_discrete_border_max(t, n_max, monkeypatch):
    # the suite builds one table and reads all rectangles from it; each read
    # must give what the rectangle's own search gives, also where the table
    # is cut for every rectangle at once (large t)
    builds, reads = [], {}

    def build(*args):
        builds.append(args[1:4])
        return _pareto_table(*args)

    def read(table, w, r, s, t):
        reads[r, s] = _border_max(table, w, r, s, t)
        return reads[r, s]

    monkeypatch.setattr("ngbounds.packing._pareto_table", build)
    monkeypatch.setattr("ngbounds.packing._border_max", read)
    verify_borders(t, n_max)
    monkeypatch.undo()
    assert builds == [(n_max, n_max, n_max)]
    assert sorted(reads) == sorted((r, n - r) for n in range(n_max + 1) for r in range(n + 1))
    for (r, s), got in reads.items():
        assert got == discrete_border_max(r, s, t)


def _pairs(table):
    return sum(map(len, table.values()))


@pytest.mark.parametrize("t", (20, 40, 100))
def test_discrete_border_max_cuts_large_t_tables_and_matches_path_enumeration(t):
    # as t grows nearly every walk is Pareto-maximal, so the table cuts its
    # large entries; the cut must keep every maximizer and tie
    for n in range(17):
        for r in range(n + 1):
            assert discrete_border_max(r, n - r, t) == border_max_by_enumeration(r, n - r, t)
    w = _border_weights(t, 8)
    assert _pairs(_pareto_table(w, 8, 8, 16, _border_cut(w, t, [(8, 8)]))) < _pairs(_pareto_table(w, 8, 8, 16))


def test_large_t_tables_stay_small_at_the_rectangle_cap():
    # uncut, the t = 40 table for r + s <= 24 holds one pair per walk: 2^25 - 1
    for t in (40, 300):
        w = _border_weights(t, 24)
        rects = [(r, n - r) for n in range(25) for r in range(n + 1)]
        assert _pairs(_pareto_table(w, 24, 24, 24, _border_cut(w, t, rects))) < 50_000
    # the earlier depth-first search's report at t = 6, where the table is cut
    rep = verify_borders(6, 24)
    assert rep.passed and rep.lines[-2:] == [
        "n=24: max scaled value 11059006000/81 at rectangle (10, 14), 1 turn(s)",
        "per-rectangle argmax had more than one turn in 8 balanced cases",
    ]


def test_searches_at_the_caps_finish_within_a_second():
    # the cases the earlier depth-first search took 0.14 to 3.4 s over; t = 2 ties tens of
    # thousands of paths in a 12 x 12 rectangle
    start = time.perf_counter()
    rep = verify_borders(3, 24)
    assert time.perf_counter() - start < 1
    assert rep.lines[-2] == "n=24: max scaled value 820125/2 at rectangle (9, 15), 1 turn(s)"
    for t in (2, 3, 4, 5):
        start = time.perf_counter()
        discrete_border_max(12, 12, t)
        assert time.perf_counter() - start < 1
    # the earlier depth-first search's answers at n = 25; t = 2 meets floor(M/2) * ceil(M/2), M = C(25, 2)
    t2 = ["-------++++++++++++++-++", "-------+++++++++++++++--", "------+-++++++++++++-+++",
          "------+-+++++++++++++-+-", "------++-++++++++++-++++"]
    start = time.perf_counter()
    assert threshold_code_max(25, 2) == (22500, False, t2)
    assert time.perf_counter() - start < 1
    # from t = 3 on, the one-turn code of x '-' then 24 - x '+', and its complement
    one_turn = {3: (369600, 9), 4: (2743650, 10), 5: (10216206, 10), 6: (20810790, 11), 7: (23330736, 11),
                8: (14369355, 11), 9: (4758325, 12), 10: (836836, 12), 11: (67860, 12), 12: (2041, 12)}
    for t, (value, x) in one_turn.items():
        start = time.perf_counter()
        assert threshold_code_max(25, t) == (value, True, ["-" * x + "+" * (24 - x), "+" * x + "-" * (24 - x)])
        assert time.perf_counter() - start < 1


def test_threshold_code_max_stops_at_five_when_every_code_ties():
    # at t = 0 and t = 1 each of the 2^24 codes scores 1 and n^2; from t = 14
    # no code holds both a t-clique and a t-independent set, and each scores 0
    first = ["-" * 24, "-" * 23 + "+", "-" * 22 + "+-", "-" * 22 + "++", "-" * 21 + "+--"]
    for t, value in ((0, 1), (1, 625), (14, 0), (25, 0)):
        start = time.perf_counter()
        assert threshold_code_max(25, t) == (value, True, first)
        assert time.perf_counter() - start < 1


def test_threshold_code_max_at_twenty_vertices():
    # 2^19 codes; the Pareto table holds a few thousand sums
    value, one_turn, argmax = threshold_code_max(20, 3)
    assert value == 88088 and one_turn
    assert argmax == ["-------++++++++++++", "+++++++------------"]


def test_discrete_border_max_scaling_trend():
    # scaled values stay below the leading coefficient (every staircase is a
    # valid continuous border) and close in on it as the rectangle grows;
    # rounding of the split makes the approach wobble, so the check compares
    # the worst deviation between the small and large halves
    t = 3
    peak = leading_term_bound(t)[1]
    deviations = []
    for n in (8, 12, 16, 20):
        best = max(
            discrete_border_max(r, n - r, t)[1] for r in range(n + 1)
        )
        ratio = float(best) / (n**t / factorial(t)) ** 2
        assert ratio < peak
        deviations.append(peak - ratio)
    assert max(deviations[2:]) < max(deviations[:2])
    assert deviations[-1] == min(deviations)


@pytest.mark.parametrize("t", (4, 5, 6))
def test_discrete_border_max_stays_below_the_leading_term(t):
    # the exact counterpart of the t = 3 bound above, for every size n <= 16
    peak = Fraction(leading_term_bound(t)[1])
    for n in range(17):
        best = max(discrete_border_max(r, n - r, t)[1] for r in range(n + 1))
        assert best <= Fraction(n**t, factorial(t)) ** 2 * peak


def test_simplex_grid_max_hits_the_boundary():
    # exact integer grid at step 1/100; the acceptance suite runs step 1/1000
    k = 100
    for t in (3, 4, 5):
        i, j, val = two_turn_grid_argmax(t, k)
        assert i == 0 and 0 < j < k
        # on a = 0 the two-turn product is the one-turn value at q = b
        scaled = Fraction(val, k ** (2 * t))
        assert scaled == one_turn_value(t, Fraction(j, k))
        peak = Fraction(leading_term_bound(t)[1])
        assert peak * (1 - Fraction(1, 10**3)) < scaled <= peak


def test_critical_ratio():
    # the sign order below holds because R_t < 0 just right of 0 (next test)
    assert poly_at(ratio_polynomial(3), 2) == 0  # 1 + 4*2 == (1+2)^2
    root = Fraction((-3 + sqrt(33)) / 2)
    delta = Fraction(1, 10**12)
    assert poly_at(ratio_polynomial(4), root - delta) < 0 < poly_at(ratio_polynomial(4), root + delta)


def test_critical_ratio_unique_positive_root():
    for t in range(3, 9):
        coeffs = ratio_polynomial(t)
        for lam in range(t):  # degree t - 1, so t points pin the polynomial down
            assert poly_at(coeffs, lam) == (1 + lam) ** (t - 1) - 1 - (t - 1) ** 2 * lam
        # R_t(0) = 0, and R_t / lam starts negative and changes sign once: by
        # Descartes' rule R_t < 0 below its one positive root and > 0 above
        assert coeffs[0] == 0 and coeffs[1] < 0
        assert sign_changes(coeffs[1:]) == 1


def test_leading_term_bound():
    split, value = leading_term_bound(3)
    assert isclose(split, (1 + sqrt(17)) / 8, rel_tol=0, abs_tol=1e-15)
    assert isclose(value, one_turn_value(3, split), rel_tol=0, abs_tol=1e-15)
    for t in (3, 5, 9):
        assert one_turn_value(t, 0.0) == 0.0
        assert one_turn_value(t, 1.0) == 0.0
    with pytest.raises(ValueError):
        leading_term_bound(2)


def test_split_tends_to_one_half():
    assert abs(leading_term_bound(1000)[0] - 0.5) < 2e-3


def test_split_lies_strictly_inside_the_unit_interval():
    for t in range(3, 2001):
        assert 0 < leading_term_bound(t)[0] < 1


def test_split_is_the_certified_root_of_the_split_polynomial():
    # P_t has coefficients (-, -, +): exactly one positive root, below which
    # P_t < 0 and above which P_t > 0; the float split sits within 1e-12 of it
    delta = Fraction(1, 10**12)
    for t in range(3, 60):
        coeffs = split_polynomial(t)
        assert sign_changes(coeffs) == 1 and poly_at(coeffs, 1) > 0
        split = Fraction(leading_term_bound(t)[0])
        assert poly_at(coeffs, split - delta) < 0 < poly_at(coeffs, split + delta)


def test_one_turn_max():
    # with the test above: one_turn_value rises up to the split and falls after
    assert all(one_turn_slope_identity(t) for t in range(3, 60))
