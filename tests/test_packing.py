import time
from fractions import Fraction
from itertools import product
from math import comb, factorial, isclose, sqrt

import pytest

from ngbounds.oracle import rng_for
from ngbounds.packing import BorderPath, discrete_border_max, leading_term_bound, one_turn_value
from ngbounds.verify import threshold_code_max

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
    assert path.steps == "-+--++-" and path.end == (4, 3)
    assert path.points == ((0, 0), (1, 0), (1, 1), (3, 1), (3, 3), (4, 3))
    assert path.turns == 4
    assert path.orientation == "starts-right"

    up_right = border_from_heights((3, 3, 3, 3), 3)
    assert up_right.points == ((0, 0), (0, 3), (4, 3))
    assert up_right.turns == 1
    assert up_right.orientation == "starts-up"

    flat = border_from_heights((), 3)
    assert flat.points == ((0, 0), (0, 3))
    assert flat.turns == 0


def test_border_path_every_step_string():
    # each path of up to 10 steps: the derived corners, turns and heights agree with its steps
    for length in range(11):
        for walk in product("-+", repeat=length):
            steps = "".join(walk)
            path = BorderPath(steps)
            pts = path.points
            assert pts[0] == (0, 0) and pts[-1] == path.end
            assert path.turns == max(0, len(pts) - 2)
            segments = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
            assert all(min(dx, dy) == 0 < max(dx, dy) for dx, dy in segments)  # axis-parallel, non-empty
            assert all((a[0] == 0) != (b[0] == 0) for a, b in zip(segments, segments[1:]))  # axes alternate
            assert "".join("-" * dx + "+" * dy for dx, dy in segments) == steps
            assert path.orientation == ("starts-up" if steps[:1] == "+" else "starts-right")
            assert border_from_heights(walk_heights(steps), path.end[1]) == path
            assert path.complemented().end == path.end[::-1] and path.complemented().complemented() == path
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
    assert path.orientation == "starts-up"

    # r = 0 or s = 0 degenerates to a single path of value 0 for t >= 2
    path, value = discrete_border_max(0, 5, 3)
    assert value == 0 and path.turns == 0
    path, value = discrete_border_max(4, 0, 3)
    assert value == 0 and path.turns == 0

    with pytest.raises(ValueError):
        discrete_border_max(13, 12, 3)


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


@pytest.mark.parametrize("t", (2, 3, 4, 5))
def test_discrete_border_max_matches_path_enumeration(t):
    # path, value, turns and orientation, tie-break included
    for n in range(13):
        for r in range(n + 1):
            got_path, got_value = discrete_border_max(r, n - r, t)
            want_path, want_value = border_max_by_enumeration(r, n - r, t)
            assert (got_path, got_value) == (want_path, want_value)
            assert (got_path.turns, got_path.orientation) == (want_path.turns, want_path.orientation)


@pytest.mark.parametrize("t", range(6))
def test_threshold_code_max_matches_code_enumeration(t):
    # value, one-turn flag and the first five maximizers in code order
    for n in range(t, 13):
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


def test_threshold_code_max_at_twenty_vertices():
    # 2^19 codes; the pruned walk visits a small fraction of them
    value, one_turn, argmax = threshold_code_max(20, 3)
    assert value == 88088 and one_turn
    assert argmax == ["-------++++++++++++", "+++++++------------"]


def test_discrete_border_max_scaling_trend():
    # scaled values stay below the leading coefficient (every staircase is a
    # valid continuous border) and close in on it as the rectangle grows;
    # rounding of the split makes the approach wobble, so the check compares
    # the worst deviation between the small and large halves
    t = 3
    lead = leading_term_bound(t)
    deviations = []
    for n in (8, 12, 16, 20):
        best = max(
            discrete_border_max(r, n - r, t)[1] for r in range(n + 1)
        )
        ratio = float(best) / (n**t / factorial(t)) ** 2
        assert ratio < lead.value
        deviations.append(lead.value - ratio)
    assert max(deviations[2:]) < max(deviations[:2])
    assert deviations[-1] == min(deviations)


@pytest.mark.parametrize("t", (4, 5, 6))
def test_discrete_border_max_stays_below_the_leading_term(t):
    # the exact counterpart of the t = 3 bound above, for every size n <= 16
    peak = Fraction(leading_term_bound(t).value)
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
        peak = Fraction(leading_term_bound(t).value)
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
    lead = leading_term_bound(3)
    assert isclose(lead.split, (1 + sqrt(17)) / 8, rel_tol=0, abs_tol=1e-15)
    assert isclose(lead.value, one_turn_value(3, lead.split), rel_tol=0, abs_tol=1e-15)
    assert lead.bound(10) == (10**3 / 6) ** 2 * lead.value
    for t in (3, 5, 9):
        assert one_turn_value(t, 0.0) == 0.0
        assert one_turn_value(t, 1.0) == 0.0
    with pytest.raises(ValueError):
        leading_term_bound(2)


def test_split_tends_to_one_half():
    assert abs(leading_term_bound(1000).split - 0.5) < 2e-3


def test_split_is_the_certified_root_of_the_split_polynomial():
    # P_t has coefficients (-, -, +): exactly one positive root, below which
    # P_t < 0 and above which P_t > 0; the float split sits within 1e-12 of it
    delta = Fraction(1, 10**12)
    for t in range(3, 60):
        coeffs = split_polynomial(t)
        assert sign_changes(coeffs) == 1 and poly_at(coeffs, 1) > 0
        split = Fraction(leading_term_bound(t).split)
        assert poly_at(coeffs, split - delta) < 0 < poly_at(coeffs, split + delta)


def test_one_turn_max():
    # with the test above: one_turn_value rises up to the split and falls after
    assert all(one_turn_slope_identity(t) for t in range(3, 60))
