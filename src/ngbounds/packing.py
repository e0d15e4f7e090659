"""Packed degree sequences, border paths, and the fixed-size product bound.

A threshold graph's two degree sequences across its clique/independent
split pack into an r x s rectangle; the boundary between the two Ferrers
diagrams is a monotone lattice path.  ``discrete_border_max`` maximizes the
scaled size-t count product over all such paths exactly (rational
arithmetic).  The continuous relaxation replaces the rectangle by
[0,q] x [0,p] with p + q = 1 and the path by a "border" whose two
path-integrals drive the same product; the machinery here evaluates that
product on staircase borders, rules out interior maxima for the two-turn
family, and maximizes the one-turn value in closed form.

The punchline is the leading-term bound: the best split fraction is

    split(t) = (t - 2 + sqrt(t^2 + 4t - 4)) / (4(t - 1))

and the product of size-t clique and independent-set counts of any n-vertex
graph is at most (n^t/t!)^2 * one_turn_value(t, split) up to lower-order
terms, attained by one-turn threshold codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, sqrt

import numpy as np

MAX_RECTANGLE = 24  # path enumeration cap: C(24, 12) ~ 2.7M paths


def conjugate(seq) -> tuple[int, ...]:
    """Ferrers transpose: entry j (1-indexed) counts values >= j.

    Order-free; result has length max(seq) and is non-increasing.
    """
    vals = list(seq)
    if any(x < 0 for x in vals):
        raise ValueError("entries must be non-negative")
    top = max(vals, default=0)
    return tuple(sum(1 for x in vals if x >= j) for j in range(1, top + 1))


def _require_non_increasing(seq, name):
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError(f"{name} must be non-increasing")


def majorizes(a, c) -> bool:
    """True iff ``a`` is dominated by ``c``: every prefix sum of a is at most
    the corresponding prefix sum of c, padding the shorter sequence with 0s.
    Both inputs must be non-increasing."""
    a = tuple(a)
    c = tuple(c)
    _require_non_increasing(a, "a")
    _require_non_increasing(c, "c")
    pa = pc = 0
    for k in range(max(len(a), len(c))):
        pa += a[k] if k < len(a) else 0
        pc += c[k] if k < len(c) else 0
        if pa > pc:
            return False
    return True


def packed_pair(b, r: int, s: int) -> tuple[int, ...]:
    """The clique-side sequence packed against ``b`` in an r x s rectangle.

    ``b`` is the non-decreasing independent-side degree sequence (length s,
    entries in [0, r]); the result is the conjugate of (r - b_j), zero padded
    to length r.  This is the extremal sequence allowed by the Gale-Ryser
    theorem once ``b`` is fixed.
    """
    b = tuple(b)
    if len(b) != s:
        raise ValueError(f"expected {s} entries, got {len(b)}")
    if any(x < 0 or x > r for x in b):
        raise ValueError("entries must lie in [0, r]")
    if any(b[j] > b[j + 1] for j in range(len(b) - 1)):
        raise ValueError("b must be non-decreasing")
    a = conjugate(r - x for x in b)
    return a + (0,) * (r - len(a))


@dataclass(frozen=True)
class BorderPath:
    """Monotone staircase from (0,0) to the opposite rectangle corner.

    ``points`` are the polyline vertices with collinear runs merged, so the
    number of turns is len(points) - 2.  Coordinates are ints for lattice
    paths and floats in the continuous setting.
    """

    points: tuple[tuple[float, float], ...]
    orientation: str  # 'starts-right' | 'starts-up'

    def __post_init__(self):
        pts = self.points
        if not pts or pts[0] != (0, 0):
            raise ValueError("path must start at (0, 0)")
        if self.orientation not in ("starts-right", "starts-up"):
            raise ValueError("orientation must be 'starts-right' or 'starts-up'")
        prev_axis = None
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 < x0 or y1 < y0:
                raise ValueError("path must be non-decreasing")
            horizontal = y1 == y0
            vertical = x1 == x0
            if horizontal == vertical:  # both (zero-length) or neither (diagonal)
                raise ValueError("segments must be horizontal or vertical")
            axis = "h" if horizontal else "v"
            if axis == prev_axis:
                raise ValueError("consecutive segments must alternate direction")
            prev_axis = axis

    @property
    def turns(self) -> int:
        return max(0, len(self.points) - 2)

    @property
    def end(self) -> tuple[float, float]:
        return self.points[-1]


def _extend(pts: list, p) -> None:
    if len(pts) >= 2:
        o, q = pts[-2], pts[-1]
        if (o[0] == q[0] == p[0]) or (o[1] == q[1] == p[1]):
            pts[-1] = p
            return
    if p != pts[-1]:
        pts.append(p)


def border_from_heights(heights, r: int) -> BorderPath:
    """Staircase for non-decreasing column heights: height[j] cells of column
    j+1 lie below the path; ends with the rise to the full height r."""
    b = tuple(heights)
    if any(x < 0 or x > r for x in b):
        raise ValueError("heights must lie in [0, r]")
    if any(b[j] > b[j + 1] for j in range(len(b) - 1)):
        raise ValueError("heights must be non-decreasing")
    pts: list[tuple[int, int]] = [(0, 0)]
    h = 0
    for j, x in enumerate(b, start=1):
        if x > h:
            _extend(pts, (j - 1, x))
            h = x
        _extend(pts, (j, h))
    if r > h:
        _extend(pts, (len(b), r))
    if len(pts) == 1:
        orientation = "starts-right"
    else:
        orientation = "starts-up" if pts[1][0] == 0 else "starts-right"
    return BorderPath(tuple(pts), orientation)


def border_integrals(path: BorderPath, t: int) -> tuple[float, float]:
    """(x-integral, y-integral) of the border: the x-integral accumulates
    y^(t-1) dx over horizontal runs, the y-integral x^(t-1) dy over vertical
    runs.  Exact for staircases (the integrand is constant per segment)."""
    ix = 0.0
    iy = 0.0
    pts = path.points
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y0 == y1:
            ix += y0 ** (t - 1) * (x1 - x0)
        else:
            iy += x0 ** (t - 1) * (y1 - y0)
    return ix, iy


def discrete_border_max(r: int, s: int, t: int) -> tuple[BorderPath, Fraction]:
    """Exhaustively maximize the scaled size-t count product over all monotone
    lattice paths in the r x s rectangle.

    The value of a path with column heights b and packed partner a is

        (r^t + t * sum b_j^(t-1)) * (s^t + t * sum a_i^(t-1)) / (t!)^2

    compared exactly as integers.  Ties break toward fewer turns, then the
    lexicographically smallest height sequence.  Capped at r + s <= 24.
    """
    if r < 0 or s < 0:
        raise ValueError("rectangle sides must be non-negative")
    if t < 2:
        raise ValueError(f"product maximization needs t >= 2, got {t}")
    if r + s > MAX_RECTANGLE:
        raise ValueError(f"path enumeration is capped at r + s <= {MAX_RECTANGLE}, got {r + s}")
    tm1 = t - 1
    pw = [x**tm1 for x in range(max(r, s) + 1)]
    rt = r**t
    st = s**t
    best_val = -1
    best_turns = -1
    best_b: tuple[int, ...] | None = None
    for b in combinations_with_replacement(range(r + 1), s):
        sb = 0
        for x in b:
            sb += pw[x]
        # conjugate sums without materializing the partner sequence:
        # a_i = #{j : b_j <= r - i}, walked with one pointer since b is sorted
        sa = 0
        p = s
        for level in range(r - 1, -1, -1):
            while p > 0 and b[p - 1] > level:
                p -= 1
            sa += pw[p]
        val = (rt + t * sb) * (st + t * sa)
        if val < best_val:
            continue
        turns = border_from_heights(b, r).turns
        if val > best_val or turns < best_turns or (turns == best_turns and b < best_b):
            best_val, best_turns, best_b = val, turns, b
    assert best_b is not None
    return border_from_heights(best_b, r), Fraction(best_val, factorial(t) ** 2)


def two_turn_product(a: float, b: float, c: float, t: int) -> float:
    """Product value of the two-turn border parametrized by (a, b, c) on the
    unit simplex: ((a+b)^t + t*c*a^(t-1)) * (c^t + t*b*c^(t-1)).

    Zero when c = 0.  Rejects negative or non-normalized input.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("simplex coordinates must be non-negative")
    if abs(a + b + c - 1.0) > 1e-12:
        raise ValueError("coordinates must sum to 1")
    if c == 0:
        return 0.0
    return ((a + b) ** t + t * c * a ** (t - 1)) * (c**t + t * b * c ** (t - 1))


def simplex_grid_max(t: int, step: float = 1e-3, refine: bool = True):
    """Grid-search the two-turn product over the simplex; returns (a, b, c, value).

    The coarse pass walks the lattice (i/k, j/k) with k = round(1/step); when
    ``refine`` is set, a 201 x 201 local grid with spacing step/100 polishes
    the argmax.  The first maximum in row-major order wins, so results are
    deterministic.
    """
    k = round(1.0 / step)
    idx = np.arange(k + 1)
    ii = idx[:, None]
    jj = idx[None, :]
    a = ii / k
    b = jj / k
    c = (k - ii - jj) / k
    vals = _grid_values(a, b, c, t)
    vals[ii + jj > k] = -np.inf
    flat = int(np.argmax(vals))
    i0, j0 = divmod(flat, k + 1)
    a0, b0 = i0 / k, j0 / k
    best = (a0, b0, max(0.0, 1.0 - a0 - b0), float(vals[i0, j0]))
    if refine:
        avals = np.linspace(max(0.0, a0 - step), min(1.0, a0 + step), 201)
        bvals = np.linspace(max(0.0, b0 - step), min(1.0, b0 + step), 201)
        a = avals[:, None]
        b = bvals[None, :]
        c = 1.0 - a - b
        vals = _grid_values(a, b, np.clip(c, 0.0, None), t)
        vals[c < -1e-12] = -np.inf
        flat = int(np.argmax(vals))
        i1, j1 = divmod(flat, len(bvals))
        a1, b1 = float(avals[i1]), float(bvals[j1])
        best = (a1, b1, max(0.0, 1.0 - a1 - b1), float(vals[i1, j1]))
    return best


def _grid_values(a, b, c, t):
    return ((a + b) ** t + t * c * a ** (t - 1)) * (c**t + t * b * c ** (t - 1))


def ratio_equation_residual(t: int, lam: float) -> float:
    """(1 + lam)^(t-1) - 1 - (t-1)^2 * lam.

    An interior critical point of the two-turn product forces this to vanish
    at lam = b/a; the residual has exactly one positive root.
    """
    return (1 + lam) ** (t - 1) - 1 - (t - 1) ** 2 * lam


def critical_ratio(t: int, tol: float = 1e-13) -> float:
    """Unique positive root of ``ratio_equation_residual``, by bisection."""
    if t < 3:
        raise ValueError(f"critical ratio needs t >= 3, got {t}")
    hi = 1.0
    while ratio_equation_residual(t, hi) <= 0:
        hi *= 2
    lo = 1e-18  # residual is negative just right of 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ratio_equation_residual(t, mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def one_turn_value(t: int, q: float) -> float:
    """Scaled count product of a one-turn border with independent-side
    fraction q:  q^t (1-q)^(t-1) (1 + (t-1) q)."""
    return q**t * (1 - q) ** (t - 1) * (1 + (t - 1) * q)


@dataclass(frozen=True)
class LeadingTermBound:
    """Leading coefficient of the size-t product bound.

    split: the maximizing independent-side fraction, in (0, 1)
    value: one_turn_value(t, split)
    """

    t: int
    split: float
    value: float

    def __post_init__(self):
        if not 0 < self.split < 1:
            raise ValueError("split fraction must lie strictly between 0 and 1")

    def bound(self, n: int) -> float:
        """(n^t / t!)^2 * value: the leading term of the product bound."""
        return (n**self.t / factorial(self.t)) ** 2 * self.value


def leading_term_bound(t: int) -> LeadingTermBound:
    """Closed-form optimal split and its value; t >= 3."""
    if t < 3:
        raise ValueError(f"leading-term analysis needs t >= 3, got {t}")
    split = 0.25 * (t - 2 + sqrt(t * t + 4 * t - 4)) / (t - 1)
    return LeadingTermBound(t, split, one_turn_value(t, split))


def numeric_split_root(t: int, tol: float = 1e-12) -> float:
    """Zero of d/dq one_turn_value(t, q) on (0, 1), located by central
    differences and sign bisection.  Independent cross-check of the
    closed-form split in ``leading_term_bound``."""
    h = 1e-6

    def slope(x: float) -> float:
        return (one_turn_value(t, x + h) - one_turn_value(t, x - h)) / (2 * h)

    lo, hi = 0.1, 1.0 - 1e-6  # split(t) is always in (1/2, 0.65]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def one_turn_max(t: int, step: float = 1e-3) -> tuple[float, float]:
    """Maximize over q the better of the two one-turn borders at split q.

    Coarse grid with the given step, then ternary refinement on the active
    branch (one_turn_value is unimodal on (0, 1)).  Returns (q*, value); the
    maximum is attained symmetrically at the optimal split and its mirror,
    and the grid scan reports the smaller q.
    """
    if t < 3:
        raise ValueError(f"one-turn analysis needs t >= 3, got {t}")
    qs = np.arange(0.0, 1.0 + step / 2, step)
    direct = one_turn_value(t, qs)
    mirrored = one_turn_value(t, 1.0 - qs)
    i0 = int(np.argmax(np.maximum(direct, mirrored)))
    use_direct = direct[i0] >= mirrored[i0]
    x0 = float(qs[i0]) if use_direct else 1.0 - float(qs[i0])
    lo, hi = max(0.0, x0 - step), min(1.0, x0 + step)
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if one_turn_value(t, m1) < one_turn_value(t, m2):
            lo = m1
        else:
            hi = m2
    x = 0.5 * (lo + hi)
    q_star = x if use_direct else 1.0 - x
    return q_star, one_turn_value(t, x)
