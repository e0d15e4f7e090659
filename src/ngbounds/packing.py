"""Border paths, the walks of threshold graphs, and the fixed-size product bound.

A threshold graph's two degree sequences across its clique/independent
split pack into an r x s rectangle; the boundary between the two Ferrers
diagrams is a monotone lattice path, and the one stored form of the graph.
A ``BorderPath`` is its step string, '-' a step right and '+' a step up
(``ALPHABET``), as the pruned walk ``_lattice_max`` yields it; its corners
and turns are derived from the steps.  ``discrete_border_max``
maximizes the scaled size-t count product over all such paths exactly
(rational arithmetic).  In the continuous relaxation the rectangle becomes
[0,q] x [0,p] with p + q = 1, and the best border turns once; its value
is ``one_turn_value``, maximized in closed form by ``leading_term_bound``.

The punchline is the leading-term bound: the best split fraction is

    split(t) = (t - 2 + sqrt(t^2 + 4t - 4)) / (4(t - 1)),

the root in (0, 1) of 2(t-1)q^2 - (t-2)q - 1, and the product of size-t clique and independent-set counts of any n-vertex
graph is at most (n^t/t!)^2 * one_turn_value(t, split) up to lower-order
terms, attained by one-turn threshold graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import factorial, prod, sqrt
from operator import attrgetter

MAX_RECTANGLE = 24  # border search cap on r + s
ALPHABET = frozenset("-+")  # path steps right/up: a threshold graph's independent/clique vertices
_SWAP = str.maketrans("-+", "+-")


@dataclass(frozen=True)
class BorderPath:
    """Monotone staircase from (0, 0), one character per unit step: '-' a step
    right, '+' a step up (the alphabet of ``_lattice_max`` walks).  A path in
    the r x s rectangle has s steps right and r steps up.  As a threshold
    graph's walk, see ``threshold``."""

    steps: str

    def __post_init__(self):
        if not ALPHABET.issuperset(self.steps):
            raise ValueError("path steps must be '-' (right) or '+' (up)")

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """Polyline vertices from (0, 0), collinear runs merged."""
        pts = [(0, 0)]
        for step, run in groupby(self.steps):
            x, y = pts[-1]
            k = len(list(run))
            pts.append((x + k, y) if step == "-" else (x, y + k))
        return tuple(pts)

    @property
    def turns(self) -> int:
        """Direction changes along the path."""
        return sum(1 for a, b in zip(self.steps, self.steps[1:]) if a != b)

    @property
    def orientation(self) -> str:
        return "starts-up" if self.steps[:1] == "+" else "starts-right"

    @property
    def end(self) -> tuple[int, int]:
        return self.steps.count("-"), self.steps.count("+")

    @property
    def code(self) -> str:
        """The threshold graph's display code: every step but the seed's."""
        return self.steps[:-1]

    def complemented(self) -> "BorderPath":
        """The walk of the complement graph: '+' and '-' swapped."""
        return BorderPath(self.steps.translate(_SWAP))


def _walk_sums(w, walk: str, end_h, end_v) -> tuple[int, int]:
    """The two sums ``_lattice_max`` multiplies, for one step string."""
    x = y = h = v = 0
    for step in walk:
        if step == "-":
            h += w[y]
            x += 1
        else:
            v += w[x]
            y += 1
    return h + end_h[y], v + end_v[x]


def _lattice_max(w, cols: int, rows: int, steps: int, end_h, end_v) -> tuple[int, list[str]]:
    """Exact maximum of (H + end_h[y]) * (V + end_v[x]) over monotone lattice
    walks of ``steps`` unit steps from (0, 0) inside [0, cols] x [0, rows]
    (steps <= cols + rows), and every walk attaining it.

    A horizontal step '-' at height y adds w[y] to H, a vertical step '+' at
    column x adds w[x] to V, and the walk ends at (x, y), x + y = steps.  All
    weights are non-negative.  Walks are visited depth first, '-' before '+',
    so the maximizers come back in lexicographic order of their step strings.
    A subtree is dropped only when (H + most H still to gain) * (V + most V
    still to gain) is strictly below the best value so far, which starts at
    the best one-turn walk; no maximizer is ever dropped.
    """
    # rest_h[x][y], rest_v[x][y]: the most each sum can still gain from (x, y),
    # end terms included, by a backward single-objective DP
    rest_h = [[0] * (rows + 1) for _ in range(cols + 1)]
    rest_v = [[0] * (rows + 1) for _ in range(cols + 1)]
    for d in range(steps, -1, -1):
        for x in range(max(0, d - rows), min(cols, d) + 1):
            y = d - x
            if d == steps:
                rest_h[x][y], rest_v[x][y] = end_h[y], end_v[x]
            else:  # all gains are >= 0, so 0 stands in for a step out of the box
                rest_h[x][y] = max(w[y] + rest_h[x + 1][y] if x < cols else 0, rest_h[x][y + 1] if y < rows else 0)
                rest_v[x][y] = max(rest_v[x + 1][y] if x < cols else 0, w[x] + rest_v[x][y + 1] if y < rows else 0)

    best = max(
        prod(_walk_sums(w, walk, end_h, end_v))
        for i in range(max(0, steps - rows), min(cols, steps) + 1)
        for walk in ("-" * i + "+" * (steps - i), "+" * (steps - i) + "-" * i)
    )
    hits: list[str] = []
    trail: list[str] = []

    def visit(x: int, y: int, h: int, v: int) -> None:
        nonlocal best, hits
        bound = (h + rest_h[x][y]) * (v + rest_v[x][y])
        if bound < best:
            return
        if x + y == steps:  # at an end point the bound is the walk's value
            if bound > best:
                best, hits = bound, []
            hits.append("".join(trail))
            return
        if x < cols:
            trail.append("-")
            visit(x + 1, y, h + w[y], v)
            trail.pop()
        if y < rows:
            trail.append("+")
            visit(x, y + 1, h, v + w[x])
            trail.pop()

    visit(0, 0, 0, 0)
    return best, hits


def discrete_border_max(r: int, s: int, t: int) -> tuple[BorderPath, Fraction]:
    """Maximize the scaled size-t count product exactly over all monotone
    lattice paths in the r x s rectangle, by pruned exact search.

    The value of a path with column heights b and packed partner a is

        (r^t + t * sum b_j^(t-1)) * (s^t + t * sum a_i^(t-1)) / (t!)^2

    compared exactly as integers.  Walking the path from (0, 0), a step right
    at height h adds h^(t-1) to the b-sum and a step up at column x adds
    x^(t-1) to the a-sum, so ``_lattice_max`` finds every maximizing path
    without visiting the C(r+s, s) paths one by one.  Ties break toward fewer
    turns, then the lexicographically smallest height sequence.  Capped at
    r + s <= 24.
    """
    if r < 0 or s < 0:
        raise ValueError("rectangle sides must be non-negative")
    if t < 2:
        raise ValueError(f"product maximization needs t >= 2, got {t}")
    if r + s > MAX_RECTANGLE:
        raise ValueError(f"path enumeration is capped at r + s <= {MAX_RECTANGLE}, got {r + s}")
    w = [t * x ** (t - 1) for x in range(max(r, s) + 1)]
    best, hits = _lattice_max(w, s, r, r + s, [r**t] * (r + 1), [s**t] * (s + 1))
    # min keeps the first of the fewest turns
    return min(map(BorderPath, hits), key=attrgetter("turns")), Fraction(best, factorial(t) ** 2)


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
