"""Border paths, the walks of threshold graphs, and the fixed-size product bound.

A threshold graph's two degree sequences across its clique/independent
split pack into an r x s rectangle; the boundary between the two Ferrers
diagrams is a monotone lattice path, and the one stored form of the graph.
A ``BorderPath`` is its step string, '-' a step right and '+' a step up
(``ALPHABET``), as ``_lattice_max`` reads it back from a table of the
Pareto-maximal path sums at each lattice point; its turns are counted on
the steps.  ``discrete_border_max`` maximizes the scaled
size-t count product over all such paths exactly (rational arithmetic).
In the continuous relaxation the rectangle becomes [0,q] x [0,p] with
p + q = 1, and the best border turns once; its value is
``one_turn_value``, maximized in closed form by ``leading_term_bound``.

The punchline is the leading-term bound: the best split fraction is

    split(t) = (t - 2 + sqrt(t^2 + 4t - 4)) / (4(t - 1)),

the root in (0, 1) of 2(t-1)q^2 - (t-2)q - 1, and the product of size-t clique and independent-set counts of any n-vertex
graph is at most (n^t/t!)^2 * one_turn_value(t, split) up to lower-order
terms, attained by one-turn threshold graphs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, product
from math import factorial, sqrt
from operator import itemgetter

MAX_RECTANGLE = 24  # border search cap on r + s
_WHOLE_ENTRY = 256  # _pareto_table cuts only larger entries: on smaller ones the cut costs more than it saves
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
    def turns(self) -> int:
        """Direction changes along the path."""
        return sum(1 for a, b in zip(self.steps, self.steps[1:]) if a != b)

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


def _pareto_table(w, cols: int, rows: int, steps: int, cut=None) -> dict[tuple[int, int], tuple[tuple, tuple]]:
    """For each lattice point (x, y) of [0, cols] x [0, rows] with
    x + y <= steps, the Pareto-maximal sums (H, V) over the monotone walks
    from (0, 0) to it, as a tuple of H ascending and a tuple of V.

    A step '-' at height y adds w[y] to H and a step '+' at column x adds
    w[x] to V.  No walk to (x, y) leaves [0, x] x [0, y], so an entry depends
    on w and its point alone, and one table serves every box inside its own.
    Built one anti-diagonal at a time, each point from the two before it.
    As the weights grow faster (large t), nearly every walk is
    Pareto-maximal; so on an entry of more than ``_WHOLE_ENTRY`` candidate
    pairs, ``cut(x, y)``, when given, tests each pair and drops those that no
    maximizing walk the table serves can pass.
    """
    none = ((), ())
    table = {(0, 0): ((0,), (0,))}
    for d in range(1, steps + 1):
        for x in range(max(0, d - rows), min(cols, d) + 1):
            y = d - x
            (h_left, v_left), (h_below, v_below) = table.get((x - 1, y), none), table.get((x, y - 1), none)
            pairs = sorted([*zip([h + w[y] for h in h_left], v_left), *zip(h_below, [v + w[x] for v in v_below])])
            keep = cut(x, y) if cut and len(pairs) > _WHOLE_ENTRY else None
            front, top = [], -1
            for h, v in reversed(pairs):  # H descending: a pair is Pareto-maximal when its V beats every V before it
                if v > top:
                    top = v
                    if keep is None or keep(h, v):
                        front.append((h, v))
            table[x, y] = tuple(zip(*reversed(front))) or none
    return table


def _border_cut(w, t: int, rects):
    """The ``cut`` of a ``_pareto_table`` on ``_border_weights(t, ...)`` that
    serves the rectangles ``rects``, as (r, s): a pair at (x, y) is kept when
    a bound on the walks on from it to some (s, r) reaches the value of that
    rectangle's better one-turn path.

    A walk on from (x, y) to (s, r), y < r, first reaches height r at some
    column c.  Its '+' steps come at columns <= c and its '-' steps before c
    at heights < r, and the weights grow, so it adds at most (s-x) * w[r-1]
    to H and (r-y) * w[s] to V if c = s, and at most (s-x) * w[r] and
    (r-y) * w[s-1] if c < s.  The box bound, both most at once, keeps nearly
    every walk at large t, where one walk cannot make both sums large.
    """
    # the one-turn paths '-' * s + '+' * r and '+' * r + '-' * s (w[0] = 0)
    lower = {(r, s): max(r**t * (r * w[s] + s**t), (s * w[r] + r**t) * s**t) for r, s in rects}

    def at(x: int, y: int):
        bounds = []  # (most H, most V) still to come, end terms included, and the value to reach
        for (r, s), low in lower.items():
            if r < y or s < x:
                continue
            if r == y:
                bounds.append((r**t + (s - x) * w[r], s**t, low))
                continue
            bounds.append((r**t + (s - x) * w[r - 1], s**t + (r - y) * w[s], low))
            if s > x:
                bounds.append((r**t + (s - x) * w[r], s**t + (r - y) * w[s - 1], low))
        return lambda h, v: any((h + a) * (v + b) >= low for a, b, low in bounds)

    return at


def _in_entry(entry, h: int, v: int) -> bool:
    """Whether (h, v) is a pair of a ``_pareto_table`` entry."""
    hs, vs = entry
    i = bisect_left(hs, h)
    return i < len(hs) and hs[i] == h and vs[i] == v


def _lattice_max(table, w, ends) -> tuple[int, set[tuple[int, int, int, int]]]:
    """Exact maximum of (H + end_h) * (V + end_v) over the monotone walks
    from (0, 0) to an end point (x, y) with ``ends[x, y] = (end_h, end_v)``,
    all on one anti-diagonal of ``table`` (a ``_pareto_table`` on ``w``),
    and the marked states (x, y, H, V) of the walks attaining it.

    Weights and end terms are non-negative.  Each pair of the table extends
    a pair kept at a point before it, so a walk back through kept pairs never
    stops short of (0, 0).  When the maximum is positive, a maximizer's prefix
    sums are kept at every point: no pair dominates them, or a better walk
    would exist, and the cut drops only pairs no maximizer passes.  So the
    walk back from the maximizing end pairs through the kept pairs marks
    exactly the maximizers' states, and each chain of marks from
    (0, 0, 0, 0) to an end is a maximizer.  A maximum of 0 is attained by
    every walk, not only those marked: ``threshold_code_max`` answers it
    itself, and a border rectangle with a zero maximum has one path.
    """
    values = [((x, y, h, v), (h + eh) * (v + ev)) for (x, y), (eh, ev) in ends.items() for h, v in zip(*table[x, y])]
    best = max(value for _, value in values)
    stack = [state for state, value in values if value == best]
    marks: set[tuple[int, int, int, int]] = set()
    while stack:
        state = stack.pop()
        if state in marks:
            continue
        marks.add(state)
        x, y, h, v = state
        if x and _in_entry(table[x - 1, y], h - w[y], v):
            stack.append((x - 1, y, h - w[y], v))
        if y and _in_entry(table[x, y - 1], h, v - w[x]):
            stack.append((x, y - 1, h, v - w[x]))
    return best, marks


def _maximizers(marks, w, ends) -> Iterator[str]:
    """The walks through the marks of ``_lattice_max``, lexicographically,
    '-' before '+'.  Every mark leads on to an end, so a walk costs its
    length, however many tie."""

    def walks(x: int, y: int, h: int, v: int, trail: str) -> Iterator[str]:
        if (x, y) in ends:
            yield trail
            return
        for step, state in (("-", (x + 1, y, h + w[y], v)), ("+", (x, y + 1, h, v + w[x]))):
            if state in marks:
                yield from walks(*state, trail + step)

    return walks(0, 0, 0, 0, "")


def _fewest_turns(marks, w, ends) -> str:
    """The walk through the marks of ``_lattice_max`` with the fewest turns,
    lexicographically first among those ('-' before '+'), by a memoized pass
    over the marks that lists none of the ties (61,108 at t = 2 in 12 x 12)."""

    @cache
    def best_from(x: int, y: int, h: int, v: int, last: str) -> tuple[int, str]:
        # (turns, steps) of the best rest of a walk after the step ``last``
        if (x, y) in ends:
            return 0, ""
        options = []
        for step, state in (("-", (x + 1, y, h + w[y], v)), ("+", (x, y + 1, h, v + w[x]))):
            if state in marks:
                turns, rest = best_from(*state, step)
                options.append((turns + (step != last), step + rest))
        return min(options, key=itemgetter(0))  # a tie keeps '-', the first

    return best_from(0, 0, 0, 0, "")[1]


def _border_weights(t: int, size: int) -> list[int]:
    """The step weights t * x^(t-1), x = 0..size, of the border walks."""
    return [t * x ** (t - 1) for x in range(size + 1)]


def _border_max(table, w, r: int, s: int, t: int) -> tuple[BorderPath, Fraction]:
    """``discrete_border_max(r, s, t)`` read from a ``_pareto_table`` on
    ``_border_weights(t, ...)`` that holds the point (s, r)."""
    ends = {(s, r): (r**t, s**t)}
    best, marks = _lattice_max(table, w, ends)
    return BorderPath(_fewest_turns(marks, w, ends)), Fraction(best, factorial(t) ** 2)


def _border_maxima(t: int, n_max: int) -> Iterator[list[tuple[BorderPath, Fraction]]]:
    """For n = 0..n_max, ``discrete_border_max(r, n - r, t)`` for r = 0..n,
    all read from one ``_pareto_table`` cut for every rectangle at once."""
    w = _border_weights(t, n_max)
    rects = [(r, n - r) for n in range(n_max + 1) for r in range(n + 1)]
    table = _pareto_table(w, n_max, n_max, n_max, _border_cut(w, t, rects))
    for n in range(n_max + 1):
        yield [_border_max(table, w, r, n - r, t) for r in range(n + 1)]


def _diagonal_max(w, ends) -> tuple[int, bool, list[str]]:
    """Max of (H + ends[y]) * (V + ends[x]) over the walks of len(ends) - 1
    steps, which end at (x, y) on that anti-diagonal; whether a walk with at
    most one turn attains it; and the first five walks that do, in
    lexicographic order ('-' before '+').  Only those five are walked, so
    ties cost nothing, however many."""
    steps = len(ends) - 1
    points = {(x, steps - x): (ends[steps - x], ends[x]) for x in range(steps + 1)}
    best, marks = _lattice_max(_pareto_table(w, steps, steps, steps), w, points)
    if best == 0:  # every walk ties, and only some are marked
        return 0, True, ["".join(walk) for walk in islice(product("-+", repeat=steps), 5)]
    return best, BorderPath(_fewest_turns(marks, w, points)).turns <= 1, list(islice(_maximizers(marks, w, points), 5))


def discrete_border_max(r: int, s: int, t: int) -> tuple[BorderPath, Fraction]:
    """Maximize the scaled size-t count product exactly over all monotone
    lattice paths in the r x s rectangle, by a Pareto table of path sums.

    The value of a path with column heights b and packed partner a is

        (r^t + t * sum b_j^(t-1)) * (s^t + t * sum a_i^(t-1)) / (t!)^2

    compared exactly as integers.  Walking the path from (0, 0), a step right
    at height h adds t * h^(t-1) to the b-sum and a step up at column x adds
    t * x^(t-1) to the a-sum.  So ``_lattice_max`` marks every maximizing path
    from a table of the Pareto-maximal sums at each lattice point, without
    visiting the C(r+s, s) paths one by one, and ``_fewest_turns`` breaks the
    ties toward fewer turns, then the lexicographically smallest height
    sequence.  Capped at r + s <= 24.
    """
    if r < 0 or s < 0:
        raise ValueError("rectangle sides must be non-negative")
    if t < 2:
        raise ValueError(f"product maximization needs t >= 2, got {t}")
    if r + s > MAX_RECTANGLE:
        raise ValueError(f"path enumeration is capped at r + s <= {MAX_RECTANGLE}, got {r + s}")
    w = _border_weights(t, max(r, s))
    return _border_max(_pareto_table(w, s, r, r + s, _border_cut(w, t, [(r, s)])), w, r, s, t)


def one_turn_value(t: int, q: float) -> float:
    """Scaled count product of a one-turn border with independent-side
    fraction q:  q^t (1-q)^(t-1) (1 + (t-1) q)."""
    return q**t * (1 - q) ** (t - 1) * (1 + (t - 1) * q)


def leading_term_bound(t: int) -> tuple[float, float]:
    """Closed-form optimal split in (0, 1) and its value one_turn_value(t, split),
    t >= 3; the leading term of the product bound is (n^t / t!)^2 * value."""
    if t < 3:
        raise ValueError(f"leading-term analysis needs t >= 3, got {t}")
    split = 0.25 * (t - 2 + sqrt(t * t + 4 * t - 4)) / (t - 1)
    return split, one_turn_value(t, split)
