"""Graph compression: transfer one vertex's private neighbors to another.

Compressing from x to y rewires every vertex adjacent to x but not y so it
becomes adjacent to y instead.  This never decreases the number of
independent sets (of any fixed size), and by complement symmetry never
decreases clique counts either, so the sum and product quantities are
monotone under compression.  Iterating compressions drives any graph to a
threshold graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits


@dataclass(frozen=True)
class NeighborhoodPartition:
    """How the other n-2 vertices see an ordered pair (x, y).

    only_x: adjacent to x but not y (x's private neighbors)
    only_y: adjacent to y but not x
    both:   adjacent to both
    neither: adjacent to neither
    """

    only_x: int
    only_y: int
    both: int
    neither: int


def neighborhood_partition(g: Graph, x: int, y: int) -> NeighborhoodPartition:
    """Split V \\ {x, y} by adjacency to x and y.  The four masks are disjoint
    and cover everything outside the pair."""
    if x == y:
        raise ValueError("x and y must be distinct")
    rest = g.vertex_mask & ~(1 << x) & ~(1 << y)
    ax = g.adj[x] & rest
    ay = g.adj[y] & rest
    return NeighborhoodPartition(ax & ~ay, ay & ~ax, ax & ay, rest & ~ax & ~ay)


def _move(rows: list[int], x: int, y: int) -> int:
    """Move x's private neighbors over to y in the bit-rows ``rows``, in place.
    Returns the moved set; only rows x, y and the moved vertices change."""
    bit_x, bit_y = 1 << x, 1 << y
    moved = rows[x] & ~rows[y] & ~bit_y
    rows[x] &= ~moved
    rows[y] |= moved
    for v in iter_bits(moved):
        rows[v] = (rows[v] & ~bit_x) | bit_y
    return moved


def compress(g: Graph, x: int, y: int) -> Graph:
    """Move x's private neighbors over to y; the edge (or non-edge) xy and all
    edges not touching the pair are unchanged."""
    if x == y:
        raise ValueError("x and y must be distinct")
    rows = list(g.adj)
    return Graph(g.n, tuple(rows)) if _move(rows, x, y) else g


def _next_pivot(rows: list[int], degs: list[int], clean: int, changed: int) -> tuple[int, int] | None:
    """Smallest applicable pivot (source, target) of the bit-rows ``rows`` with
    degrees ``degs``, or None when the graph is already threshold.

    A pair is applicable when both vertices have private neighbors (i.e. it
    witnesses that closed neighborhoods are not nested).  It is oriented so
    the target has degree >= the source (ties: lower index is the target);
    this makes the sum of squared degrees strictly increase at every applied
    pivot, which bounds the pivot count.  The scan is source-first: for
    s = 0, 1, ... it tries, in increasing order, each w that would be the
    target of the pair {s, w}.  An applicable pair has one orientation, so
    the first hit is the lexicographically smallest applicable oriented
    pair: the pivot a scan of every pair picks, so traces are reproducible.

    The caller promises that no source below ``clean`` has an applicable
    target outside the vertex mask ``changed``; ``clean = changed = 0``
    promises nothing and scans every pair.  Such a source s < ``clean``
    outside ``changed`` tries only the targets in ``changed``, still in
    increasing order, and every other source tries all; the first hit is
    the same smallest pair.

    After pivot (x, y) moved the set M, ``clean = x`` and ``changed = {y}``
    keep that promise.  The scan that found (x, y) saw no hit for any
    source below x, and the move rewrote only the rows of M, x and y and
    the degrees of x and y, so only a pair touching M, x or y can have
    become applicable, and neither x nor M gives a source s < x, s != y,
    a new one:
    - x: its degree only fell, so s meets x as a target only if it did
      before, and x's own private neighbours only shrank.  Before the
      pivot (s, x) was not applicable and x had the larger degree, so N(s)
      lay inside N[x]; s needs a new private neighbour against x, one in
      M, or y once s itself moved and x, y are not adjacent.  Either way
      (s, y) was applicable before the pivot, and the scan would have
      stopped at s.
    - m in M: m swapped x for y, and a vertex outside M | {x, y} that is
      adjacent to x is adjacent to y, so the swap can only make a pair of
      m with such a vertex inapplicable; two moved vertices see x and y
      alike.
    """
    touched = [(w, (rows[w], degs[w])) for w in iter_bits(changed)]
    for s, (row_s, deg_s) in enumerate(zip(rows, degs)):
        not_s = ~row_s & ~(1 << s)
        for w, (row_w, deg_w) in touched if s < clean and not changed >> s & 1 else enumerate(zip(rows, degs)):
            if (deg_w > deg_s or (deg_w == deg_s and w < s)) and row_w & not_s and row_s & ~row_w & ~(1 << w):
                return s, w
    return None


def compress_to_threshold(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Compress until no pivot applies; returns the result and the pivot list.

    Replaying the (source, target) pivots from ``g`` reproduces the output.
    The output passes threshold recognition, and the sum/product quantities
    never decrease along the trace.
    """
    rows = list(g.adj)
    degs = [row.bit_count() for row in rows]
    pivots: list[tuple[int, int]] = []
    clean = changed = 0
    while (pivot := _next_pivot(rows, degs, clean, changed)) is not None:
        x, y = pivot
        moved = _move(rows, x, y)
        k = moved.bit_count()  # a moved vertex swaps x for y: its degree stays
        degs[x] -= k
        degs[y] += k
        pivots.append(pivot)
        clean, changed = x, 1 << y
    return Graph(g.n, tuple(rows)), pivots
