"""Threshold graphs: walks, recognition, and closed-form counts.

A threshold graph grows from a seed vertex by adding dominating (+) and
isolated (-) vertices; the + vertices form a clique, the - vertices an
independent set.  Its one stored form is a ``BorderPath`` walk of n steps,
read from the last-added vertex back to the seed: a '-' step at height y is
an independent vertex of degree y, a '+' step at column x a clique vertex
with x non-neighbours.  The seed fits either side, so its step may take
either symbol; the walk's ``code``, the display string the CLI prints, drops
it.  The size-t counts are sums along the walk (``closed_form_counts``).
"""

from __future__ import annotations

from math import ceil, comb

from .graphs import Graph, iter_bits
from .packing import BorderPath, _walk_sums, leading_term_bound


def build(path: BorderPath) -> Graph:
    """Realize a walk: vertex 0 is the seed, vertex k the k-th vertex added
    after it, so vertex k carries the k-th symbol of the code from the right."""
    n = len(path.steps)
    rows = [0] * n
    for k, sym in enumerate(reversed(path.code), start=1):
        if sym == "+":
            rows[k] = (1 << k) - 1
            for v in range(k):
                rows[v] |= 1 << k
    return Graph(n, tuple(rows))


def recognize(g: Graph) -> BorderPath | None:
    """Walk of a graph isomorphic to ``g``, or None if ``g`` is not threshold
    (or has no vertex to seed it).  Peels the lowest dominating vertex, else
    the lowest isolated one, until the seed remains; the seed's step repeats
    the last peeled symbol ('-' for one vertex)."""
    if g.n == 0:
        return None
    mask, adj = g.vertex_mask, g.adj
    steps: list[str] = []
    while mask.bit_count() > 1:
        size = mask.bit_count()
        for v in iter_bits(mask):
            if (adj[v] & mask).bit_count() == size - 1:
                steps.append("+")
                break
        else:
            for v in iter_bits(mask):
                if adj[v] & mask == 0:
                    steps.append("-")
                    break
            else:
                return None
        mask &= ~(1 << v)
    return BorderPath("".join(steps) + (steps[-1] if steps else "-"))


def extremal_one_turn_codes(n: int, t: int) -> tuple[BorderPath, BorderPath]:
    """The two one-turn walks at the rounded optimal split for size t.

    The side carrying the optimal fraction gets ceil(split * n) vertices
    (seed included).  First walk: complete join of clique and independent
    sides, the independent side being the large one.  Second walk: its
    complement, the disjoint union of a clique and an independent set, the
    clique being the large one.  Their size-t products agree.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    big = min(max(ceil(leading_term_bound(t).split * n), 1), n)
    complete_split = BorderPath("+" * (n - big) + "-" * big)
    return complete_split, complete_split.complemented()


def closed_form_counts(path: BorderPath, t: int) -> tuple[int, int]:
    """(clique count, independent count) of size t of the walk's graph.

    A size-t (t >= 2) clique is either inside the clique side or one
    independent vertex plus t-1 of its neighbours, all of which lie on the
    clique side; dually for independent sets.  So a '-' step at height y adds
    C(y, t-1) to the clique count, a '+' step at column x adds C(x, t-1) to
    the independent count, and the end point (x, y) adds C(y, t) and C(x, t).
    t < 2 is rejected: the decomposition needs sets meeting the independent
    side in at most one vertex to be counted through their anchor.
    """
    if t < 2:
        raise ValueError(f"closed-form counts need t >= 2, got {t}")
    n = len(path.steps)
    ends = [comb(k, t) for k in range(n + 1)]
    return _walk_sums([comb(k, t - 1) for k in range(n + 1)], path.steps, ends, ends)
