"""Small graph builders shared across test modules."""

from ngbounds import Graph
from ngbounds.oracle import _graph_from_rng


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def random_graph(n: int, rng) -> Graph:
    """G(n, 1/2) drawn from ``rng``, by the library's own sampler."""
    return _graph_from_rng(n, rng)


def gnp_graph(n: int, p: float, rng) -> Graph:
    """Each of the n(n-1)/2 edges present with probability p."""
    m = n * (n - 1) // 2
    mask = 0
    if m:
        for i, hit in enumerate(rng.random(m) < p):
            if hit:
                mask |= 1 << i
    return Graph.from_edge_mask(n, mask)
