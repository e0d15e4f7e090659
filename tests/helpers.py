"""Small graph builders shared across test modules."""

from ngbounds import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def random_graph(n: int, rng) -> Graph:
    m = n * (n - 1) // 2
    mask = 0
    if m:
        for i, bit in enumerate(rng.integers(0, 2, size=m)):
            if bit:
                mask |= 1 << i
    return Graph.from_edge_mask(n, mask)


def gnp_graph(n: int, p: float, rng) -> Graph:
    """Each of the n(n-1)/2 edges present with probability p."""
    m = n * (n - 1) // 2
    mask = 0
    if m:
        for i, hit in enumerate(rng.random(m) < p):
            if hit:
                mask |= 1 << i
    return Graph.from_edge_mask(n, mask)
