from math import comb

import pytest

from ngbounds import (
    Graph,
    build,
    clique_profile,
    complement,
    independent_profile,
    pi,
    pi_t,
    profile_by_scan,
    sigma,
    sigma_t,
)
from ngbounds.oracle import rng_for

from helpers import cycle_graph, gnp_graph, path_graph, random_graph, walk


def test_profile_fixtures():
    assert clique_profile(Graph.complete(3)).by_size == (1, 3, 3, 1)
    assert clique_profile(Graph.complete(3)).total == 8
    assert clique_profile(Graph.empty(3)).by_size == (1, 3, 0, 0)
    assert clique_profile(Graph.empty(3)).total == 4
    assert clique_profile(path_graph(3)).by_size == (1, 3, 2, 0)
    assert clique_profile(path_graph(3)).total == 6


def test_profile_conventions():
    for n in (0, 1, 4, 9):
        g = Graph.empty(n)
        prof = clique_profile(g)
        assert prof.by_size[0] == 1
        if n >= 1:
            assert prof.by_size[1] == n
        assert len(prof.by_size) == n + 1


def test_sigma_fixtures():
    for n in range(1, 8):
        assert sigma(Graph.complete(n)) == 2**n + n + 1
        assert sigma(Graph.empty(n)) == 2**n + n + 1
    assert sigma(Graph.empty(1)) == 4
    # P_3: 6 cliques, 5 independent sets (the only independent pair is the endpoints)
    assert sigma(path_graph(3)) == 11


def test_pi_fixtures():
    assert pi(Graph.complete(3)) == 32
    assert pi(Graph.empty(1)) == 4
    assert pi(path_graph(3)) == 30
    assert pi(cycle_graph(5)) == 121  # self-complementary: 11 cliques, 11 independent sets
    for n in range(1, 8):
        assert pi(Graph.complete(n)) == (n + 1) * 2**n


def test_sized_quantities():
    for trial in range(50):
        rng = rng_for([7, trial])
        n = int(rng.integers(1, 12))
        g = random_graph(n, rng)
        assert sigma_t(g, 0) == 2
        assert pi_t(g, 0) == 1
        assert sigma_t(g, 1) == 2 * n
        assert pi_t(g, 1) == n * n
    assert pi_t(path_graph(3), 2) == 2  # 2 edges, 1 non-edge


def test_sized_quantities_validate_t():
    g = Graph.complete(3)
    with pytest.raises(ValueError):
        sigma_t(g, 4)
    with pytest.raises(ValueError):
        pi_t(g, -1)


def test_profile_matches_subset_scan():
    for trial in range(100):
        rng = rng_for([13, trial])
        n = int(rng.integers(1, 17))
        g = random_graph(n, rng)
        assert clique_profile(g).by_size == profile_by_scan(g).by_size


def test_scan_cap():
    with pytest.raises(ValueError):
        profile_by_scan(Graph.empty(21))


def test_complement_duality():
    for trial in range(100):
        rng = rng_for([29, trial])
        n = int(rng.integers(0, 13))
        g = random_graph(n, rng)
        assert independent_profile(g).by_size == clique_profile(complement(g)).by_size
        assert clique_profile(g).by_size == independent_profile(complement(g)).by_size


def test_sum_cap_small_exhaustive():
    # every graph on up to 5 vertices: sum <= 2^n + n + 1, equality only complete/empty
    from math import comb

    for n in range(1, 6):
        cap = 2**n + n + 1
        full = 2 ** (n * (n - 1) // 2)
        for mask in range(full):
            g = Graph.from_edge_mask(n, mask)
            val = sigma(g)
            assert val <= cap
            if val == cap:
                assert mask == 0 or mask == full - 1
            for t in range(2, n + 1):
                assert sigma_t(g, t) <= comb(n, t)


def test_sized_sum_cap_at_six_via_scan():
    from math import comb

    from ngbounds import exhaustive_extremal

    for t in range(2, 7):
        rec = exhaustive_extremal(6, "sigma_t", "max", t=t)
        assert rec.value <= comb(6, t)


def test_large_dense_profile_is_exact():
    # 2^62 cliques: arbitrary precision must hold up
    g = Graph.complete(62)
    assert clique_profile(g).total == 2**62
    assert pi(g) == 63 * 2**62
    for n in (0, 1, 20, 40, 62):
        binomials = tuple(comb(n, t) for t in range(n + 1))
        assert clique_profile(Graph.complete(n)).by_size == binomials
        assert independent_profile(Graph.empty(n)).by_size == binomials


def _memo_profile(g: Graph) -> tuple[int, ...]:
    """The earlier engine, kept here only as a test oracle for n > 20:
    k(G) = k(G - v) + k(G[N(v)]) on the max-degree vertex v, memoized by
    the induced vertex set."""
    adj = g.adj
    memo = {0: (1,)}

    def rec(mask):
        if mask in memo:
            return memo[mask]
        v = max((w for w in range(g.n) if mask >> w & 1), key=lambda w: (adj[w] & mask).bit_count())
        without = rec(mask & ~(1 << v))
        nbrs = rec(mask & adj[v])
        out = list(without) + [0] * (len(nbrs) + 1 - len(without))
        for size, cnt in enumerate(nbrs):
            out[size + 1] += cnt
        memo[mask] = tuple(out)
        return memo[mask]

    prof = rec(g.vertex_mask)
    return prof + (0,) * (g.n + 1 - len(prof))


def test_engine_matches_subset_scan_at_every_size_to_twenty():
    for n in range(21):
        rng = rng_for([31, n])
        graphs = [
            Graph.empty(n),
            Graph.complete(n),
            Graph.from_edges(n, [(0, v) for v in range(1, n)]),  # star
            random_graph(n, rng),
        ]
        if n:
            symbols = "".join("+-"[b] for b in rng.integers(0, 2, size=n - 1))
            graphs.append(build(walk(symbols)))
        for g in graphs:
            scan = profile_by_scan(g).by_size
            assert clique_profile(g).by_size == scan
            assert independent_profile(complement(g)).by_size == scan


def test_engine_matches_subset_scan_on_every_graph_to_six_vertices():
    # every labeled graph with n <= 6 puts each small candidate set, with
    # each of its edge counts, at some leaf of the tree
    for n in range(7):
        full = (1 << comb(n, 2)) - 1
        graphs = [Graph.from_edge_mask(n, mask) for mask in range(full + 1)]
        scans = [profile_by_scan(g).by_size for g in graphs]
        for mask, (g, scan) in enumerate(zip(graphs, scans)):
            assert clique_profile(g).by_size == scan
            assert independent_profile(g).by_size == scans[full ^ mask]


def test_engine_matches_memoized_recursion_on_dense_graphs():
    for n in (24, 33, 45):
        for p in (0.2, 0.5, 0.8):
            g = gnp_graph(n, p, rng_for([37, n, int(p * 10)]))
            assert clique_profile(g).by_size == _memo_profile(g)
            assert independent_profile(g).by_size == _memo_profile(complement(g))


def _join(parts) -> Graph:
    """Disjoint union of ``parts`` plus every edge between different parts."""
    n = sum(part.n for part in parts)
    full = (1 << n) - 1
    rows = []
    offset = 0
    for part in parts:
        block = ((1 << part.n) - 1) << offset
        rows += [(row << offset) | (full ^ block) for row in part.adj]
        offset += part.n
    return Graph(n, tuple(rows))


def test_sixty_two_vertex_join_is_exact():
    # a clique of a join picks one clique in every part, so its profile is
    # the convolution of the parts' profiles; an independent set lies in
    # one part, so i_t adds up over the parts for t >= 1
    rng = rng_for([43])
    parts = [gnp_graph(k, p, rng) for k, p in ((15, 0.2), (15, 0.5), (16, 0.9), (16, 0.95))]
    joined = _join(parts)
    assert joined.n == 62
    conv = [1]
    for part in parts:
        prof = profile_by_scan(part).by_size
        out = [0] * (len(conv) + len(prof) - 1)
        for a, x in enumerate(conv):
            for b, y in enumerate(prof):
                out[a + b] += x * y
        conv = out
    assert clique_profile(joined).by_size == tuple(conv)
    ind = independent_profile(joined).by_size
    assert ind[0] == 1
    scans = [profile_by_scan(complement(part)) for part in parts]
    for t in range(1, 63):
        assert ind[t] == sum(s.count(t) for s in scans)
    assert ind[1] == 62 and ind[17] == 0
