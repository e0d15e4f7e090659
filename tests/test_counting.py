from math import comb, prod

import numpy as np
import pytest

from ngbounds import (
    Graph,
    build,
    clique_profile,
    independent_profile,
    pi,
    pi_t,
    sigma,
    sigma_t,
)
from ngbounds.counting import _frontier_leaves, _tree_profiles
from ngbounds.graphs import complement_rows
from ngbounds.oracle import rng_for
from ngbounds.threshold import closed_form_counts

from helpers import _walk_leaves, batch_profiles, complement, cycle_graph, gnp_graph, path_graph, profile_by_scan
from helpers import random_graph, walk, walker_profile


def test_profile_fixtures():
    assert clique_profile(Graph.complete(3)) == (1, 3, 3, 1)
    assert sum(clique_profile(Graph.complete(3))) == 8
    assert clique_profile(Graph.empty(3)) == (1, 3, 0, 0)
    assert sum(clique_profile(Graph.empty(3))) == 4
    assert clique_profile(path_graph(3)) == (1, 3, 2, 0)
    assert sum(clique_profile(path_graph(3))) == 6


def test_profile_conventions():
    for n in (0, 1, 4, 9):
        g = Graph.empty(n)
        prof = clique_profile(g)
        assert prof[0] == 1
        if n >= 1:
            assert prof[1] == n
        assert len(prof) == n + 1


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
        assert clique_profile(g) == profile_by_scan(g)


def test_scan_cap():
    with pytest.raises(ValueError):
        profile_by_scan(Graph.empty(21))


def test_complement_duality():
    for trial in range(100):
        rng = rng_for([29, trial])
        n = int(rng.integers(0, 13))
        g = random_graph(n, rng)
        assert independent_profile(g) == clique_profile(complement(g))
        assert clique_profile(g) == independent_profile(complement(g))


def test_sum_cap_small_exhaustive():
    # every graph on up to 5 vertices: sum <= 2^n + n + 1, equality only complete/empty;
    # each n's graphs and complements are counted in one batch
    for n in range(1, 6):
        cap = 2**n + n + 1
        full = 2 ** (n * (n - 1) // 2)
        rows = [Graph.from_edge_mask(n, mask).adj for mask in range(full)]
        profiles = batch_profiles(rows + [complement_rows(adj) for adj in rows])
        for mask, (kp, ip) in enumerate(zip(profiles, profiles[full:])):
            val = sum(kp) + sum(ip)
            assert val <= cap
            if val == cap:
                assert mask == 0 or mask == full - 1
            for t in range(2, n + 1):
                assert kp[t] + ip[t] <= comb(n, t)


def test_sized_sum_cap_at_six_via_scan():
    from math import comb

    from ngbounds import exhaustive_extremal

    for t in range(2, 7):
        rec = exhaustive_extremal(6, "sigma_t", "max", t=t)
        assert rec.value <= comb(6, t)


def test_large_dense_profile_is_exact():
    # 2^62 cliques: arbitrary precision must hold up
    g = Graph.complete(62)
    assert sum(clique_profile(g)) == 2**62
    assert pi(g) == 63 * 2**62
    for n in (0, 1, 20, 40, 62):
        binomials = tuple(comb(n, t) for t in range(n + 1))
        assert clique_profile(Graph.complete(n)) == binomials
        assert independent_profile(Graph.empty(n)) == binomials


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

    prof = rec((1 << g.n) - 1)
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
            scan = profile_by_scan(g)
            assert clique_profile(g) == scan
            assert independent_profile(complement(g)) == scan


def test_engine_matches_subset_scan_on_every_graph_to_six_vertices():
    # every labeled graph with n <= 6 puts each small candidate set, with
    # each of its edge counts, at some leaf of the tree
    for n in range(7):
        full = (1 << comb(n, 2)) - 1
        graphs = [Graph.from_edge_mask(n, mask) for mask in range(full + 1)]
        scans = [profile_by_scan(g) for g in graphs]
        # clique and independent-set profiles, as clique_profile and
        # independent_profile count them, in one batch per n
        profiles = batch_profiles([g.adj for g in graphs] + [complement_rows(g.adj) for g in graphs])
        for mask, scan in enumerate(scans):
            assert profiles[mask] == scan
            assert profiles[full + 1 + mask] == scans[full ^ mask]


def test_engine_matches_memoized_recursion_on_dense_graphs():
    for n in (24, 33, 45):
        for p in (0.2, 0.5, 0.8):
            g = gnp_graph(n, p, rng_for([37, n, int(p * 10)]))
            assert clique_profile(g) == _memo_profile(g)
            assert independent_profile(g) == _memo_profile(complement(g))


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
        prof = profile_by_scan(part)
        out = [0] * (len(conv) + len(prof) - 1)
        for a, x in enumerate(conv):
            for b, y in enumerate(prof):
                out[a + b] += x * y
        conv = out
    assert clique_profile(joined) == tuple(conv)
    ind = independent_profile(joined)
    assert ind[0] == 1
    scans = [profile_by_scan(complement(part)) for part in parts]
    for t in range(1, 63):
        assert ind[t] == sum(s[t] for s in scans if t < len(s))
    assert ind[1] == 62 and ind[17] == 0


def _frontier_tallies(row_lists) -> list[dict[int, int]]:
    """The numpy frontier's leaf counts by key, one dict per bit-rows list."""
    tallies = [{} for _ in row_lists]
    for graph, key, count in zip(*(a.tolist() for a in _frontier_leaves(row_lists))):
        tallies[graph][key] = count
    return tallies


def _same_leaves(row_lists) -> None:
    """The walker oracle and the numpy frontier walk one tree: equal leaf
    tallies per graph on every bit-rows list of ``row_lists``, counted as one
    batch, and the batch's profiles equal the walker's, expanded in Python."""
    assert _frontier_tallies(row_lists) == [_walk_leaves(rows) for rows in row_lists]
    assert _tree_profiles(row_lists) == [walker_profile(rows) for rows in row_lists]


def test_frontier_matches_walker_on_every_graph_to_five_vertices():
    _same_leaves([Graph.from_edge_mask(n, mask).adj for n in range(6) for mask in range(1 << comb(n, 2))])


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 17, 31, 32, 33, 47, 62])
def test_frontier_matches_walker_on_structured_graphs(n):
    rng = rng_for([41, n])
    graphs = [Graph.empty(n), Graph.from_edges(n, [(0, v) for v in range(1, n)])]  # empty, star
    if n:
        graphs.append(build(walk("".join("+-"[b] for b in rng.integers(0, 2, size=n - 1)))))
    _same_leaves([rows for g in graphs for rows in (g.adj, complement(g).adj)])


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_frontier_matches_walker_on_random_graphs(p):
    # one batch of every size from 0 to 62; to 50 at p = 0.9, where the
    # walker oracle takes about a second per graph at n = 62
    _same_leaves([gnp_graph(n, p, rng_for([47, n, int(p * 10)])).adj for n in range(51 if p == 0.9 else 63)])


def test_frontier_counts_mixed_sizes_in_one_batch():
    rng = rng_for([59])
    graphs = [gnp_graph(n, 0.5, rng) for n in (0, 1, 2, 12, 31, 32, 62)]
    graphs += [Graph.complete(62), Graph.empty(62), Graph.empty(0), Graph.complete(12)]
    row_lists = [g.adj for g in graphs] + [complement(g).adj for g in graphs]
    _same_leaves(row_lists)
    profiles = _tree_profiles(row_lists)
    assert profiles == [walker_profile(rows) for rows in row_lists]
    assert [len(prof) for prof in profiles] == [len(rows) + 1 for rows in row_lists]
    for g, prof in zip(graphs, profiles):
        if g.n <= 12:
            assert prof == profile_by_scan(g)
    k62 = tuple(comb(62, t) for t in range(63))
    assert profiles[7] == k62 and profiles[7][31] == comb(62, 31)  # the largest entry any profile has
    assert profiles[8] == (1, 62) + (0,) * 61
    assert profiles[len(graphs) + 8] == k62  # the empty graph's complement


def test_frontier_counts_an_empty_batch():
    assert _tree_profiles([]) == []
    assert [a.tolist() for a in _frontier_leaves([])] == [[], [], []]


def test_frontier_matches_walker_without_bitwise_count(monkeypatch):
    graphs = [gnp_graph(62, p, rng_for([53, int(p * 10)])) for p in (0.3, 0.5, 0.7)]
    graphs += [gnp_graph(n, 0.5, rng_for([53, n])) for n in (0, 1, 2, 12, 31)]
    row_lists = [g.adj for g in graphs]
    want = [_walk_leaves(rows) for rows in row_lists]
    profiles = [clique_profile(g) for g in graphs]
    monkeypatch.delattr(np, "bitwise_count", raising=False)  # numpy 1.x has none
    assert _frontier_tallies(row_lists) == want
    assert _tree_profiles(row_lists) == profiles
    assert [clique_profile(g) for g in graphs] == profiles


def _poly_product(factors) -> tuple[int, ...]:
    out = [1]
    for f in factors:
        out = [sum(out[i - j] * c for j, c in enumerate(f) if 0 <= i - j < len(out)) for i in range(len(out) + len(f) - 1)]
    return tuple(out)


@pytest.mark.parametrize(
    "parts", [(62,), (1,) * 62, (31, 31), (20, 21, 21), (5, 7, 11, 13, 26), (1,) * 40 + (2,) * 11, (2, 2, 3, 3, 4, 4, 5, 39)]
)
def test_complete_multipartite_at_sixty_two_vertices(parts):
    # the join of empty graphs; a clique takes at most one vertex from each
    # part: prod(1 + a_i x)
    g = _join([Graph.empty(a) for a in parts])
    assert g.n == 62
    want = _poly_product([(1, a) for a in parts])
    assert clique_profile(g) == want + (0,) * (63 - len(want))
    assert sum(want) == prod(1 + a for a in parts)
    assert independent_profile(complement(g)) == clique_profile(g)


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_complements_of_cycles_and_paths_from_thirty_two_to_forty_four_vertices():
    # the cliques of the complement are the independent sets: C(n - k + 1, k)
    # of size k in P_n, n / (n - k) C(n - k, k) in C_n; in total F_{n+2} and
    # the Lucas number L_n = F_{n-1} + F_{n+1}
    for n in range(32, 45):
        path = tuple(comb(n - k + 1, k) for k in range(n + 1))
        cycle = (1,) + tuple(n * comb(n - k, k) // (n - k) if k < n else 0 for k in range(1, n + 1))
        assert clique_profile(complement(path_graph(n))) == path
        assert clique_profile(complement(cycle_graph(n))) == cycle
        assert sum(path) == _fibonacci(n + 2)
        assert sum(cycle) == _fibonacci(n - 1) + _fibonacci(n + 1)


def test_threshold_walks_at_sixty_two_vertices_meet_the_closed_forms():
    for trial in range(6):
        rng = rng_for([59, trial])
        path = walk("".join("+-"[b] for b in rng.integers(0, 2, size=61)))
        g = build(path)
        cliques, independents = clique_profile(g), independent_profile(g)
        for t in range(2, 63):
            assert (cliques[t], independents[t]) == closed_form_counts(path, t)
