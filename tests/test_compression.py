from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngbounds import (
    Graph,
    clique_profile,
    complement,
    compress,
    compress_to_threshold,
    count_independent_sets,
    independent_profile,
    neighborhood_partition,
    parse_graph6,
    pi,
)
from ngbounds import verify
from ngbounds.compression import _move, _next_pivot
from ngbounds.graphs import emit_graph6
from ngbounds.oracle import rng_for, sample_random_graph
from ngbounds.threshold import build, recognize

from helpers import cycle_graph, full_scan_pivot, gnp_graph, random_graph, walk

TRACE_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "compress_trace"


def _full_scan_pivot(g):
    """Oracle: the pivot search as a scan of every pair, one
    ``NeighborhoodPartition`` and one ``Graph`` per pivot."""
    degs = [row.bit_count() for row in g.adj]
    best = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            part = neighborhood_partition(g, u, v)
            if part.only_x and part.only_y:
                cand = (u, v) if degs[v] > degs[u] else (v, u)
                if best is None or cand < best:
                    best = cand
    return best


def _full_scan_compress_to_threshold(g):
    pivots = []
    while (pivot := _full_scan_pivot(g)) is not None:
        g = compress(g, *pivot)
        pivots.append(pivot)
    return g, pivots


def test_partition_fixtures():
    g = Graph.from_edges(3, [(0, 2)])  # x=0, y=1, z=2
    part = neighborhood_partition(g, 0, 1)
    assert (part.only_x, part.only_y, part.both, part.neither) == (0b100, 0, 0, 0)

    part = neighborhood_partition(Graph.complete(3), 0, 1)
    assert part.both == 0b100 and part.only_x == part.only_y == part.neither == 0

    part = neighborhood_partition(Graph.empty(3), 0, 1)
    assert part.neither == 0b100 and part.only_x == part.only_y == part.both == 0


def test_partition_covers_everything():
    for trial in range(100):
        rng = rng_for([3, trial])
        n = int(rng.integers(2, 12))
        g = random_graph(n, rng)
        x = int(rng.integers(n))
        y = (x + 1 + int(rng.integers(n - 1))) % n
        part = neighborhood_partition(g, x, y)
        pieces = [part.only_x, part.only_y, part.both, part.neither]
        assert sum(p.bit_count() for p in pieces) == n - 2
        assert part.only_x | part.only_y | part.both | part.neither == g.vertex_mask & ~(1 << x) & ~(1 << y)
        for a in pieces:
            for b in pieces:
                assert a is b or a & b == 0


def test_partition_rejects_equal_vertices():
    with pytest.raises(ValueError):
        neighborhood_partition(Graph.empty(3), 1, 1)
    with pytest.raises(ValueError):
        compress(Graph.empty(3), 2, 2)


def test_compress_single_edge():
    g = Graph.from_edges(3, [(0, 2)])
    out = compress(g, 0, 1)
    assert out.edges() == [(1, 2)]
    assert count_independent_sets(g) == count_independent_sets(out) == 6


def test_compress_identity_when_no_private_neighbors():
    g = Graph.from_edges(3, [(1, 2)])  # x=0 has nothing to move
    assert compress(g, 0, 1) == g


def test_compress_moves_only_private_neighbors():
    for trial in range(200):
        rng = rng_for([31, trial])
        n = int(rng.integers(2, 11))
        g = random_graph(n, rng)
        x = int(rng.integers(n))
        y = (x + 1 + int(rng.integers(n - 1))) % n
        before = neighborhood_partition(g, x, y)
        out = compress(g, x, y)
        after = neighborhood_partition(out, x, y)
        assert after.only_x == 0
        assert after.only_y == before.only_x | before.only_y
        assert after.both == before.both
        assert after.neither == before.neither
        assert out.has_edge(x, y) == g.has_edge(x, y)
        # untouched edges stay put
        pair = (1 << x) | (1 << y)
        for v in range(n):
            if not (pair >> v) & 1:
                assert out.adj[v] & ~pair == g.adj[v] & ~pair


def test_compress_complement_relation():
    for trial in range(300):
        rng = rng_for([37, trial])
        n = int(rng.integers(2, 11))
        g = random_graph(n, rng)
        x = int(rng.integers(n))
        y = (x + 1 + int(rng.integers(n - 1))) % n
        assert complement(compress(g, x, y)) == compress(complement(g), y, x)


def test_compress_monotone_counts():
    for trial in range(500):
        rng = rng_for([41, trial])
        n = int(rng.integers(2, 12))
        g = random_graph(n, rng)
        x = int(rng.integers(n))
        y = (x + 1 + int(rng.integers(n - 1))) % n
        out = compress(g, x, y)
        before = independent_profile(g).by_size
        after = independent_profile(out).by_size
        assert all(a <= b for a, b in zip(before, after))
        assert all(a <= b for a, b in zip(clique_profile(g).by_size, clique_profile(out).by_size))


def test_compress_to_threshold_fixed_point_on_threshold_graphs():
    for trial in range(100):
        rng = rng_for([43, trial])
        n = int(rng.integers(1, 13))
        g = build(walk("".join("+" if rng.integers(0, 2) else "-" for _ in range(n - 1))))
        out, pivots = compress_to_threshold(g)
        assert pivots == []
        assert out == g


def test_compress_to_threshold_on_cycles():
    c4 = cycle_graph(4)
    out, pivots = compress_to_threshold(c4)
    assert recognize(out) is not None
    assert pi(out) >= pi(c4)
    assert pivots  # C_4 is the smallest non-threshold graph

    c5 = cycle_graph(5)
    out5, _ = compress_to_threshold(c5)
    assert pi(c5) == 121
    assert pi(out5) >= 121


def test_squared_degree_sum_strictly_increases():
    for trial in range(200):
        rng = rng_for([47, trial])
        n = int(rng.integers(2, 12))
        g = random_graph(n, rng)
        final, pivots = compress_to_threshold(g)
        assert len(pivots) <= n * n
        cur = g
        metric = sum(d * d for d in (cur.degree(v) for v in range(n)))
        for x, y in pivots:
            cur = compress(cur, x, y)
            nxt = sum(d * d for d in (cur.degree(v) for v in range(n)))
            assert nxt > metric
            metric = nxt
        assert cur == final
        assert recognize(final) is not None


def test_c4_and_c5_pivot_lists():
    out4, pivots4 = compress_to_threshold(cycle_graph(4))
    assert pivots4 == [(1, 0)]
    assert out4.adj == (0b1110, 0b0001, 0b1001, 0b0101)
    out5, pivots5 = compress_to_threshold(cycle_graph(5))
    assert pivots5 == [(1, 0), (1, 3)]
    assert out5.adj == (0b11100, 0, 0b01001, 0b10101, 0b01001)


def test_next_pivot_on_rows():
    # clean = changed = 0 promises nothing: a scan of every pair
    # P_3 is threshold: the edge 01 makes 1 adjacent to 0, not a private neighbor of 0
    assert _next_pivot([0b010, 0b101, 0b010], [1, 2, 1], 0, 0) is None
    assert _next_pivot(list(cycle_graph(4).adj), [2, 2, 2, 2], 0, 0) == (1, 0)
    # the degrees decide the orientation: with deg 0 < deg 1 vertex 0 is the source
    assert _next_pivot(list(cycle_graph(4).adj), [1, 2, 2, 2], 0, 0) == (0, 1)


def test_next_pivot_restricted_scan_finds_a_pair_made_by_the_last_pivot():
    g = Graph.from_edge_mask(5, 193)
    rows = list(g.adj)
    degs = [row.bit_count() for row in rows]
    assert _next_pivot(rows, degs, 0, 0) == (2, 0)
    moved = _move(rows, 2, 0)
    assert moved == 0b1000
    degs = [row.bit_count() for row in rows]
    # source 1 had no applicable target before the pivot and its row did not
    # change; (1, 0) applies now only because the pivot rewrote row 0
    assert _next_pivot(rows, degs, 2, moved | 0b101) == (1, 0) == full_scan_pivot(rows, degs)
    # with 0 left out of the changed set the restricted scan never tries it
    assert _next_pivot(rows, degs, 2, moved | 0b100) != (1, 0)


def test_pivot_search_matches_full_scan_on_seeded_graphs():
    for n in range(2, 31):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = gnp_graph(n, p, rng_for([53, n, int(p * 10)]))
            assert compress_to_threshold(g) == _full_scan_compress_to_threshold(g), (n, p)


def test_pivot_search_matches_full_scan_pivot_by_pivot_past_thirty_vertices():
    # the carried (clean, changed) state restricts the most sources on large
    # graphs; each pivot of the trace must be the one a scan of every pair picks
    for n in (31, 40, 50, 62):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = gnp_graph(n, p, rng_for([59, n, int(p * 10)]))
            final, pivots = compress_to_threshold(g)
            rows = list(g.adj)
            degs = [row.bit_count() for row in rows]
            for step, pivot in enumerate(pivots):
                assert full_scan_pivot(rows, degs) == pivot, (n, p, step)
                _move(rows, *pivot)
                degs = [row.bit_count() for row in rows]
            assert full_scan_pivot(rows, degs) is None, (n, p)
            assert tuple(rows) == final.adj, (n, p)


@pytest.mark.parametrize("name", ["g01", "g02", "g03", "g04"])
def test_pivot_search_matches_full_scan_on_trace_inputs(name):
    g = parse_graph6((TRACE_INPUTS / f"{name}.g6").read_text(encoding="ascii").strip())
    assert compress_to_threshold(g) == _full_scan_compress_to_threshold(g)


@st.composite
def graphs(draw, n_max: int = 16):
    n = draw(st.integers(1, n_max))  # threshold codes start at one vertex
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_edge_mask(n, mask)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graphs())
def test_pivots_replay_and_follow_the_orientation_rule(g):
    final, pivots = compress_to_threshold(g)
    cur = g
    for x, y in pivots:
        part = neighborhood_partition(cur, x, y)
        assert part.only_x and part.only_y
        assert cur.degree(y) > cur.degree(x) or (cur.degree(y) == cur.degree(x) and y < x)
        cur = compress(cur, x, y)
    assert cur == final
    assert recognize(final) is not None


def _suite_trial(want):
    """The first seed below 100 at which trial 0 of ``verify_compression``
    (n_max = 12) draws a graph g and a pair (x, y) such that
    ``want(g, compress(g, x, y), *compress_to_threshold(g))`` holds, returned
    with g, x and y.  The draw repeats the suite's own."""
    for seed in range(100):
        rng = rng_for([seed, 0])
        n = int(rng.integers(2, 13))
        g = sample_random_graph(n, rng)
        x = int(rng.integers(n))
        y = int(rng.integers(n - 1))
        y += y >= x
        if want(g, compress(g, x, y), *compress_to_threshold(g)):
            return seed, g, x, y
    raise AssertionError("no seed below 100 draws such a trial")


def _lower_counts_on(monkeypatch, rows):
    """Make the suite's counting engine report one vertex fewer on ``rows``."""
    real = verify._tree_profile

    def lowered(r):
        prof = real(r)
        return prof[:1] + (prof[1] - 1,) + prof[2:] if tuple(r) == rows else prof

    monkeypatch.setattr(verify, "_tree_profile", lowered)


def _assert_one_violation(seed, template, g):
    """Trial 0 at ``seed`` fails with the line ``template`` names, and its
    graph6 is the report's one counterexample."""
    g6 = emit_graph6(g)
    rep = verify.verify_compression(trials=1, n_max=12, seed=seed)
    assert not rep.passed
    assert rep.lines[0] == "VIOLATION: " + template.format(g6)
    assert rep.counterexamples == [g6]


def test_compression_suite_reports_a_count_that_drops_under_one_compression(monkeypatch):
    seed, g, x, y = _suite_trial(lambda g, squeezed, final, pivots: squeezed != g)
    assert verify.verify_compression(trials=1, n_max=12, seed=seed).passed
    _lower_counts_on(monkeypatch, compress(g, x, y).adj)
    _assert_one_violation(seed, f"size count dropped under compress({x}->{y}) on {{}}", g)


def test_compression_suite_reports_a_count_that_drops_along_the_trace(monkeypatch):
    seed, g, _, _ = _suite_trial(lambda g, squeezed, final, pivots: pivots and squeezed != final)
    _lower_counts_on(monkeypatch, compress_to_threshold(g)[0].adj)
    _assert_one_violation(seed, "product quantity dropped along the trace of {}", g)


def test_compression_suite_reports_a_pivot_list_that_does_not_replay(monkeypatch):
    seed, g, _, _ = _suite_trial(lambda g, squeezed, final, pivots: pivots)
    final, pivots = compress_to_threshold(g)
    monkeypatch.setattr(verify, "compress_to_threshold", lambda h: (final, pivots[:-1]))
    _assert_one_violation(seed, "replaying the pivot list of {} does not reproduce the output", g)
