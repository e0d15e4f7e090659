from math import comb

import pytest

from ngbounds import (
    BorderPath,
    Graph,
    clique_profile,
    count_cliques,
    count_independent_sets,
    independent_profile,
)
from ngbounds.oracle import rng_for
from ngbounds.threshold import (
    build,
    closed_form_counts,
    extremal_one_turn_codes,
    recognize,
)

from helpers import complement, cycle_graph, edge_count, path_graph, walk, walk_columns, walk_end, walk_heights


def random_code(n, rng):
    return walk("".join("+" if rng.integers(0, 2) else "-" for _ in range(n - 1)))


def test_code_validation_and_orientation():
    with pytest.raises(ValueError):
        BorderPath("+x")
    path = walk("++-")  # display order: leftmost = added last
    assert path.steps == "++--" and path.code == "++-"
    g = build(path)
    # vertex 1 came first, as '-': it only sees the two '+' vertices added after it
    assert g.n == 4 and g.adj[1] == g.adj[0] == 0b1100
    assert walk("-+").complemented() == BorderPath("+--")


def test_build_fixtures():
    for n in range(1, 8):
        assert build(walk("+" * (n - 1))) == Graph.complete(n)
        assert build(walk("-" * (n - 1))) == Graph.empty(n)
    g = build(walk("-+"))  # dominating then isolate
    assert edge_count(g) == 1
    assert count_cliques(g) == 5
    assert count_independent_sets(g) == 6
    assert build(BorderPath("")) == Graph(0, ())


def test_display_block_codes_build_the_advertised_shapes():
    # all + left of all - in display order: complete join of the two sides
    joined = walk("++---")
    assert recognize(build(joined)) == joined
    assert walk_end(joined.steps) == (4, 2)  # (independent side, clique side)
    assert walk_heights(joined.steps) == (2, 2, 2, 2)  # every independent vertex sees the whole clique side
    assert walk_columns(joined.steps) == (0, 0)
    # all - left of all +: disjoint union of a clique and an independent set
    disjoint = walk("--+++")
    assert walk_end(disjoint.steps) == (2, 4)
    assert walk_heights(disjoint.steps) == (0, 0)
    assert edge_count(build(disjoint)) == comb(4, 2)


def test_recognize_fixtures():
    assert recognize(cycle_graph(4)) is None
    assert recognize(Graph.complete(5)) == BorderPath("+++++")
    assert recognize(Graph.empty(1)) == BorderPath("-")
    assert recognize(Graph(0, ())) is None  # no walk without a seed


def test_recognize_round_trip_random_codes():
    for trial in range(1000):
        rng = rng_for([53, trial])
        n = int(rng.integers(1, 15))
        path = random_code(n, rng)
        g = build(path)
        rec = recognize(g)
        assert rec is not None
        again = build(rec)
        # threshold graphs are determined by their degree multiset
        assert sorted(row.bit_count() for row in g.adj) == sorted(row.bit_count() for row in again.adj)
        assert recognize(again) == rec


def test_complement_code_builds_the_complement():
    for trial in range(300):
        rng = rng_for([59, trial])
        n = int(rng.integers(1, 15))
        path = random_code(n, rng)
        assert build(path.complemented()) == complement(build(path))


def test_split_degrees_fixtures():
    assert walk_end(recognize(Graph.complete(6)).steps) == (0, 6)

    # complete join of an edge and two isolated vertices
    ks = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    path = recognize(ks)
    assert walk_end(path.steps) == (2, 2)
    assert walk_columns(path.steps) == (0, 0)
    assert walk_heights(path.steps) == (2, 2)


def test_split_degrees_packing_fixture():
    # triangle {0,1,2}; vertex 2 also sees 4, 5, 6; vertices 0, 1 also see 6.
    # Vertex 6 is joined to the whole triangle, so two splits are valid:
    # (3, 4) with degrees (0,1,1,3) or (4, 3) with vertex 6 absorbed into the
    # clique side.  The dominating-first peel puts the seed on the clique side;
    # flipping the seed's step gives the other split.
    g = Graph.from_edges(
        7,
        [(0, 1), (0, 2), (1, 2), (2, 4), (2, 5), (2, 6), (0, 6), (1, 6)],
    )
    path = recognize(g)
    assert walk_end(path.steps) == (3, 4)
    assert walk_columns(path.steps)[::-1] == (3, 3, 3, 1)
    assert walk_heights(path.steps) == (0, 1, 1)
    other = BorderPath(path.code + "-")
    assert walk_heights(other.steps) == (0, 1, 1, 3) and build(other) == build(path)
    for split in (path, other):
        assert closed_form_counts(split, 2) == (edge_count(g), 21 - edge_count(g))


def test_split_degrees_rejects_non_threshold():
    # C4, P4 and 2K2, the forbidden induced subgraphs of threshold graphs, have no walk
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    for g in (cycle_graph(4), path_graph(4), two_edges):
        assert recognize(g) is None


def test_closed_form_fixtures():
    ks = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert closed_form_counts(recognize(ks), 2) == (5, 1)
    for n in (2, 5, 9):
        path = BorderPath("+" * n)
        for t in range(2, n + 1):
            assert closed_form_counts(path, t) == (comb(n, t), 0)
    with pytest.raises(ValueError):
        closed_form_counts(BorderPath("+++"), 1)
    # the walk needs no graph, so no vertex cap
    assert closed_form_counts(BorderPath("+" * 1000), 3) == (comb(1000, 3), 0)


def test_closed_form_matches_profiles_random_codes():
    for trial in range(300):
        rng = rng_for([61, trial])
        n = int(rng.integers(1, 17))
        path = random_code(n, rng)
        g = build(path)
        kp = clique_profile(g)
        ip = independent_profile(g)
        for t in (2, 3, 4):
            assert closed_form_counts(path, t) == ((kp[t], ip[t]) if t <= n else (0, 0))


def test_extremal_one_turn_codes():
    joined, disjoint = extremal_one_turn_codes(60, 3)
    assert len(joined.steps) == len(disjoint.steps) == 60
    assert walk_end(joined.steps) == (39, 21)  # ceil(0.6404 * 60) = 39 independent
    assert walk_end(disjoint.steps) == (21, 39)
    assert joined.code == "+" * 21 + "-" * 38 and recognize(build(joined)) == joined
    # the two extremal graphs are complements, so their size-t products agree
    assert complement(build(joined)) == build(disjoint)
    assert [path.code for path in extremal_one_turn_codes(1, 3)] == ["", ""]
