import pytest

from ngbounds import Graph, complement, emit_graph6, is_clique, is_independent, parse_graph6
from ngbounds.graphs import (
    Graph6ByteError,
    Graph6HeaderError,
    Graph6LengthError,
    Graph6SizeError,
    edge_list,
    edge_slot,
    mask_of,
)
from ngbounds.oracle import rng_for

from helpers import gnp_graph, path_graph, random_graph


def test_construction_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # not symmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(ValueError):
        Graph(63, (0,) * 63)
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # bit outside vertex range


def test_asymmetry_error_names_the_first_pair_in_row_order():
    # (0, 2) and (1, 2) are both one-sided; (0, 2) comes first
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at pair \(0, 2\)$"):
        Graph(3, (0b000, 0b100, 0b001))
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at pair \(1, 2\)$"):
        Graph(3, (0b110, 0b101, 0b001))


def test_symmetric_rows_pass_validation_at_every_density():
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        rows = gnp_graph(62, p, rng_for([53, int(p * 10)])).adj
        assert Graph(62, rows).adj == rows
        for i, j in ((0, 61), (30, 31), (5, 40)):
            flipped = list(rows)
            flipped[j] ^= 1 << i
            with pytest.raises(ValueError, match=rf"pair \({i}, {j}\)$"):
                Graph(62, tuple(flipped))


def test_complement_fixtures():
    assert complement(Graph.complete(3)) == Graph.empty(3)
    assert complement(Graph.empty(5)) == Graph.complete(5)
    p3 = path_graph(3)
    assert complement(complement(p3)) == p3


def test_complement_involution_random():
    for trial in range(200):
        rng = rng_for([101, trial])
        n = int(rng.integers(0, 15))
        g = random_graph(n, rng)
        assert complement(complement(g)) == g


def test_is_clique():
    k3 = Graph.complete(3)
    assert is_clique(k3, 0b111)
    assert is_clique(k3, 0)  # empty set is a clique by convention
    assert is_clique(path_graph(3), 0b011)
    assert not is_clique(path_graph(3), 0b101)  # endpoints of the path
    assert is_clique(Graph.empty(4), 0b0100)  # singleton


def test_is_independent():
    assert is_independent(Graph.empty(3), 0b111)
    assert is_independent(Graph.complete(5), 0b00100)
    assert not is_independent(Graph.complete(2), 0b11)


def test_set_predicates_are_complement_dual():
    for trial in range(100):
        rng = rng_for([17, trial])
        n = int(rng.integers(1, 10))
        g = random_graph(n, rng)
        s = int(rng.integers(0, 2**n))
        assert is_independent(g, s) == is_clique(complement(g), s)
        if s.bit_count() >= 2:
            pairs_ok = all(
                g.has_edge(u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (s >> u) & 1 and (s >> v) & 1
            )
            assert is_clique(g, s) == pairs_ok


def test_set_predicate_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_clique(Graph.empty(2), 0b100)


def test_graph6_known_codes():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert emit_graph6(g) == "D?{"

    assert parse_graph6("@").n == 1
    assert parse_graph6("@").edge_count() == 0

    k2 = parse_graph6("A_")
    assert k2.edges() == [(0, 1)]

    assert emit_graph6(Graph.complete(3)) == "Bw"
    assert parse_graph6("Bw") == Graph.complete(3)


def test_graph6_round_trip_random():
    for trial in range(10_000):
        rng = rng_for([42, trial])
        n = int(rng.integers(0, 21))
        g = random_graph(n, rng)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_errors_are_distinct():
    with pytest.raises(Graph6HeaderError):
        parse_graph6("")
    with pytest.raises(Graph6HeaderError):
        parse_graph6(chr(62))
    with pytest.raises(Graph6SizeError):
        parse_graph6("~??")  # long form means n > 62
    with pytest.raises(Graph6LengthError):
        parse_graph6("D?")  # truncated body
    with pytest.raises(Graph6LengthError):
        parse_graph6("A_?")  # trailing byte
    with pytest.raises(Graph6ByteError):
        parse_graph6("A" + chr(200))
    with pytest.raises(Graph6ByteError):
        parse_graph6("A" + chr(63 + 1))  # nonzero padding bits for n = 2


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g.edge_mask() == Graph.from_edge_mask(4, g.edge_mask()).edge_mask()
    assert g.degree(0) == 1 and g.has_edge(3, 2)
    for n in (2, 5, 62):
        assert [edge_slot(n, u, v) for u, v in edge_list(n)] == list(range(n * (n - 1) // 2))
        assert all(edge_slot(n, v, u) == edge_slot(n, u, v) for u, v in edge_list(n))
