import pytest

from ngbounds import Graph, emit_graph6, parse_graph6
from ngbounds.graphs import Graph6Error, edge_list, edge_slot
from ngbounds.oracle import rng_for

from helpers import complement, gnp_graph, path_graph, random_graph


def test_construction_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # not symmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(ValueError):
        Graph(63, (0,) * 63)
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # bit outside vertex range


@pytest.mark.parametrize("pair", [(0, 5), (0, -1), (3, 1)], ids=["past-n", "negative", "first-endpoint"])
def test_from_edges_refuses_a_vertex_outside_the_range(pair):
    with pytest.raises(ValueError, match=rf"edge \({pair[0]}, {pair[1]}\) has a vertex outside \[0, 3\)"):
        Graph.from_edges(3, [(0, 1), pair])


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


def test_graph6_known_codes():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g == Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert emit_graph6(g) == "D?{"

    assert parse_graph6("@") == Graph.empty(1)
    assert parse_graph6("A_") == Graph.complete(2)

    assert emit_graph6(Graph.complete(3)) == "Bw"
    assert parse_graph6("Bw") == Graph.complete(3)


def test_graph6_round_trip_random():
    for trial in range(10_000):
        rng = rng_for([42, trial])
        n = int(rng.integers(0, 21))
        g = random_graph(n, rng)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_errors_are_distinct():
    for text, message in (
        ("", "empty graph6 string"),
        (chr(62), r"header byte '>' \(ordinal 62\) outside \[63, 125\]"),
        ("~??", "long-form graph6 header '~' means n > 62, not supported"),
        ("D?", r"5-vertex code needs 2 data byte\(s\), got 1 \(missing bytes\)"),  # truncated body
        ("A_?", r"2-vertex code needs 1 data byte\(s\), got 2 \(trailing bytes\)"),  # trailing byte
        ("A" + chr(200), "data byte 1 .* outside graph6 range"),
        ("A" + chr(63 + 1), "nonzero padding bit in data byte 1"),  # nonzero padding bits for n = 2
    ):
        with pytest.raises(Graph6Error, match=f"^{message}$"):
            parse_graph6(text)


def test_mask_helpers():
    # slots (0, 1) = 0 and (2, 3) = 5 of the order (0, 1), (0, 2), (0, 3), (1, 2), ...
    assert Graph.from_edge_mask(4, 0b100001) == Graph.from_edges(4, [(0, 1), (2, 3)])
    for n in (2, 5, 62):
        assert [edge_slot(n, u, v) for u, v in edge_list(n)] == list(range(n * (n - 1) // 2))
        assert all(edge_slot(n, v, u) == edge_slot(n, u, v) for u, v in edge_list(n))
