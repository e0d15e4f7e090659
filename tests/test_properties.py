"""Property tests (hypothesis, derandomized so every run draws the same cases)."""

from itertools import zip_longest
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from ngbounds import (
    BorderPath,
    Graph,
    GraphFamily,
    build,
    clique_profile,
    closed_form_counts,
    compress,
    emit_coloring,
    emit_graph6,
    independent_profile,
    parse_coloring,
    parse_graph6,
)
from ngbounds.graphs import Graph6Error, complement_rows, edge_list
from ngbounds.multicolor import ColoringFormatError
from ngbounds.packing import _walk_sums
from ngbounds.verify import _code_terms

from helpers import batch_profiles, complement, packed_pair, profile_by_scan, walk, walk_columns, walk_end, walk_heights


@st.composite
def graphs(draw, n_max: int = 14):
    n = draw(st.integers(0, n_max))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_edge_mask(n, mask)


@st.composite
def colorings(draw, n_max: int = 9, r_max: int = 5):
    n = draw(st.integers(0, n_max))
    r = draw(st.integers(1, r_max))
    colors = draw(st.lists(st.none() | st.integers(0, r - 1), min_size=comb(n, 2), max_size=comb(n, 2)))
    return n, r, colors


@st.composite
def mutated(draw, texts):
    """A drawn text with one byte replaced, inserted or deleted."""
    text = draw(texts)
    pos = draw(st.integers(0, len(text)))
    byte = chr(draw(st.integers(0, 255)))
    op = draw(st.sampled_from(("replace", "insert", "delete")))
    if op == "insert":
        return text[:pos] + byte + text[pos:]
    return text[:pos] + (byte if op == "replace" else "") + text[pos + 1 :]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs())
def test_clique_profile_matches_subset_scan(g):
    assert clique_profile(g) == profile_by_scan(g)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs())
def test_independent_profile_is_clique_profile_of_complement(g):
    assert independent_profile(g) == clique_profile(complement(g))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text("+-", max_size=15))
def test_code_walk_sums_are_the_size_counts_of_the_built_graph(code):
    # threshold_code_max walks the display code without the seed's step; its two sums are K_t and I_t
    g = build(walk(code))
    kp, ip = clique_profile(g), independent_profile(g)
    for t in range(2, 6):
        w, ends = _code_terms(len(code), t)
        assert _walk_sums(w, code, ends, ends) == ((kp[t], ip[t]) if t <= g.n else (0, 0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text("+-", max_size=15))
def test_walk_closed_form_matches_the_built_graph_and_its_sides_pack(code):
    path = walk(code)
    flipped = BorderPath(code + path.complemented().steps[-1])  # the seed on the other side of the split
    g = build(path)
    assert build(flipped) == g
    kp, ip = clique_profile(g), independent_profile(g)
    for t in range(2, 6):
        assert closed_form_counts(path, t) == closed_form_counts(flipped, t) == ((kp[t], ip[t]) if t <= g.n else (0, 0))
    for split in (path, flipped):
        # the clique side's non-neighbour counts are the Gale-Ryser packed partner of the independent side's degrees
        s, r = walk_end(split.steps)
        assert packed_pair(walk_heights(split.steps), r, s) == walk_columns(split.steps)[::-1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs(n_max=62))
def test_graph6_round_trip(g):
    text = emit_graph6(g)
    assert parse_graph6(text) == g
    assert emit_graph6(parse_graph6(text)) == text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(colorings())
def test_coloring_round_trip(coloring):
    n, r, colors = coloring
    fam = GraphFamily(n, r, colors)
    text = emit_coloring(fam)
    lines = [f"{u} {v} {c + 1}\n" for (u, v), c in zip(edge_list(n), colors) if c is not None]
    assert text == f"{n} {r}\n" + "".join(lines)
    assert parse_coloring(text) == fam
    assert emit_coloring(parse_coloring(text)) == text


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mutated(graphs(n_max=20).map(emit_graph6)))
def test_mutated_graph6_round_trips_or_is_refused(text):
    # a graph6 string either decodes to a graph that writes it back byte for
    # byte, or is refused with a Graph6Error, never another exception
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert emit_graph6(g) == text


@settings(derandomize=True, max_examples=500, deadline=None)
@given(mutated(colorings(n_max=6).map(lambda coloring: emit_coloring(GraphFamily(*coloring)))))
def test_mutated_coloring_round_trips_or_is_refused(text):
    # a coloring text either parses to a family that its own text parses
    # back to, or is refused with a ColoringFormatError naming one of its lines
    try:
        fam = parse_coloring(text)
    except ColoringFormatError as err:
        assert 1 <= err.line <= max(1, len(text.splitlines()))
        return
    assert parse_coloring(emit_coloring(fam)) == fam


def _at_least_at_every_size(low, high) -> bool:
    """Whether ``high`` is at least ``low`` entry by entry, a missing size
    counting as zero."""
    return all(a <= b for a, b in zip_longest(low, high, fillvalue=0))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(graphs(n_max=12))
def test_compression_never_lowers_a_count_of_any_size(g):
    # every compression of g, and g itself, counted in one batch with their complements
    pairs = [(x, y) for x in range(g.n) for y in range(g.n) if x != y]
    rows = [g.adj] + [compress(g, x, y).adj for x, y in pairs]
    profiles = batch_profiles(rows + [complement_rows(adj) for adj in rows])
    (cliques, *outs_k), (independents, *outs_i) = profiles[: len(rows)], profiles[len(rows) :]
    for (x, y), out_k, out_i in zip(pairs, outs_k, outs_i):
        assert _at_least_at_every_size(cliques, out_k), (x, y)
        assert _at_least_at_every_size(independents, out_i), (x, y)
