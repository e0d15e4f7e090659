"""Property tests (hypothesis, derandomized so every run draws the same cases)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ngbounds import Graph, clique_profile, complement, independent_profile, profile_by_scan


@st.composite
def graphs(draw, n_max: int = 14):
    n = draw(st.integers(0, n_max))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_edge_mask(n, mask)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs())
def test_clique_profile_matches_subset_scan(g):
    assert clique_profile(g).by_size == profile_by_scan(g).by_size


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs())
def test_independent_profile_is_clique_profile_of_complement(g):
    assert independent_profile(g).by_size == clique_profile(complement(g)).by_size
