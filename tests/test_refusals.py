"""Each library entry point refuses an out-of-range argument with its own message."""

import re

import pytest

from ngbounds import (
    ExtremalRecord,
    Graph,
    GraphFamily,
    count_good_sequences,
    discrete_border_max,
    exhaustive_coloring_extremal,
    exhaustive_extremal,
    extremal_one_turn_codes,
    good_sequence_certificate,
    merge_records,
    multicolor_upper_bound,
    random_pi_exponent,
)

EMPTY_SHARD = ExtremalRecord(3, "pi", "max", None, None, (), 0)
MONOCHROMATIC_K3 = GraphFamily(3, 1, [0, 0, 0])

REFUSALS = [
    (lambda: Graph(3, (0, 0)), "expected 3 adjacency rows, got 2"),
    (lambda: Graph.from_edges(3, [(1, 1)]), "loop edge (1, 1)"),
    (lambda: Graph(2, (1.0, 0)), "row 0 (1.0) is not an integer"),
    (lambda: Graph(2, (0, "1")), "row 1 ('1') is not an integer"),
    (lambda: Graph.from_edges(3, [(0.0, 1)]), "edge (0.0, 1) has a vertex that is not an integer"),
    (lambda: Graph.from_edges(3, [(0, "2")]), "edge (0, '2') has a vertex that is not an integer"),
    # the vertex count is checked before any edge
    (lambda: Graph.from_edges(-2, [(0, 1)]), "vertex count must be in [0, 62], got -2"),
    (lambda: Graph.from_edge_mask(3, -1), "edge mask must be in [0, 2^3) for n=3, got -1"),
    (lambda: Graph.from_edge_mask(3, 8), "edge mask must be in [0, 2^3) for n=3, got 8"),
    # the vertex count is checked before the mask
    (lambda: Graph.from_edge_mask(-1, 5), "vertex count must be in [0, 62], got -1"),
    (lambda: Graph.from_edge_mask(63, 1 << 2000), "vertex count must be in [0, 62], got 63"),
    (lambda: GraphFamily(3, 2, [0.5, 0, 1]), "color 0.5 of pair (0, 1) is not an integer"),
    (lambda: GraphFamily(3, 2, [0, 1, "1"]), "color '1' of pair (1, 2) is not an integer"),
    (lambda: good_sequence_certificate(MONOCHROMATIC_K3), "certificates need at least 2 colors"),
    (lambda: count_good_sequences(MONOCHROMATIC_K3, 4), "sequence length must be in [0, 3], got 4"),
    (lambda: count_good_sequences(MONOCHROMATIC_K3, -1), "sequence length must be in [0, 3], got -1"),
    (lambda: multicolor_upper_bound(3, 0), "need at least one color"),
    (lambda: exhaustive_extremal(5, "pi_t", "max", t=6), "size t must be in [0, 5], got 6"),
    (lambda: exhaustive_extremal(3, "pi", "max", shards=0), "need at least one shard"),
    (lambda: exhaustive_extremal(3, "pi", "max", shards=2, shard=2), "shard must be in [0, 2), got 2"),
    (lambda: merge_records([]), "nothing to merge"),
    (lambda: merge_records([EMPTY_SHARD, EMPTY_SHARD]), "all shards were empty"),
    (lambda: exhaustive_coloring_extremal(3, 2, "sum", "mid"), "direction must be 'min' or 'max', got 'mid'"),
    (lambda: exhaustive_coloring_extremal(3, 0, "sum", "max"), "need at least one color"),
    (lambda: random_pi_exponent(5, 0, 1), "need at least one trial"),
    (lambda: discrete_border_max(-1, 2, 3), "rectangle sides must be non-negative"),
    (lambda: discrete_border_max(2, -1, 3), "rectangle sides must be non-negative"),
    (lambda: discrete_border_max(2, 2, 1), "product maximization needs t >= 2, got 1"),
    (lambda: extremal_one_turn_codes(0, 3), "need at least one vertex"),
]


@pytest.mark.parametrize("call,message", REFUSALS, ids=[message for _, message in REFUSALS])
def test_an_out_of_range_argument_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
