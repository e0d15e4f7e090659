import math

import pytest

from ngbounds import (
    Graph,
    GraphFamily,
    emit_coloring,
    emit_graph6,
    exhaustive_coloring_extremal,
    exhaustive_extremal,
    merge_records,
    parse_coloring,
    random_pi_exponent,
    random_tournament,
    sample_random_coloring,
    sample_random_graph,
    sigma,
)
from ngbounds.graphs import edge_list
from ngbounds.multicolor import certificate_lower_bound


def test_exhaustive_pi_max_small():
    rec = exhaustive_extremal(3, "pi", "max")
    assert rec.value == 32
    assert set(rec.witnesses) == {emit_graph6(Graph.complete(3)), emit_graph6(Graph.empty(3))}
    assert rec.total_witnesses == 2
    assert rec.recheck()


def test_exhaustive_sigma_max_small():
    rec = exhaustive_extremal(4, "sigma", "max")
    assert rec.value == 2**4 + 4 + 1 == 21
    assert set(rec.witnesses) == {emit_graph6(Graph.complete(4)), emit_graph6(Graph.empty(4))}


def test_exhaustive_sigma_min_two_vertices():
    # both labeled graphs on 2 vertices have sum 7
    rec = exhaustive_extremal(2, "sigma", "min")
    assert rec.value == 7 == sigma(Graph.complete(2)) == sigma(Graph.empty(2))
    assert rec.total_witnesses == 2


def test_shard_merge_matches_full_scan():
    full = exhaustive_extremal(5, "pi_t", "max", t=2)
    parts = [exhaustive_extremal(5, "pi_t", "max", t=2, shards=3, shard=s) for s in range(3)]
    merged = merge_records(parts)
    assert merged.value == full.value
    assert merged.total_witnesses == full.total_witnesses
    # witness lists are capped samples, so only their validity is promised
    assert len(merged.witnesses) == len(full.witnesses) == 100
    assert merged.recheck() and full.recheck()
    assert exhaustive_extremal(5, "pi_t", "max", t=2, shards=3).value == full.value

    # below the cap the witness sets must agree exactly
    full = exhaustive_extremal(5, "pi", "max")
    merged = merge_records(
        exhaustive_extremal(5, "pi", "max", shards=4, shard=s) for s in range(4)
    )
    assert set(merged.witnesses) == set(full.witnesses)
    assert merged.total_witnesses == full.total_witnesses == 2


def test_exhaustive_extremal_validation():
    with pytest.raises(ValueError):
        exhaustive_extremal(8, "pi", "max")  # totals capped at 7
    with pytest.raises(ValueError):
        exhaustive_extremal(9, "pi_t", "max", t=3)
    with pytest.raises(ValueError):
        exhaustive_extremal(5, "pi_t", "max")  # missing t
    with pytest.raises(ValueError):
        exhaustive_extremal(5, "pi", "max", t=2)
    with pytest.raises(ValueError):
        exhaustive_extremal(5, "pi", "upward")
    with pytest.raises(ValueError):
        exhaustive_extremal(5, "tau", "max")


def test_merge_records_rejects_mixed_scans():
    a = exhaustive_extremal(3, "pi", "max")
    b = exhaustive_extremal(3, "sigma", "max")
    with pytest.raises(ValueError):
        merge_records([a, b])


def test_coloring_extremal_sum():
    rec = exhaustive_coloring_extremal(4, 3, "sum", "max")
    assert rec.value == 26
    assert rec.total_witnesses == 3  # exactly the monochromatic colorings
    for blob in rec.witnesses:
        fam = parse_coloring(blob)
        used = {fam.color_of(u, v) for u, v in edge_list(4)}
        assert len(used) == 1
    assert rec.recheck()


def test_coloring_extremal_product():
    rec = exhaustive_coloring_extremal(3, 2, "product", "max")
    assert rec.value == 32  # matches the two-color product maximum
    low = exhaustive_coloring_extremal(3, 3, "product", "min")
    assert low.value >= certificate_lower_bound(3, 3)
    assert low.recheck()
    # witnesses come in code order: slot 0 is the least significant digit
    mixed = exhaustive_coloring_extremal(3, 2, "product", "min")
    assert mixed.value == 30
    want = [[(code >> slot) & 1 for slot in range(3)] for code in range(1, 7)]
    assert list(mixed.witnesses) == [emit_coloring(GraphFamily.from_colors(3, 2, c)) for c in want]


def test_coloring_extremal_guard():
    with pytest.raises(ValueError):
        exhaustive_coloring_extremal(7, 3, "sum", "max")


def test_sample_random_graph_deterministic():
    a = sample_random_graph(20, seed=5)
    b = sample_random_graph(20, seed=5)
    c = sample_random_graph(20, seed=6)
    assert a == b
    assert a != c


def test_sample_random_graph_density():
    edges = 0
    trials = 100
    n = 30
    m = n * (n - 1) // 2
    for seed in range(trials):
        edges += sample_random_graph(n, seed).edge_count()
    mean = trials * m / 2
    spread = 3 * math.sqrt(trials * m * 0.25)
    assert abs(edges - mean) <= spread


def test_sample_random_coloring_frequencies():
    n, r = 20, 3
    m = n * (n - 1) // 2
    counts = [0] * r
    trials = 60
    for seed in range(trials):
        fam = sample_random_coloring(n, r, seed)
        assert fam.covers_all_edges
        for idx, g in enumerate(fam.members):
            counts[idx] += g.edge_count()
    total = trials * m
    for c in counts:
        assert abs(c - total / r) <= 3 * math.sqrt(total * (1 / r) * (1 - 1 / r))


def test_sample_partial_coloring():
    fam = sample_random_coloring(10, 2, seed=1, partial=True)
    assert not fam.covers_all_edges  # 45 edges all colored has probability ~1e-8


def test_random_tournament_deterministic():
    assert random_tournament(6, seed=4) == random_tournament(6, seed=4)


def test_random_pi_exponent():
    rep = random_pi_exponent(20, trials=20, seed=123)
    again = random_pi_exponent(20, trials=20, seed=123)
    assert rep == again
    assert len(rep.ratios) == 20
    assert all(math.isfinite(x) and x > 0 for x in rep.ratios)
    lines = rep.csv_lines()
    assert lines[0] == "trial,pi,ratio"
    assert len(lines) == 21
    summary = rep.summary()
    assert summary["min"] <= summary["median"] <= summary["max"]
    with pytest.raises(ValueError):
        random_pi_exponent(1, 5, 0)
    with pytest.raises(ValueError, match="exponent sampling"):
        random_pi_exponent(63, 5, 0)
    top = random_pi_exponent(62, trials=2, seed=123)
    assert len(top.products) == 2 and all(math.isfinite(x) and x > 0 for x in top.ratios)
