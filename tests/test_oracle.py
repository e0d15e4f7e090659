import math
import threading
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from ngbounds import (
    ExtremalRecord,
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
from ngbounds.cli import main
from ngbounds.graphs import edge_list
from ngbounds.multicolor import _counted_families, certificate_lower_bound
from ngbounds import counting, oracle
from ngbounds.counting import _popcount64, _profile_pairs, pi, pi_t, profile_pair, sigma_t
from ngbounds.oracle import WITNESS_CAP, _mask_counts, _scan_stripe, _tables, rng_for
from ngbounds.verify import verify_multicolor

from helpers import (
    coloring_product_by_color_loop,
    edge_count,
    exponent_ratios,
    extremal_by_gather,
    frontier_calls,
    graph_of_pairs,
    pairs_of_mask,
)


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


def _block_masks(lo_bits, blocks):
    """Every mask of a kernel scan, block by block in row-major order, with
    its clique and independent-set counts (copied: the kernel reuses its
    buffers from block to block)."""
    masks, kcnts, icnts = [], [], []
    for hi, lo, kcnt, icnt in blocks:
        assert kcnt.shape == icnt.shape == (len(hi), len(lo))
        masks.append((hi[:, None] << lo_bits | lo).ravel())
        kcnts.append(kcnt.flatten())
        icnts.append(icnt.flatten())
    return np.concatenate(masks), np.concatenate(kcnts), np.concatenate(icnts)


@pytest.mark.parametrize("t", [None, 2, 3])
def test_mask_counts_match_the_counting_engine(t):
    # every mask for n <= 5 (low table only), in mask order from one shard;
    # then for n = 6..8, where the high table and several 64-subset words
    # come in, one seeded shard of an odd count K of about 2^(m-16), and 100
    # seeded masks of it.  K is prime to 2^lo_bits, so the shard's rows fall
    # in progressions of period K and its columns run through every residue
    # mod K as the row changes: the picks reach the whole low table.  The
    # independent counts come from the complement's reversed row and column
    for n in range(1 if t is None else t, 9):
        m = math.comb(n, 2)
        lo_bits, words = _tables(n, t)
        if n <= 5:
            shards, shard = 1, 0
        else:
            shards = 1 << max(0, m - 16) | 1
            shard = int(rng_for([n, shards]).integers(shards))
        masks, kcnts, icnts = _block_masks(lo_bits, _mask_counts(lo_bits, words, shards, shard))
        if n <= 5:
            assert masks.tolist() == list(range(1 << m))
            picks = range(len(masks))
        else:
            assert sorted(masks.tolist()) == list(range(shard, 1 << m, shards))
            picks = rng_for([n]).integers(0, len(masks), size=100).tolist()
        # the picks' clique and independent-set profiles, counted in one batch
        rows = [Graph.from_edge_mask(n, int(masks[idx])).adj for idx in picks]
        for idx, (kp, ip) in zip(picks, _profile_pairs(rows), strict=True):
            want = (sum(kp), sum(ip)) if t is None else (kp[t], ip[t])
            assert (kcnts[idx], icnts[idx]) == want, (n, masks[idx])


_SCANS = [("sigma", None), ("pi", None), ("sigma_t", 2), ("pi_t", 3)]


@pytest.mark.parametrize("n", range(1, 7))
def test_block_scan_records_match_the_gather_scan(n):
    # full records, witnesses and their order included, on every shard of
    # 1..7 shards; at n = 2, 3 some shards get no mask at all
    for quantity, t in _SCANS:
        t = None if t is None else min(t, n)
        for direction in ("min", "max"):
            for shards in range(1, 8):
                for shard in range(shards):
                    got = exhaustive_extremal(n, quantity, direction, t, shards=shards, shard=shard)
                    want = extremal_by_gather(n, quantity, direction, t, shards, shard)
                    assert got == want, (quantity, direction, shards, shard)


@pytest.mark.parametrize("shards", [3, 4])
def test_block_scan_records_match_the_gather_scan_at_n7(shards):
    # 3 shards do not divide 2^14 low halves, so each shard's rows come in
    # three progressions; 4 shards split the low halves into four classes
    for (quantity, t), direction in zip(_SCANS, ("min", "max", "min", "max")):
        for shard in range(shards):
            got = exhaustive_extremal(7, quantity, direction, t, shards=shards, shard=shard)
            assert got == extremal_by_gather(7, quantity, direction, t, shards, shard), (quantity, shard)


@pytest.mark.parametrize(
    "direction, shards, shard, reached",
    [("min", 1, 0, [True, True]), ("max", 2, 1, [False, True])],
    ids=["both-stripes", "helper-only"],
)
def test_stripe_merge_matches_the_gather_scan(direction, shards, shard, reached):
    # n = 7 has 2^21 masks in blocks of 2^16, dealt in turn to the caller's
    # stripe 0 and the helper's stripe 1.  pi min on one shard has 1,260
    # witnesses: the 100 kept come from both stripes, interleaved by mask,
    # and the total sums both.  pi max on shard 1 of 2 (the odd masks)
    # reaches 1,024 only at K_7, in the helper's stripe; the caller's best is 910
    lo_bits, words = _tables(7, None)
    parts = [_scan_stripe(lo_bits, words, shards, shard, np.multiply, direction == "max", s) for s in range(2)]
    rec = exhaustive_extremal(7, "pi", direction, shards=shards, shard=shard)
    assert rec == extremal_by_gather(7, "pi", direction, None, shards, shard)
    kept = set(rec.witnesses)
    assert [
        value == rec.value and not kept.isdisjoint(emit_graph6(Graph.from_edge_mask(7, mk)) for mk in masks)
        for value, masks, _ in parts
    ] == reached
    assert rec.total_witnesses == sum(total for value, _, total in parts if value == rec.value)


@pytest.mark.parametrize("in_helper", [True, False])
def test_a_failing_stripe_raises_and_leaves_no_thread(monkeypatch, in_helper):
    caller = threading.current_thread()
    kernel = oracle._clique_counts

    def failing(*args):
        if (threading.current_thread() is not caller) == in_helper:
            raise RuntimeError("block kernel failed")
        kernel(*args)

    monkeypatch.setattr(oracle, "_clique_counts", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block kernel failed"):
        exhaustive_extremal(7, "pi", "max")
    assert threading.active_count() == before


def test_block_scan_without_bitwise_count(monkeypatch):
    # n = 7: 32 blocks on one shard, 16 per stripe, and about 11 on each of
    # three shards; its 128 tracked subsets fill two table words
    scans = [("min", 1, 0)] + [("max", 3, s) for s in range(3)]
    want = [extremal_by_gather(7, "pi", d, None, shards, s) for d, shards, s in scans]
    monkeypatch.delattr(np, "bitwise_count", raising=False)  # numpy 1.x has none
    assert [exhaustive_extremal(7, "pi", d, shards=shards, shard=s) for d, shards, s in scans] == want


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    seeded = rng_for([11]).integers(0, 2**64, size=500, dtype=np.uint64)
    words = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), seeded])
    want = [int(w).bit_count() for w in words]
    for fallback in (False, True):
        if fallback:
            monkeypatch.delattr(np, "bitwise_count", raising=False)  # numpy 1.x has none
        got = _popcount64(words)
        assert got.dtype == np.uint8 and got.tolist() == want
        # the block kernel counts into uint16 buffers, and in place for a second word
        out = np.empty(len(words), dtype=np.uint16)
        assert _popcount64(words, out) is out and out.tolist() == want
        in_place = words.copy()
        assert _popcount64(in_place, in_place).tolist() == want


def test_merge_records_rejects_mixed_scans():
    a = exhaustive_extremal(3, "pi", "max")
    b = exhaustive_extremal(3, "sigma", "max")
    with pytest.raises(ValueError):
        merge_records([a, b])


def test_recheck_accepts_an_empty_shard_and_refuses_a_wrong_value():
    assert ExtremalRecord(3, "pi", "max", None, None, (), 0).recheck()
    graph = exhaustive_extremal(3, "pi", "max")
    coloring = exhaustive_coloring_extremal(3, 2, "product", "max")
    assert graph.recheck() and coloring.recheck()
    assert not replace(graph, value=None).recheck()  # an empty shard holds no witness
    assert not replace(graph, value=graph.value - 1).recheck()
    assert not replace(coloring, value=coloring.value + 1).recheck()


def test_recheck_refuses_one_wrong_witness_at_every_position():
    # a graph record counts its witnesses and their complements in one batch,
    # so a wrong witness must be caught wherever it stands among the others
    records = [
        exhaustive_extremal(5, "sigma", "min"),
        exhaustive_extremal(5, "pi", "min"),
        exhaustive_extremal(5, "sigma_t", "min", t=3),
        exhaustive_extremal(5, "pi_t", "max", t=2),
    ]
    wrong_graph = emit_graph6(Graph.complete(5))  # sigma 38, pi 192, sigma_3 10, pi_2 0
    coloring = exhaustive_coloring_extremal(3, 3, "product", "min")
    wrong_coloring = emit_coloring(GraphFamily(3, 3, [0, 0, 0]))  # product 8 * 4 * 4 = 128
    cases = [(rec, wrong_graph) for rec in records] + [(coloring, wrong_coloring)]
    for rec, wrong in cases:
        rec = replace(rec, witnesses=rec.witnesses[:4])
        assert len(rec.witnesses) == 4 and wrong not in rec.witnesses
        assert rec.recheck(), rec.quantity
        for at in range(4):
            witnesses = rec.witnesses[:at] + (wrong,) + rec.witnesses[at + 1 :]
            assert not replace(rec, witnesses=witnesses).recheck(), (rec.quantity, at)


def test_many_small_graphs_are_counted_in_one_call(monkeypatch, capsys):
    # a family's colors, a graph record's witnesses and an exponent run's
    # trials each go to the counting engine in one batch with their
    # complements, and a graph's quantities count it with its complement
    fam = sample_random_coloring(9, 5, rng_for([61]))
    rec = exhaustive_extremal(5, "pi", "min")
    g = sample_random_graph(12, rng_for([62]))
    want_counts, want_products = fam.clique_counts(), random_pi_exponent(20, 20, 1)
    want_values = [sigma(g), pi(g), sigma_t(g, 3), pi_t(g, 3), profile_pair(g)]
    want_lines = verify_multicolor().lines
    calls = frontier_calls(monkeypatch)

    def lists_a_call():
        got = [len(sizes) for sizes in calls]
        calls.clear()
        return got

    assert GraphFamily(9, 5, fam.colors).clique_counts() == want_counts
    assert lists_a_call() == [sum(any(g.adj) for g in fam.members)] == [5]
    assert rec.recheck() and len(rec.witnesses) == 12
    assert lists_a_call() == [24]
    assert random_pi_exponent(20, 20, 1) == want_products
    assert lists_a_call() == [40]
    assert [sigma(g), pi(g), sigma_t(g, 3), pi_t(g, 3), profile_pair(g)] == want_values
    assert lists_a_call() == [2] * 5
    g6 = emit_graph6(g)
    commands = [
        (["count", "--graph6", g6, "--t", "3"], [2]),
        (["bounds", "--t", "3", "--n", "12", "--graph6", g6], [2]),
        (["compress", "--graph6", g6], [2, 2]),  # the graph and its threshold graph
    ]
    for argv, want in commands:
        assert main(argv) == 0
        assert lists_a_call() == want, argv
    capsys.readouterr()
    # each of the multicolor suite's three family loops is one group
    assert verify_multicolor().lines == want_lines
    assert [sum(sizes) <= counting._GROUP_ROWS for sizes in calls] == [True] * 3


def test_coloring_extremal_sum():
    rec = exhaustive_coloring_extremal(4, 3, "sum", "max")
    assert rec.value == 26
    assert rec.total_witnesses == 3  # exactly the monochromatic colorings
    for blob in rec.witnesses:
        fam = parse_coloring(blob)
        assert len(set(fam.colors)) == 1
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
    assert list(mixed.witnesses) == [emit_coloring(GraphFamily(3, 2, c)) for c in want]


def _loop_coloring_records(n, r):
    """The per-coloring loop the table scan replaced, kept as its oracle: one
    family and its r clique counts per coloring, in code order, the members of
    many families counted in one batch.  One pass fills the records of both
    quantities and both directions."""
    state = {(q, d): [None, [], 0] for q in ("sum", "product") for d in ("min", "max")}
    # code order: slot 0 is the least significant base-r digit, so reverse
    # product's tuples, whose last entry varies fastest
    fams = (GraphFamily(n, r, digits[::-1]) for digits in product(range(r), repeat=math.comb(n, 2)))
    for fam, counts in _counted_families(fams):
        vals = {"sum": sum(counts), "product": math.prod(counts)}
        for (quantity, direction), rec in state.items():
            val = vals[quantity]
            if rec[0] is None or (val > rec[0] if direction == "max" else val < rec[0]):
                rec[:] = [val, [], 0]
            if val == rec[0]:
                rec[2] += 1
                if len(rec[1]) < WITNESS_CAP:
                    rec[1].append(emit_coloring(fam))
    return {
        key: ExtremalRecord(n, key[0], key[1], None, val, tuple(blobs), total, r)
        for key, (val, blobs, total) in state.items()
    }


# every (n, r) with r <= 6 and at most 3^10 colorings, plus both sides of the
# int64 boundary n r <= 62 and a product past 2^63
@pytest.mark.parametrize(
    "n,r",
    [(n, r) for n in range(6) for r in range(1, 7) if r ** math.comb(n, 2) <= 3**10]
    + [(2, 31), (2, 32), (2, 40)],
)
def test_coloring_scan_matches_the_per_coloring_loop(n, r):
    for (quantity, direction), want in _loop_coloring_records(n, r).items():
        got = exhaustive_coloring_extremal(n, r, quantity, direction)
        assert got == want
        assert type(got.value) is int


@pytest.mark.parametrize("n,r", [(2, r) for r in range(32, 65)] + [(3, r) for r in range(21, 26)])
def test_coloring_products_past_int64_match_the_per_color_loop(n, r):
    assert n * r > 62  # every case takes the counted exact path
    for direction in ("max", "min"):
        got = exhaustive_coloring_extremal(n, r, "product", direction)
        assert got == coloring_product_by_color_loop(n, r, direction)
        assert type(got.value) is int


def test_coloring_scan_keeps_products_past_int64_exact():
    rec = exhaustive_coloring_extremal(2, 40, "product", "max")
    assert rec.value == 4 * 3**39 > 2**63
    assert rec.total_witnesses == 40 and rec.recheck()


def test_coloring_scan_one_color_at_62_vertices():
    for quantity in ("sum", "product"):
        rec = exhaustive_coloring_extremal(62, 1, quantity, "min")
        assert rec.value == 2**62
        assert rec.witnesses == (emit_coloring(GraphFamily(62, 1, [0] * math.comb(62, 2))),)
        assert rec.total_witnesses == 1


def test_coloring_extremal_guard():
    with pytest.raises(ValueError):
        exhaustive_coloring_extremal(7, 3, "sum", "max")


@pytest.mark.parametrize("n,r", [(2, 2_000_000), (1, 10**9), (2, 2049), (1, 2**16 + 1), (62, 2), (5, 5)])
def test_coloring_work_cap_refuses_up_front(n, r):
    # (2, 2_000_000) would do 4e12 lookups and (1, 10^9) build 10^9 graphs
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past the cap"):
        exhaustive_coloring_extremal(n, r, "product", "max")
    assert time.perf_counter() - start < 1


def test_coloring_work_cap_keeps_its_edge_cases():
    # (5, 4) does exactly 2^22 lookups; (2, 40) and (62, 1) are tested above
    rec = exhaustive_coloring_extremal(5, 4, "sum", "max")
    assert rec.value == 2**5 + 3 * 6 and rec.total_witnesses == 4  # one K_5, three empty graphs


def test_sample_random_graph_deterministic():
    a = sample_random_graph(20, rng_for([5]))
    b = sample_random_graph(20, rng_for([5]))
    c = sample_random_graph(20, rng_for([6]))
    assert a == b
    assert a != c


def test_sample_random_graph_density():
    edges = 0
    trials = 100
    n = 30
    m = n * (n - 1) // 2
    for seed in range(trials):
        edges += edge_count(sample_random_graph(n, rng_for([seed])))
    mean = trials * m / 2
    spread = 3 * math.sqrt(trials * m * 0.25)
    assert abs(edges - mean) <= spread


def test_sample_random_coloring_frequencies():
    n, r = 20, 3
    m = n * (n - 1) // 2
    counts = [0] * r
    trials = 60
    for seed in range(trials):
        fam = sample_random_coloring(n, r, rng_for([seed]))
        assert fam.covers_all_edges
        for idx, g in enumerate(fam.members):
            counts[idx] += edge_count(g)
    total = trials * m
    for c in counts:
        assert abs(c - total / r) <= 3 * math.sqrt(total * (1 / r) * (1 - 1 / r))


def test_sample_partial_coloring():
    fam = sample_random_coloring(10, 2, rng_for([1]), partial=True)
    assert not fam.covers_all_edges  # 45 edges all colored has probability ~1e-8


def test_samplers_refuse_sizes_outside_their_range():
    for n in (-1, 63):
        with pytest.raises(ValueError, match=rf"vertex count must be in \[0, 62\], got {n}"):
            sample_random_graph(n, rng_for([0]))
        with pytest.raises(ValueError, match=rf"vertex count must be in \[0, 62\], got {n}"):
            sample_random_coloring(n, 2, rng_for([0]))
    with pytest.raises(ValueError, match="need at least one color"):
        sample_random_coloring(3, 0, rng_for([0]))
    with pytest.raises(ValueError, match="tournament size must be >= 0"):
        random_tournament(-1, rng_for([0]))


def test_random_graph_draws_one_bit_per_slot_in_edge_list_order():
    for seed in range(6):
        for n in range(13):
            rng = rng_for([seed])
            edges = [pair for pair in edge_list(n) if rng.integers(0, 2)]
            assert sample_random_graph(n, rng_for([seed])) == graph_of_pairs(n, edges)


def test_random_graph_is_the_edge_mask_of_its_drawn_bits():
    # the edges are the slots of the drawn bits; the graph of the mask of
    # those bits, built the long way without Graph.from_edges, must be
    # the same, and the sampler must leave the generator where the draw of
    # the bits left it
    for n in range(63):
        for seed in range(3):
            rng = rng_for([seed, n])
            mask = sum(1 << int(i) for i in np.flatnonzero(rng.integers(0, 2, size=math.comb(n, 2))))
            sampled = rng_for([seed, n])
            assert sample_random_graph(n, sampled) == graph_of_pairs(n, pairs_of_mask(n, mask))
            assert sampled.integers(1 << 62) == rng.integers(1 << 62)


def test_random_coloring_draws_one_color_per_slot_in_edge_list_order():
    for seed in range(6):
        for n in range(13):
            for r in range(1, 6):
                for partial in (False, True):
                    rng = rng_for([seed])
                    lines = [f"{n} {r}"]
                    for u, v in edge_list(n):
                        c = int(rng.integers(0 if partial else 1, r + 1))
                        if c:
                            lines.append(f"{u} {v} {c}")
                    want = parse_coloring("\n".join(lines))
                    assert sample_random_coloring(n, r, rng_for([seed]), partial=partial) == want


def test_random_coloring_consumes_the_stream_like_the_family_draws_it_replaced():
    # verify_multicolor once drew its families inline; the sampler must leave
    # each trial's generator where those draws did, so later draws still match
    for seed in range(6):
        for n in range(13):
            for r in range(1, 6):
                ours, inline = rng_for([seed]), rng_for([seed])
                fam = sample_random_coloring(n, r, ours)
                assert fam.colors == tuple(int(inline.integers(0, r)) for _ in edge_list(n))
                assert ours.bit_generator.state == inline.bit_generator.state
            ours, inline = rng_for([seed]), rng_for([seed])
            fam = sample_random_coloring(n, 3, ours, partial=True)
            draws = [int(inline.integers(0, 4)) for _ in edge_list(n)]
            assert fam.colors == tuple(c - 1 if c else None for c in draws)
            assert ours.bit_generator.state == inline.bit_generator.state


def test_random_tournament_deterministic():
    assert random_tournament(6, rng_for([4])) == random_tournament(6, rng_for([4]))


def test_random_tournament_draws_one_bit_per_pair_in_nested_order():
    for r in range(13):
        for seed in range(6):
            rng = rng_for([seed])
            want = [i if rng.integers(0, 2) else j for i in range(r) for j in range(i + 1, r)]
            assert list(random_tournament(r, rng_for([seed])).winners) == want


def test_random_pi_exponent(capsys):
    rep = random_pi_exponent(20, trials=20, seed=123)
    again = random_pi_exponent(20, trials=20, seed=123)
    assert rep == again
    ratios = exponent_ratios(20, rep)
    assert len(ratios) == 20
    assert all(math.isfinite(x) and x > 0 for x in ratios)
    assert main(["exponent", "--n", "20", "--trials", "20", "--seed", "123"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "trial,pi,ratio"
    assert len(lines) == 21
    assert lines[1:] == [f"{i},{p},{x:.9f}" for i, (p, x) in enumerate(zip(rep, ratios))]
    summary = dict(field.split("=") for field in err.split()[1:])
    assert (summary["n"], summary["trials"]) == ("20", "20")
    assert float(summary["min"]) <= float(summary["median"]) <= float(summary["max"])
    with pytest.raises(ValueError):
        random_pi_exponent(1, 5, 0)
    with pytest.raises(ValueError, match="exponent sampling"):
        random_pi_exponent(63, 5, 0)
    top = random_pi_exponent(62, trials=2, seed=123)
    assert len(top) == 2 and all(math.isfinite(x) and x > 0 for x in exponent_ratios(62, top))
