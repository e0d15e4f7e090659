from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from math import comb, factorial, perm, prod
from operator import or_

import pytest

from ngbounds import (
    Graph,
    GraphFamily,
    Tournament,
    certificate_length,
    certificate_lower_bound,
    construction_value,
    count_cliques,
    count_covering_tuples,
    count_good_sequences,
    emit_coloring,
    good_sequence_certificate,
    is_good_sequence,
    multicolor_upper_bound,
    parse_coloring,
    pigeonhole_sequence,
    product_clique_counts,
    sum_clique_counts,
    tournament_blocks,
    tournament_construction,
)
from ngbounds.graphs import edge_list
from ngbounds.multicolor import MAX_COLORS, ColoringFormatError
from ngbounds.oracle import random_tournament, rng_for, sample_random_coloring

from helpers import edge_count, good_sequences_by_permutation


def total_coloring(n, r, seed):
    return sample_random_coloring(n, r, rng_for([seed]))


def test_family_validation():
    with pytest.raises(ValueError, match=r"color count must be in \[1, 65536\], got 0"):
        GraphFamily(2, 0, [None])
    with pytest.raises(ValueError, match=r"color count must be in \[1, 65536\], got 65537"):
        GraphFamily(2, MAX_COLORS + 1, [0])
    for n in (-1, 63):
        with pytest.raises(ValueError, match=rf"vertex count must be in \[0, 62\], got {n}"):
            GraphFamily(n, 1, [])
    fam = GraphFamily(2, 2, [0])
    assert fam.r == 2 and fam.covers_all_edges
    assert fam.colors == (0,)
    assert fam.members == (Graph.complete(2), Graph.empty(2))
    assert GraphFamily(2, 2, (0,)) == fam and hash(GraphFamily(2, 2, [0])) == hash(fam)
    # members are built on first use, once; writing a family out builds none
    lazy = GraphFamily(62, 1, [0] * comb(62, 2))
    assert emit_coloring(lazy).startswith("62 1\n0 1 1\n") and "members" not in vars(lazy)
    assert lazy.members is lazy.members and lazy.members[0] == Graph.complete(62)


def test_covers_all_edges_flag():
    n = 4
    # pairs (0, 1) and (2, 3) are slots 0 and 5 of edge_list(4)
    partial = GraphFamily(n, 2, [0, None, None, None, None, 1])
    assert partial.members == (Graph.from_edges(n, [(0, 1)]), Graph.from_edges(n, [(2, 3)]))
    assert not partial.covers_all_edges
    fam = total_coloring(5, 3, seed=2)
    assert fam.covers_all_edges


def test_coloring_text_round_trip():
    for seed in range(20):
        fam = sample_random_coloring(6, 3, rng_for([seed]), partial=bool(seed % 2))
        again = parse_coloring(emit_coloring(fam))
        assert (again.n, again.r, again.colors) == (fam.n, fam.r, fam.colors)
        assert again.members == fam.members


def test_from_colors_round_trip():
    for seed in range(20):
        rng = rng_for([5, seed])
        n, r = int(rng.integers(0, 9)), int(rng.integers(1, 5))
        colors = [None if x == r else x for x in (int(rng.integers(0, r + 1)) for _ in edge_list(n))]
        fam = GraphFamily(n, r, colors)
        assert list(fam.colors) == colors
        by_color = [[e for e, c in zip(edge_list(n), colors) if c == i] for i in range(r)]
        assert fam.members == tuple(Graph.from_edges(n, edges) for edges in by_color)
        assert parse_coloring(emit_coloring(fam)) == fam


def test_clique_counts_build_only_the_colors_in_use():
    for seed in range(20):
        n = int(rng_for([6, seed]).integers(0, 9))
        fam = sample_random_coloring(n, 1 + seed % 6, rng_for([seed]), partial=True)
        assert fam.clique_counts() == [count_cliques(g) for g in fam.members]
    # 65,535 edgeless colors share one empty graph and count in closed form
    huge = GraphFamily(62, MAX_COLORS, [0] + [None] * (comb(62, 2) - 1))
    counts = huge.clique_counts()
    assert counts[0] == 64 and counts[1:] == [63] * (MAX_COLORS - 1)
    assert sum_clique_counts(huge) == 64 + 63 * (MAX_COLORS - 1)
    assert len({id(g) for g in huge.members}) == 2 and huge.members[1] == Graph.empty(62)


def test_from_colors_leaves_none_uncolored():
    fam = GraphFamily(3, 2, [1, None, 0])
    assert fam.members == (Graph.from_edges(3, [(1, 2)]), Graph.from_edges(3, [(0, 1)]))
    assert fam.colors == (1, None, 0) and not fam.covers_all_edges
    assert emit_coloring(fam) == "3 2\n0 1 2\n1 2 1\n"


def test_from_colors_rejects_bad_entries():
    with pytest.raises(ValueError, match="color 2 of pair"):
        GraphFamily(3, 2, [0, 2, 1])
    with pytest.raises(ValueError, match="color -1 of pair"):
        GraphFamily(3, 2, [0, 1, -1])
    with pytest.raises(ValueError, match="expected 3 slot colors"):
        GraphFamily(3, 2, [0, 1])
    with pytest.raises(ValueError, match="expected 3 slot colors"):
        GraphFamily(3, 2, [0, 1, 0, 1])


def test_coloring_parse_errors_carry_line_numbers():
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("")
    assert "header" in str(err.value)
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("3 2\n0 1 1\n0 1 2\n")
    assert err.value.line == 3 and "twice" in str(err.value)
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("3 2\n0 3 1\n")
    assert err.value.line == 2
    with pytest.raises(ColoringFormatError):
        parse_coloring("3 2\n0 1 5\n")
    with pytest.raises(ColoringFormatError):
        parse_coloring("3 2\n1 1 1\n")
    for header in ("3 0", "3 65537", "63 2"):
        with pytest.raises(ColoringFormatError) as err:
            parse_coloring(f"# comment\n{header}\n0 1 1\n")
        assert err.value.line == 2 and "1 <= r <= 65536" in str(err.value)
    assert parse_coloring(f"2 {MAX_COLORS}\n0 1 {MAX_COLORS}\n").colors == (MAX_COLORS - 1,)
    with pytest.raises(ColoringFormatError):
        parse_coloring("3\n")
    with pytest.raises(ColoringFormatError) as err:
        parse_coloring("# header next\n63 2\n")
    assert err.value.line == 2 and "n <= 62" in str(err.value)


def test_pigeonhole_sequences():
    assert pigeonhole_sequence(8, 2, 3) == (8, 4, 2)
    assert pigeonhole_sequence(9, 3, 2) == (9, 3)
    assert certificate_length(8, 2) == 3
    assert certificate_length(9, 3) == 2
    assert certificate_length(1, 5) == 0
    assert certificate_lower_bound(8, 2) == Fraction(64, 6)
    assert certificate_lower_bound(9, 3) == Fraction(27, 2)
    assert certificate_lower_bound(1, 2) == 1


def test_certificates_on_random_colorings():
    for seed in range(40):
        rng = rng_for([79, seed])
        n = int(rng.integers(1, 11))
        r = int(rng.integers(2, 4))
        fam = total_coloring(n, r, seed=1000 + seed)
        vertices, colors = good_sequence_certificate(fam)
        assert is_good_sequence(fam, vertices, colors)
        assert len(vertices) == certificate_length(n, r)
        assert certificate_lower_bound(n, r) <= product_clique_counts(fam)


def test_certificate_fixture_small():
    fam = total_coloring(8, 2, seed=5)
    vertices, colors = good_sequence_certificate(fam)
    assert (len(vertices), len(colors)) == (3, 2) and is_good_sequence(fam, vertices, colors)
    assert pigeonhole_sequence(8, 2, 3) == (8, 4, 2)
    assert certificate_lower_bound(8, 2) == Fraction(64, 6)
    assert good_sequence_certificate(GraphFamily(1, 2, [])) == ((), ())
    assert certificate_lower_bound(1, 2) == 1


def test_certificate_length_keeps_every_choice_count_positive():
    # the greedy picks a vertex at each of certificate_length(n, r) steps; the
    # pigeonhole counts at that length promise one at every step
    for n in range(63):
        for r in range(2, 64):
            assert min(pigeonhole_sequence(n, r, certificate_length(n, r)), default=1) >= 1
    fam = total_coloring(9, 2, seed=12)
    vertices, colors = good_sequence_certificate(fam)
    assert len(vertices) == 3
    for q in range(4):  # every prefix of a good sequence is one
        assert is_good_sequence(fam, vertices[:q], colors[: max(0, q - 1)])


def test_certificate_rejects_partial_colorings():
    partial = GraphFamily(3, 2, [0, None, None])
    with pytest.raises(ValueError):
        good_sequence_certificate(partial)


def test_certificate_validity_catches_corruption():
    fam = total_coloring(8, 2, seed=9)
    vertices, colors = good_sequence_certificate(fam)
    assert len(vertices) == 3 and is_good_sequence(fam, vertices, colors)
    (a, b, c), (x, y) = vertices, colors
    for bad_vertices, bad_colors in (
        ((a, b, c), (1 - x, y)),  # a flipped color: a total coloring gives each pair one color
        ((a, b, c), (x, 1 - y)),
        ((a, b), (x, y)),  # one vertex short
        ((a, b, c), (x,)),  # one color short
        ((a, a, c), (x, y)),  # a repeated vertex
        ((a, b, 8), (x, y)),  # a vertex outside 0..7
        ((a, b, c), (x, 2)),  # a color outside 0..1
    ):
        assert not is_good_sequence(fam, bad_vertices, bad_colors)
    assert is_good_sequence(fam, (), ()) and is_good_sequence(fam, (5,), ())


def test_count_good_sequences_small():
    fam = total_coloring(7, 2, seed=3)
    assert count_good_sequences(fam, 0) == 1
    assert count_good_sequences(fam, 1) == 7
    with pytest.raises(ValueError):
        count_good_sequences(total_coloring(11, 2, seed=0), 2)


def test_good_sequence_sandwich():
    for seed in range(30):
        rng = rng_for([83, seed])
        n = int(rng.integers(2, 9))
        r = int(rng.integers(2, 4))
        q = int(rng.integers(0, min(3, n) + 1))
        fam = total_coloring(n, r, seed=2000 + seed)
        low = prod(pigeonhole_sequence(n, r, q))
        mid = count_good_sequences(fam, q)
        high = factorial(q) * product_clique_counts(fam)
        assert low <= mid <= high


@pytest.mark.parametrize("n", range(9))
def test_count_good_sequences_matches_the_permutation_oracle(n):
    # at n = 8 the oracle walks 109,601 orders per coloring, so each r
    # there gets one coloring, partial for odd r and total for even r
    for r in range(1, 5):
        for partial in (False, True) if n < 8 else (r % 2 == 1,):
            fam = sample_random_coloring(n, r, rng_for([41, n, r, partial]), partial=partial)
            for q in range(n + 1):
                assert count_good_sequences(fam, q) == good_sequences_by_permutation(fam, q), (n, r, partial, q)


def test_a_monochromatic_clique_has_every_order_good():
    for n in range(11):
        for r in (1, 3):
            fam = GraphFamily(n, r, [r - 1] * comb(n, 2))
            assert [count_good_sequences(fam, q) for q in range(n + 1)] == [perm(n, q) for q in range(n + 1)]


def test_sum_and_product_fixtures():
    n, r = 5, 3
    fam = GraphFamily(n, r, [0] * comb(n, 2))
    assert sum_clique_counts(fam) == (r - 1) * (n + 1) + 2**n
    fam2 = GraphFamily(4, 2, [0] * 6)
    assert product_clique_counts(fam2) == (4 + 1) * 2**4
    empties = GraphFamily(3, 2, [None] * 3)
    assert product_clique_counts(empties) == 16


def test_covering_tuple_fixtures():
    fam = GraphFamily(2, 2, [0])
    assert count_covering_tuples(fam) == 5
    fam = GraphFamily(3, 2, [None] * 3)
    assert count_covering_tuples(fam) == 0
    for n in (1, 3, 5):
        fam = GraphFamily(n, 1, [0] * comb(n, 2))
        assert count_covering_tuples(fam) == 1
        assert multicolor_upper_bound(n, 1) == 2**n
    for r in (1, 2, 3):  # the lone 0-vertex family has product 1, above the formula's 0
        with pytest.raises(ValueError, match="needs n >= 1"):
            multicolor_upper_bound(0, r)
    with pytest.raises(ValueError):
        count_covering_tuples(GraphFamily(9, 1, [None] * comb(9, 2)))


def test_covering_tuples_against_direct_enumeration():
    for n in range(6):
        full = (1 << n) - 1
        for r in (2, 3):
            for seed in range(10):
                fam = sample_random_coloring(n, r, rng_for([n, r, seed]), partial=True)
                cliques = [
                    [s for s in range(full + 1) if all(g.adj[v] & s == s & ~(1 << v) for v in range(n) if s >> v & 1)]
                    for g in fam.members
                ]
                direct = sum(1 for sets in iproduct(*cliques) if reduce(or_, sets) == full)
                assert count_covering_tuples(fam) == direct, (n, r, seed)


def test_multicolor_upper_bound_fixtures():
    assert multicolor_upper_bound(4, 2) == 36 * 4 * 16 == 2304
    # dominates the exhaustive product maximum over total 3-colorings of 4 vertices
    best = 0
    slots = edge_list(4)
    for colors in iproduct(range(3), repeat=len(slots)):
        fam = GraphFamily(4, 3, colors)
        best = max(best, product_clique_counts(fam))
    assert best <= multicolor_upper_bound(4, 3)


def test_tournament_validation():
    with pytest.raises(ValueError, match="expected 3 winners"):
        Tournament(3, [0, 1])
    with pytest.raises(ValueError, match="expected 3 winners"):
        Tournament(3, [0, 0, 1, 2])
    with pytest.raises(ValueError, match=r"winner 2 of pair \(0, 1\)"):
        Tournament(3, [2, 0, 1])
    with pytest.raises(ValueError, match=r"winner 0 of pair \(1, 2\)"):
        Tournament(3, [0, 0, 0])
    assert Tournament(3, [1, 2, 1]).winners == (1, 2, 1)
    assert Tournament.transitive(4).winners == (0, 0, 0, 1, 1, 2)
    assert Tournament(0, []).winners == Tournament(1, []).winners == ()
    with pytest.raises(ValueError, match="tournament size must be >= 0, got -1"):
        Tournament(-1, [])
    with pytest.raises(ValueError, match="tournament size must be >= 0, got -3"):
        Tournament(-3, [])


@pytest.mark.parametrize("size", [0, 1])
def test_a_tournament_with_no_pair_labels_no_block(size):
    tour = Tournament(size, [])
    for call in (tournament_blocks, construction_value, tournament_construction):
        with pytest.raises(ValueError, match=f"a tournament of size {size} has no pair to label a block"):
            call(5, tour)


def test_tournament_blocks_split_evenly():
    blocks = tournament_blocks(14, Tournament.transitive(4))  # 6 blocks
    # larger blocks on lexicographically earlier edges
    assert blocks == [((0, 1), 3), ((0, 2), 3), ((0, 3), 2), ((1, 2), 2), ((1, 3), 2), ((2, 3), 2)]
    cyclic = Tournament(3, (0, 2, 1))  # 0 -> 1 -> 2 -> 0
    assert [edge for edge, _ in tournament_blocks(3, cyclic)] == [(0, 1), (2, 0), (1, 2)]
    assert construction_value(14, Tournament.transitive(4)) == 2**14 * 4**2 * 3**4


def test_tournament_construction_two_colors():
    fam = tournament_construction(6, Tournament.transitive(2))
    assert fam.members[0] == Graph.complete(6)
    assert fam.members[1] == Graph.empty(6)
    assert product_clique_counts(fam) == 7 * 2**6


def test_tournament_construction_three_colors():
    cyclic = Tournament(3, (0, 2, 1))  # 0 -> 1 -> 2 -> 0
    fam = tournament_construction(3, cyclic)
    # with three colors every pair of block labels shares a tournament
    # vertex, so the construction happens to color every edge
    assert fam.covers_all_edges
    counts = [edge_count(g) for g in fam.members]
    assert counts == [1, 1, 1]
    assert product_clique_counts(fam) == 125

    fam6 = tournament_construction(6, cyclic)
    assert product_clique_counts(fam6) >= 2**6 * (6 // 3) ** 3


def test_tournament_construction_leaves_edges_uncolored_for_four_colors():
    # labels (0,1) and (2,3) are disjoint, so edges between their blocks
    # belong to no member
    fam = tournament_construction(12, Tournament.transitive(4))
    assert not fam.covers_all_edges


def test_tournament_construction_random_disjointness():
    for r in range(2, 7):
        for k in range(3):
            tour = random_tournament(r, rng_for([100 * r + k]))
            n = 5 + r + k
            fam = tournament_construction(n, tour)  # constructor checks disjointness
            floor = 2**n * prod(1 + size for _, size in tournament_blocks(n, tour))
            assert construction_value(n, tour) == floor
            assert product_clique_counts(fam) >= floor
            if r >= 4:
                assert not fam.covers_all_edges


def test_am_gm_on_random_families():
    for seed in range(30):
        rng = rng_for([89, seed])
        n = int(rng.integers(1, 8))
        r = int(rng.integers(2, 4))
        fam = sample_random_coloring(n, r, rng_for([3000 + seed]), partial=True)
        s = sum_clique_counts(fam)
        p = product_clique_counts(fam)
        assert s**r >= r**r * p  # AM-GM in integer form
