"""Exact clique and independent-set counting.

``clique_profile`` counts the cliques of every size on the succinct clique
tree of Jain and Seshadhri (WSDM 2020), walked on bit-rows with no memo.
The walk stops at a candidate set of at most 3 vertices and tallies its
cliques in closed form.  It takes the rows alone, so ``independent_profile``
counts on the complemented rows and builds no complement ``Graph``, and the
verify suites count on rows they rewrite in place.  ``profile_by_scan``
classifies all 2^n subsets directly and is kept as the independent oracle;
the two paths share no code.

Counts are Python ints (arbitrary precision): k(K_62) = 2^62 already
overflows 64 bits once multiplied into the product quantity.

Conventions: the empty set and singletons count as cliques and as
independent sets, so a profile p, the tuple whose entry p[t] counts the
t-vertex sets, has length n + 1, p[0] = 1 and, for n >= 1, p[1] = n.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .graphs import Graph, complement_rows


# A leaf's candidate set of s <= 3 vertices and e edges, by its slot s + e + (s > 2)
# among the 8 slots of a leaf key; it holds 1 + s x + e x^2 + [e = 3] x^3 cliques.
_LEAF_SETS = ((0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3))


@cache
def _leaf_poly(key: int) -> tuple[int, ...]:
    """(1 + x)^q (1 + s x + e x^2 + [e = 3] x^3) for key = 8 q + slot: the
    cliques of a leaf with q pivots, less its holds."""
    pivots, slot = divmod(key, 8)
    s, e = _LEAF_SETS[slot]
    poly = [c for c in (1, s, e, int(e == 3)) if c]
    return tuple(sum(c * comb(pivots, i - j) for j, c in enumerate(poly[: i + 1])) for i in range(pivots + len(poly)))


def _tree_profile(rows) -> tuple[int, ...]:
    """Clique counts of every size of the graph with bit-rows ``rows``, from
    the succinct clique tree (see ``clique_profile``)."""
    n = len(rows)
    width = n + 1
    step = 8 * width
    leaves: dict[int, int] = {}  # holds * step + 8 * pivots + slot -> leaf count

    def walk(cand: int, key: int) -> None:
        while cand.bit_count() > 3:
            best, m = -1, cand
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                d = (rows[v] & cand).bit_count()
                if d > best:
                    best, p = d, v
            row = rows[p]
            rest = cand & ~row & ~(1 << p)
            while rest:
                low = rest & -rest
                rest ^= low
                walk(cand & rows[low.bit_length() - 1], key + step)
                cand ^= low
            cand &= row
            key += 8
        s = e = 0
        while cand:
            low = cand & -cand
            cand ^= low
            s += 1
            e += (rows[low.bit_length() - 1] & cand).bit_count()
        key += s + e + (s > 2)
        leaves[key] = leaves.get(key, 0) + 1

    walk((1 << n) - 1, 0)
    by_size = [0] * width
    for key, cnt in leaves.items():
        holds, key = divmod(key, step)
        for i, c in enumerate(_leaf_poly(key), holds):
            by_size[i] += cnt * c
    return tuple(by_size)


def clique_profile(g: Graph) -> tuple[int, ...]:
    """Entry t counts the t-vertex cliques, from the succinct clique tree.

    A clique in the candidate set C either misses every non-neighbour of the
    max-degree pivot p, so it lies in C & N(p) plus optionally p, or it holds
    its first non-neighbour v of p and lies in C & N(v) minus those before v.
    A leaf with h holds and q pivots stands for the cliques of its last
    candidate set, each with any of the q pivots and all h holds added.  The
    walk stops at a set of s <= 3 vertices with e edges, which holds
    1 + s x + e x^2 + [e = 3] x^3 cliques, so the leaf adds
    x^h (1 + x)^q (1 + s x + e x^2 + [e = 3] x^3) to the profile.  Leaves are
    tallied by (h, q, s, e) and expanded once at the end."""
    return _tree_profile(g.adj)


def independent_profile(g: Graph) -> tuple[int, ...]:
    """Entry t is the number of t-vertex independent sets: the cliques of the
    complemented rows."""
    return _tree_profile(complement_rows(g.adj))


def profile_by_scan(g: Graph) -> tuple[int, ...]:
    """Oracle: scan all 2^n subsets, extending cliques one vertex at a time.

    Deliberately independent of the clique tree.  Capped at n <= 20.
    """
    n = g.n
    if n > 20:
        raise ValueError(f"subset scan is capped at n <= 20, got {n}")
    adj = g.adj
    is_cl = bytearray(1 << n)
    is_cl[0] = 1
    by_size = [0] * (n + 1)
    by_size[0] = 1
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if is_cl[rest] and adj[v] & rest == rest:
            is_cl[mask] = 1
            by_size[mask.bit_count()] += 1
    return tuple(by_size)


def count_cliques(g: Graph) -> int:
    return sum(clique_profile(g))


def count_independent_sets(g: Graph) -> int:
    return sum(independent_profile(g))


def sigma(g: Graph) -> int:
    """Clique count plus independent-set count."""
    return count_cliques(g) + count_independent_sets(g)


def pi(g: Graph) -> int:
    """Clique count times independent-set count."""
    return count_cliques(g) * count_independent_sets(g)


def _check_t(g: Graph, t: int) -> None:
    if not 0 <= t <= g.n:
        raise ValueError(f"size t must be in [0, {g.n}], got {t}")


def sigma_t(g: Graph, t: int) -> int:
    """Number of size-t cliques plus number of size-t independent sets."""
    _check_t(g, t)
    return clique_profile(g)[t] + independent_profile(g)[t]


def pi_t(g: Graph, t: int) -> int:
    """Number of size-t cliques times number of size-t independent sets."""
    _check_t(g, t)
    return clique_profile(g)[t] * independent_profile(g)[t]
