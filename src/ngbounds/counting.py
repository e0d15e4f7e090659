"""Exact clique and independent-set counting.

``clique_profile`` counts the cliques of every size on the succinct clique
tree of Jain and Seshadhri (WSDM 2020), walked on bit-rows with no memo.
``profile_by_scan`` classifies all 2^n subsets directly and is kept as the
independent oracle; the two paths share no code.

Counts are Python ints (arbitrary precision): k(K_62) = 2^62 already
overflows 64 bits once multiplied into the product quantity.

Conventions: the empty set and singletons count as cliques and as
independent sets, so by_size[0] = 1 and by_size[1] = n for every graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import MAX_VERTICES, Graph, complement


@dataclass(frozen=True)
class CliqueProfile:
    """by_size[t] = number of t-vertex cliques; length n+1."""

    by_size: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.by_size)

    def count(self, t: int) -> int:
        return self.by_size[t] if 0 <= t < len(self.by_size) else 0


_BINOM = tuple(tuple(comb(q, j) for j in range(q + 1)) for q in range(MAX_VERTICES + 1))


def clique_profile(g: Graph) -> CliqueProfile:
    """Exact clique counts of every size, from the succinct clique tree.

    A clique in the candidate set C either misses every non-neighbour of the
    max-degree pivot p, so it lies in C & N(p) plus optionally p, or it holds
    its first non-neighbour v of p and lies in C & N(v) minus those before v.
    A leaf with h holds and q pivots stands for C(q, j) cliques of size h + j."""
    rows, width = g.adj, g.n + 1
    leaves = [0] * (width * width)

    def walk(cand: int, holds: int, pivots: int) -> None:
        while cand:
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
                sub = cand & rows[low.bit_length() - 1]
                if sub & (sub - 1):
                    walk(sub, holds + 1, pivots)
                else:  # at most one candidate left: the leaf is known
                    leaves[(holds + 1) * width + pivots + (sub != 0)] += 1
                cand ^= low
            cand &= row
            pivots += 1
        leaves[holds * width + pivots] += 1

    walk(g.vertex_mask, 0, 0)
    by_size = [0] * width
    for key, cnt in enumerate(leaves):
        if cnt:
            holds, pivots = divmod(key, width)
            for j, c in enumerate(_BINOM[pivots]):
                by_size[holds + j] += cnt * c
    return CliqueProfile(tuple(by_size))


def independent_profile(g: Graph) -> CliqueProfile:
    """by_size[t] = number of t-vertex independent sets (cliques of the complement)."""
    return clique_profile(complement(g))


def profile_by_scan(g: Graph) -> CliqueProfile:
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
    return CliqueProfile(tuple(by_size))


def count_cliques(g: Graph) -> int:
    return clique_profile(g).total


def count_independent_sets(g: Graph) -> int:
    return independent_profile(g).total


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
    return clique_profile(g).count(t) + independent_profile(g).count(t)


def pi_t(g: Graph, t: int) -> int:
    """Number of size-t cliques times number of size-t independent sets."""
    _check_t(g, t)
    return clique_profile(g).count(t) * independent_profile(g).count(t)
