"""Exact clique and independent-set counting.

``clique_profile`` counts the cliques of every size on the succinct clique
tree of Jain and Seshadhri (WSDM 2020), on bit-rows with no memo.  The tree
stops at a candidate set of at most 3 vertices and tallies its cliques in
closed form.  One tree, two traversals that tally the same leaves:
graphs with fewer than 32 vertices are walked depth first in Python, larger
ones level by level in numpy, up to 512 nodes a step from a depth-first
stack.  A step's arrays hold at most 512 x 62 (node, vertex) pairs, and the
stack at most one block of children per tree level; one profile of the
complement of C62 peaks at 0.7 MB of traced allocations.  Counting
takes the rows alone, so ``independent_profile`` counts on the complemented
rows and builds no complement ``Graph``, and the verify suites count on
rows they rewrite in place.  ``profile_by_scan`` classifies all 2^n subsets
directly and is kept as the independent oracle; the two paths share no code.

Counts are Python ints (arbitrary precision): k(K_62) = 2^62 already
overflows 64 bits once multiplied into the product quantity.

Conventions: the empty set and singletons count as cliques and as
independent sets, so a profile p, the tuple whose entry p[t] counts the
t-vertex sets, has length n + 1, p[0] = 1 and, for n >= 1, p[1] = n.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Optional

import numpy as np

from .graphs import Graph, complement_rows


# A leaf's candidate set of s <= 3 vertices and e edges, by its slot s + e + (s > 2)
# among the 8 slots of a leaf key; it holds 1 + s x + e x^2 + [e = 3] x^3 cliques.
_LEAF_SETS = ((0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3))
# a leaf's slot by 2 e + s, which differs between its sets
_SLOT_BY_SUM = np.zeros(10, dtype=np.int64)
_SLOT_BY_SUM[[2 * e + s for s, e in _LEAF_SETS]] = range(len(_LEAF_SETS))
_FRONTIER_MIN = 32  # graphs from this many vertices walk the tree in numpy
_CHUNK = 512  # tree nodes per numpy step: bounds the memory of one step


@cache
def _leaf_poly(key: int) -> tuple[int, ...]:
    """(1 + x)^q (1 + s x + e x^2 + [e = 3] x^3) for key = 8 q + slot: the
    cliques of a leaf with q pivots, less its holds."""
    pivots, slot = divmod(key, 8)
    s, e = _LEAF_SETS[slot]
    poly = [c for c in (1, s, e, int(e == 3)) if c]
    return tuple(sum(c * comb(pivots, i - j) for j, c in enumerate(poly[: i + 1])) for i in range(pivots + len(poly)))


def _walk_leaves(rows) -> dict[int, int]:
    """Leaf counts by key of the succinct clique tree of the graph with
    bit-rows ``rows``, walked depth first in Python (see ``clique_profile``)."""
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
    return leaves


def _popcount64(arr: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Bits set in each word of the uint64 array ``arr``, written into ``out``
    (a fresh uint8 array when None) and returned."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr, out=out)
    x = arr - ((arr >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x *= np.uint64(0x0101010101010101)
    if out is None:
        out = np.empty(arr.shape, dtype=np.uint8)
    return np.right_shift(x, np.uint64(56), out=out)


def _bits(words: np.ndarray) -> np.ndarray:
    """64 i + v for each bit v set in words[i], in increasing order."""
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little").view(bool))


def _frontier_leaves(rows) -> dict[int, int]:
    """The leaf counts of ``_walk_leaves``, from a walk of the same tree in
    numpy, up to _CHUNK nodes a step.

    A node is a candidate set, a little-endian uint64 word, and its key
    8 (holds (n + 1) + pivots).  Each step pops a chunk off a depth-first
    stack, tallies its leaves and pushes the children of the other nodes: the
    pivot child cand & N(p), and for each hold v the walker's candidate set
    cand & N(v) less the holds before v."""
    n = len(rows)
    adj = np.array(rows, dtype="<u8")
    closed = np.array([row | 1 << v for v, row in enumerate(rows)], dtype="<u8")
    below = np.array([(1 << v) - 1 for v in range(n)], dtype="<u8")
    tally = np.zeros(0, dtype=np.int64)  # key + slot -> leaf count, as long as the largest key seen
    stack = [(np.array([(1 << n) - 1], dtype="<u8"), np.zeros(1, dtype=np.int64))]
    while stack:
        cand, key = stack.pop()
        if len(cand) > _CHUNK:
            stack.append((cand[:-_CHUNK], key[:-_CHUNK]))
            cand, key = cand[-_CHUNK:], key[-_CHUNK:]
        # deg[i, v] is 1 + the degree of v within cand[i] for v in cand[i], else 0
        at = _bits(cand)
        deg = np.zeros((len(cand), 64), dtype=np.uint8)
        deg.reshape(-1)[at] = _popcount64(cand[at >> 6] & closed[at & 63])
        leaf = _popcount64(cand) <= 3
        # the degrees of a leaf's s vertices and e edges add up to 2 e + s
        counts = np.bincount(key[leaf] + _SLOT_BY_SUM[deg[leaf].sum(axis=1)])
        if len(counts) > len(tally):
            tally, counts = counts, tally
        tally[: len(counts)] += counts
        inner = ~leaf
        cand, key, deg = cand[inner], key[inner], deg[inner]
        if not len(cand):
            continue
        p = deg.argmax(axis=1)  # the first vertex of largest degree, the walker's pivot
        rest = cand & ~closed[p]
        at = _bits(rest)
        node, v = at >> 6, at & 63
        stack.append(
            (
                np.concatenate((cand & adj[p], cand[node] & adj[v] & ~(rest[node] & below[v]))),
                np.concatenate((key + 8, key[node] + 8 * (n + 1))),
            )
        )
    return {key: cnt for key, cnt in enumerate(tally.tolist()) if cnt}


def _tree_profile(rows) -> tuple[int, ...]:
    """Clique counts of every size of the graph with bit-rows ``rows``, from
    the succinct clique tree (see ``clique_profile``)."""
    n = len(rows)
    width = n + 1
    by_size = [0] * width
    for key, cnt in (_walk_leaves if n < _FRONTIER_MIN else _frontier_leaves)(rows).items():
        holds, key = divmod(key, 8 * width)
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
    tree stops at a set of s <= 3 vertices with e edges, which holds
    1 + s x + e x^2 + [e = 3] x^3 cliques, so the leaf adds
    x^h (1 + x)^q (1 + s x + e x^2 + [e = 3] x^3) to the profile.  Leaves are
    tallied by (h, q, s, e) and expanded once at the end.

    Below 32 vertices a Python walker visits the tree one node at a time.
    From 32 on, a numpy frontier takes up to 512 nodes a step off a
    depth-first stack: it reads their member vertices and degrees in bulk,
    picks each pivot as the first vertex of largest degree, as the walker
    does, tallies the leaves and pushes the children.  Both build the same
    tree and tally the same leaves; the frontier wins once a call visits
    more than a few hundred nodes, which small graphs rarely do."""
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
