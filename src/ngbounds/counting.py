"""Exact clique and independent-set counting.

``clique_profile`` counts the cliques of every size on the succinct clique
tree of Jain and Seshadhri (WSDM 2020), on bit-rows with no memo.  The tree
stops at a candidate set of at most 3 vertices and tallies its cliques in
closed form.  One traversal counts everything: ``_tree_profiles`` walks the
trees of a batch of bit-rows lists level by level in numpy, and a single
graph is a batch of one.  The frontier takes up to 2,048 nodes a step from
one depth-first stack that holds the nodes of every graph in the batch,
each keyed by its graph.  A step's arrays hold at most 2,048 x 64 (node,
vertex) pairs, and the stack at most one block of children per tree level;
one profile of the complement of C62 peaks at 3.0 MB of traced
allocations.  Each step costs a few dozen numpy calls however few nodes it
holds, so a caller that counts many small graphs hands them over in one
batch, or in batches of about ``GROUP_ROWS`` rows when their number has no
bound.  Counting takes the rows alone, so ``independent_profile`` counts
on the complemented rows and builds no complement ``Graph``.

Counts are Python ints (arbitrary precision): k(K_62) = 2^62 already
overflows 64 bits once multiplied into the product quantity.

Conventions: the empty set and singletons count as cliques and as
independent sets, so a profile p, the tuple whose entry p[t] counts the
t-vertex sets, has length n + 1, p[0] = 1 and, for n >= 1, p[1] = n.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
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
# A leaf key is 512 holds + 8 pivots + slot < 2^15; a frontier code adds 2^15 graph.
_HOLD, _PIVOT, _GRAPH_SHIFT = 512, 8, 15
_CHUNK = 2048  # tree nodes per numpy step: bounds the memory of one step
GROUP_ROWS = 1024  # rows, complements aside, that a caller of unbounded batches counts in one call
_BELOW = np.array([(1 << v) - 1 for v in range(64)], dtype="<u8")  # the vertices below v


@cache
def _leaf_poly(key: int) -> tuple[int, ...]:
    """(1 + x)^q (1 + s x + e x^2 + [e = 3] x^3) for key = 8 q + slot: the
    cliques of a leaf with q pivots, less its holds."""
    pivots, slot = divmod(key, _PIVOT)
    s, e = _LEAF_SETS[slot]
    poly = [c for c in (1, s, e, int(e == 3)) if c]
    return tuple(sum(c * comb(pivots, i - j) for j, c in enumerate(poly[: i + 1])) for i in range(pivots + len(poly)))


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


def _bits(words: np.ndarray, shift: int) -> np.ndarray:
    """2^shift i + v for each bit v set in words[i], in increasing order,
    for words below 2^(2^shift), 3 <= shift <= 6."""
    low = words.view(np.uint8).reshape(-1, 8)[:, : 1 << (shift - 3)]
    return np.flatnonzero(np.unpackbits(low, axis=1, bitorder="little").view(bool))


def _fold(code: np.ndarray, count: np.ndarray, leaves: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The tally of distinct codes ``code`` with leaf counts ``count``, in
    increasing order, with one more leaf for each code in the arrays
    ``leaves``."""
    code = np.concatenate([code, *leaves])
    count = np.concatenate((count, np.ones(len(code) - len(count), dtype=np.int64)))
    order = np.argsort(code, kind="stable")
    code, count = code[order], count[order]
    start = np.flatnonzero(np.diff(code, prepend=-1))  # where a run of equal codes >= 0 starts
    return code[start], np.add.reduceat(count, start)


def _frontier_leaves(row_lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaf counts by key of the succinct clique tree (see
    ``clique_profile``) of every bit-rows list of ``row_lists``, from one
    walk of all their trees in numpy, up to _CHUNK nodes a step; returned as
    graph index, key and count arrays, ordered by graph, then key.

    The rows of all graphs stand in one array, graph i's from base[i] on.  A
    node is a candidate set, a little-endian uint64 word, and its code
    2^15 i + 512 holds + 8 pivots.  Each step pops a chunk off a depth-first
    stack, tallies its leaves and pushes the children of the other nodes: the
    pivot child cand & N(p), and for each hold v the candidate set
    cand & N(v) less the holds before v."""
    sizes = np.array([len(rows) for rows in row_lists], dtype=np.int64)
    base = np.cumsum(sizes) - sizes
    adj = np.fromiter(chain.from_iterable(row_lists), dtype="<u8", count=int(sizes.sum()))
    closed = adj | np.uint64(1) << (np.arange(len(adj)) - np.repeat(base, sizes)).astype(np.uint64)
    shift = max(3, (int(sizes.max(initial=1)) - 1).bit_length())  # every row fits the low 2^shift bits
    width = 1 << shift
    code = count = np.zeros(0, dtype=np.int64)  # the distinct leaf codes so far and their leaf counts
    leaves: list[np.ndarray] = []  # the codes of the leaves not yet folded into the tally
    held = 0  # their number; past 8 chunks' worth they are folded in, which bounds their memory
    stack = [((np.uint64(1) << sizes.astype(np.uint64)) - np.uint64(1), np.arange(len(sizes)) << _GRAPH_SHIFT)]
    while stack:
        cands, keys, room = [], [], _CHUNK  # the step takes _CHUNK nodes off the stack, or all it holds
        while room and stack:
            cand, key = stack.pop()
            if len(cand) > room:
                stack.append((cand[:-room], key[:-room]))
                cand, key = cand[-room:], key[-room:]
            cands.append(cand)
            keys.append(key)
            room -= len(cand)
        cand, key = np.concatenate(cands), np.concatenate(keys)
        off = base[key >> _GRAPH_SHIFT]
        # deg[i, v] is 1 + the degree of v within cand[i] for v in cand[i], else 0
        at = _bits(cand, shift)
        node = at >> shift
        deg = np.zeros((len(cand), width), dtype=np.uint8)
        deg.reshape(-1)[at] = _popcount64(cand[node] & closed[off[node] + (at & width - 1)])
        leaf = _popcount64(cand) <= 3
        # the degrees of a leaf's s vertices and e edges add up to 2 e + s
        leaves.append(key[leaf] + _SLOT_BY_SUM[deg[leaf].sum(axis=1)])
        held += len(leaves[-1])
        if held > 8 * _CHUNK:
            code, count = _fold(code, count, leaves)
            leaves, held = [], 0
        inner = ~leaf
        cand, key, deg, off = cand[inner], key[inner], deg[inner], off[inner]
        if not len(cand):
            continue
        p = deg.argmax(axis=1)  # the pivot: the first vertex of largest degree
        rest = cand & ~closed[off + p]
        at = _bits(rest, shift)
        node, v = at >> shift, at & width - 1
        stack.append(
            (
                np.concatenate((cand & adj[off + p], cand[node] & adj[off[node] + v] & ~(rest[node] & _BELOW[v]))),
                np.concatenate((key + _PIVOT, key[node] + _HOLD)),
            )
        )
    code, count = _fold(code, count, leaves)
    return code >> _GRAPH_SHIFT, code & (1 << _GRAPH_SHIFT) - 1, count


def _tree_profiles(row_lists) -> list[tuple[int, ...]]:
    """Clique counts of every size of each bit-rows list in ``row_lists``,
    from one numpy walk of all their succinct clique trees.

    Each leaf tally expands through a table of its key's polynomial
    x^holds (1 + x)^pivots (...), all in int64: every term is non-negative
    and at most the profile entry it adds to, which is at most
    C(62, 31) < 2^63."""
    graph, key, count = _frontier_leaves(row_lists)
    seen = np.zeros(1 << _GRAPH_SHIFT, dtype=bool)
    seen[key] = True
    keys = np.flatnonzero(seen)
    inv = np.searchsorted(keys, key)  # each tally's row of the table
    table = np.zeros((len(keys), max(map(len, row_lists), default=0) + 1), dtype=np.int64)
    for row, k in zip(table, keys.tolist()):
        holds, k = divmod(k, _HOLD)
        poly = _leaf_poly(k)
        row[holds : holds + len(poly)] = poly
    by_size = np.zeros((len(row_lists), table.shape[1]), dtype=np.int64)
    for lo in range(0, len(graph), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        start = np.flatnonzero(np.diff(graph[part], prepend=-1))  # each graph's first tally in the part
        by_size[graph[part][start]] += np.add.reduceat(count[part, None] * table[inv[part]], start, axis=0)
    return [tuple(sizes[: len(rows) + 1]) for sizes, rows in zip(by_size.tolist(), row_lists)]


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

    A numpy frontier takes up to 2,048 nodes a step off a depth-first stack:
    it reads their member vertices and degrees in bulk, picks each pivot as
    the first vertex of largest degree, tallies the leaves by graph and key
    and pushes the children (see ``_frontier_leaves``)."""
    return _tree_profiles([g.adj])[0]


def independent_profile(g: Graph) -> tuple[int, ...]:
    """Entry t is the number of t-vertex independent sets: the cliques of the
    complemented rows."""
    return _tree_profiles([complement_rows(g.adj)])[0]


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
