"""Small graph builders, walk, packing and pivot oracles, exact polynomial
certificates, the counting oracles, and the scans the fast paths replaced,
shared across test modules."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, log, log2

import numpy as np

from ngbounds import BorderPath, ExtremalRecord, Graph, GraphFamily, build, emit_coloring, emit_graph6, one_turn_value
from ngbounds import counting, sample_random_graph
from ngbounds.counting import _HOLD, _leaf_poly, _popcount64, _profile_pairs
from ngbounds.graphs import complement_rows
from ngbounds.oracle import _GRAPH_QUANTITIES, WITNESS_CAP, _mask_counts, _tables


def graph_of_pairs(n: int, pairs) -> Graph:
    """The graph on ``n`` vertices with edge pairs ``pairs``, built without the
    library's pairs-to-rows code: a numpy boolean adjacency matrix, made
    symmetric, its rows packed into ints by shifted sums."""
    adj = np.zeros((n, n), dtype=bool)
    ends = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
    adj[ends[:, 0], ends[:, 1]] = True
    adj |= adj.T
    packed = (adj.astype(np.int64) << np.arange(n, dtype=np.int64)).sum(axis=1)
    return Graph(n, tuple(int(row) for row in packed))


def pairs_of_mask(n: int, mask: int) -> list[tuple[int, int]]:
    """The pairs whose slot of the row-major order (0, 1), (0, 2), ... is set in ``mask``."""
    return [pair for slot, pair in enumerate(combinations(range(n), 2)) if mask >> slot & 1]


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def exponent_ratios(n: int, products) -> list[float]:
    """log(pi) / (log n * log2 n) per trial, the ratio the exponent command prints."""
    return [log(p) / (log(n) * log2(n)) for p in products]


def complement(g: Graph) -> Graph:
    return Graph(g.n, tuple(complement_rows(g.adj)))


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def random_graph(n: int, rng) -> Graph:
    """G(n, 1/2) drawn from ``rng``, by the library's own sampler."""
    return sample_random_graph(n, rng)


def gnp_graph(n: int, p: float, rng) -> Graph:
    """Each of the n(n-1)/2 edges present with probability p."""
    m = n * (n - 1) // 2
    mask = 0
    if m:
        for i, hit in enumerate(rng.random(m) < p):
            if hit:
                mask |= 1 << i
    return Graph.from_edge_mask(n, mask)


# The counting oracles: the Python walker of the clique tree, which must tally
# the same leaves as the numpy frontier, and the subset scan, which shares no
# code with either.


def _walk_leaves(rows) -> dict[int, int]:
    """Leaf counts by key of the succinct clique tree of the graph with
    bit-rows ``rows``, walked depth first in Python (see ``clique_profile``)."""
    leaves: dict[int, int] = {}  # 512 holds + 8 pivots + slot -> leaf count; literal steps below, as globals cost 2%

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
                walk(cand & rows[low.bit_length() - 1], key + 512)
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

    walk((1 << len(rows)) - 1, 0)
    return leaves


def walker_profile(rows) -> tuple[int, ...]:
    """Clique counts of every size of the graph with bit-rows ``rows``, from
    the walker's leaf tallies expanded one by one in Python ints."""
    by_size = [0] * (len(rows) + 1)
    for key, cnt in _walk_leaves(rows).items():
        holds, key = divmod(key, _HOLD)
        for i, c in enumerate(_leaf_poly(key), holds):
            by_size[i] += cnt * c
    return tuple(by_size)


def frontier_calls(monkeypatch) -> list[list[int]]:
    """Patch the numpy frontier to record the sizes of the bit-rows lists of
    each call it makes, in the list returned."""
    real, calls = counting._tree_profiles, []

    def counted(row_lists):
        calls.append(list(map(len, row_lists)))
        return real(row_lists)

    monkeypatch.setattr(counting, "_tree_profiles", counted)
    return calls


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


def full_scan_pivot(rows, degs):
    """The pivot search with no carried state: ``_next_pivot`` as it was
    before it learnt to rescan only the pairs the last pivot touched.  For
    s = 0, 1, ... it tries every w as the target of the pair {s, w}."""
    for s, (row_s, deg_s) in enumerate(zip(rows, degs)):
        not_s = ~row_s & ~(1 << s)
        for w, (row_w, deg_w) in enumerate(zip(rows, degs)):
            if (deg_w > deg_s or (deg_w == deg_s and w < s)) and row_w & not_s and row_s & ~row_w & ~(1 << w):
                return s, w
    return None


def walk(code: str) -> BorderPath:
    """The walk of a display code: the seed's step repeats the code's last
    symbol, '-' for the 1-vertex code, as ``recognize`` writes it."""
    return BorderPath(code + (code[-1:] or "-"))


def walk_heights(steps: str) -> tuple[int, ...]:
    """Height of each '-' step: the degrees of the independent side."""
    return tuple(steps[:i].count("+") for i, step in enumerate(steps) if step == "-")


def walk_end(steps: str) -> tuple[int, int]:
    """Where the walk ends: its '-' and '+' steps, the independent and clique side sizes."""
    return steps.count("-"), steps.count("+")


def walk_columns(steps: str) -> tuple[int, ...]:
    """Column of each '+' step: the non-neighbour counts of the clique side."""
    return tuple(steps[:i].count("-") for i, step in enumerate(steps) if step == "+")


# Packed degree sequences: the oracle for the packing identity of a walk's
# two sides and for the brute-force border search.


def conjugate(seq) -> tuple[int, ...]:
    """Ferrers transpose: entry j (1-indexed) counts values >= j; order-free, non-increasing."""
    vals = list(seq)
    if any(x < 0 for x in vals):
        raise ValueError("entries must be non-negative")
    return tuple(sum(1 for x in vals if x >= j) for j in range(1, max(vals, default=0) + 1))


def packed_pair(b, r: int, s: int) -> tuple[int, ...]:
    """The clique-side sequence packed against the non-decreasing independent-side
    degrees ``b`` in an r x s rectangle: the conjugate of (r - b_j), zero padded
    to length r, the extremal sequence the Gale-Ryser theorem allows once b is fixed."""
    b = tuple(b)
    if len(b) != s or any(x < 0 or x > r for x in b) or any(x > y for x, y in zip(b, b[1:])):
        raise ValueError(f"need {s} non-decreasing entries in [0, {r}], got {b}")
    a = conjugate(r - x for x in b)
    return a + (0,) * (r - len(a))


def border_from_heights(heights, r: int) -> BorderPath:
    """Staircase for non-decreasing column heights: height[j] cells of column
    j+1 lie below the path; ends with the rise to the full height r."""
    levels = (0, *heights, r)
    if any(a > b for a, b in zip(levels, levels[1:])):
        raise ValueError("heights must be non-decreasing and lie in [0, r]")
    return BorderPath("-".join("+" * (b - a) for a, b in zip(levels, levels[1:])))


# Exact certificates for the continuous border analysis.  Polynomials are
# coefficient lists, lowest degree first, evaluated at ints or Fractions.


def poly_at(coeffs, x):
    """sum coeffs[k] * x^k by Horner's rule, exact for int or Fraction x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sign_changes(coeffs) -> int:
    """Sign changes along the non-zero coefficients; by Descartes' rule of
    signs a count of 1 means exactly one positive root."""
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def split_polynomial(t: int) -> tuple[int, int, int]:
    """P_t(q) = 2(t-1)q^2 - (t-2)q - 1, whose root in (0, 1) is the optimal
    one-turn split."""
    return (-1, -(t - 2), 2 * (t - 1))


def ratio_polynomial(t: int) -> list[int]:
    """R_t(lam) = (1 + lam)^(t-1) - 1 - (t-1)^2 lam: an interior critical
    point (a, b, c) of the two-turn product forces R_t(b/a) = 0."""
    coeffs = [comb(t - 1, k) for k in range(t)]
    coeffs[0] -= 1
    coeffs[1] -= (t - 1) ** 2
    return coeffs


class Dual:
    """a + b*eps with eps^2 = 0.  A polynomial evaluated at Dual(q, 1)
    carries its exact value in ``a`` and its exact derivative in ``b``."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __radd__(self, c):
        return Dual(c + self.a, self.b)

    def __rsub__(self, c):
        return Dual(c - self.a, -self.b)

    def __mul__(self, other):
        if not isinstance(other, Dual):
            return Dual(self.a * other, self.b * other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return Dual(self.a**k, k * self.a ** (k - 1) * self.b)


def one_turn_slope_identity(t: int) -> bool:
    """Whether q(1-q)(1+(t-1)q) f'(q) = -t P_t(q) f(q) for
    f = one_turn_value(t, .), checked exactly at 2t + 3 points of (0, 1).

    Both sides are polynomials of degree <= 2t + 2, so agreement there is an
    identity.  The cubic factor is positive on (0, 1), so f rises below the
    root of P_t and falls above it: that root maximizes f."""
    coeffs = split_polynomial(t)
    for k in range(1, 2 * t + 4):
        q = Fraction(k, 2 * t + 4)
        f = one_turn_value(t, Dual(q, 1))
        if q * (1 - q) * (1 + (t - 1) * q) * f.b != -t * poly_at(coeffs, q) * f.a:
            return False
    return True


def two_turn_grid_argmax(t: int, k: int) -> tuple[int, int, int]:
    """First maximum, in row-major order over (i, j), of the two-turn product
    ((a+b)^t + t c a^(t-1)) (c^t + t b c^(t-1)) on the simplex grid
    a = i/k, b = j/k, c = (k-i-j)/k.  Values are scaled by k^(2t), so they
    are exact ints; returns (i, j, scaled value)."""
    pw = [x**t for x in range(k + 1)]
    pm = [x ** (t - 1) for x in range(k + 1)]
    best = (0, 0, -1)
    for i in range(k + 1):
        tpi = t * pm[i]
        for j in range(k + 1 - i):
            c = k - i - j
            val = (pw[i + j] + c * tpi) * (pw[c] + t * j * pm[c])
            if val > best[2]:
                best = (i, j, val)
    return best


# The brute-force searches the lattice-path search replaced, kept as its oracles.


def border_max_by_enumeration(r: int, s: int, t: int):
    """discrete_border_max by visiting all C(r+s, s) height sequences."""
    tm1 = t - 1
    pw = [x**tm1 for x in range(max(r, s) + 1)]
    rt = r**t
    st = s**t
    best_val = -1
    best_turns = -1
    best_b = None
    for b in combinations_with_replacement(range(r + 1), s):
        sb = 0
        for x in b:
            sb += pw[x]
        # conjugate sums without materializing the partner sequence:
        # a_i = #{j : b_j <= r - i}, walked with one pointer since b is sorted
        sa = 0
        p = s
        for level in range(r - 1, -1, -1):
            while p > 0 and b[p - 1] > level:
                p -= 1
            sa += pw[p]
        val = (rt + t * sb) * (st + t * sa)
        if val < best_val:
            continue
        turns = border_from_heights(b, r).turns
        if val > best_val or turns < best_turns or (turns == best_turns and b < best_b):
            best_val, best_turns, best_b = val, turns, b
    return border_from_heights(best_b, r), Fraction(best_val, factorial(t) ** 2)


def code_max_by_enumeration(n: int, t: int):
    """threshold_code_max by building and counting all 2^(n-1) codes, their
    graphs and complements in batches."""
    best = -1
    one_turn = False
    argmax = []
    codes = ["".join("+" if (bits >> i) & 1 else "-" for i in range(n - 1)) for bits in range(1 << max(0, n - 1))]
    rows = [build(walk(symbols[::-1])).adj for symbols in codes]
    for symbols, (kp, ip) in zip(codes, _profile_pairs(rows), strict=True):
        val = kp[t] * ip[t]
        if val > best:
            best, argmax, one_turn = val, [], False
        if val == best:
            changes = sum(1 for a, b in zip(symbols, symbols[1:]) if a != b)
            if changes <= 1:
                one_turn = True
            if len(argmax) < 5:
                argmax.append(symbols[::-1])
    return best, one_turn, argmax


# The per-mask gather scan the block kernel replaced, kept as its oracle.


def mask_counts_by_gather(ranges, lo_bits: int, words):
    """For each edge-mask range (start, stop, step): start, and each mask's
    tracked clique and independent-set counts, by indexing the low and high
    tables with every mask's two halves."""
    for start, stop, step in ranges:
        edges = np.arange(start, stop, step, dtype=np.int64)
        lo_idx = edges & ((1 << lo_bits) - 1)
        hi_idx = edges >> lo_bits
        kcnt = np.zeros(len(edges), dtype=np.int64)
        icnt = np.zeros(len(edges), dtype=np.int64)
        for cl_lo, cl_hi in words:
            kcnt += _popcount64(cl_lo[lo_idx] & cl_hi[hi_idx])
            icnt += _popcount64(cl_lo[::-1][lo_idx] & cl_hi[::-1][hi_idx])
        yield start, kcnt, icnt


def extremal_by_gather(n: int, quantity: str, direction: str, t=None, shards: int = 1, shard: int = 0):
    """One shard's ``exhaustive_extremal`` record, scanned in mask order in
    chunks of 2^22 masks by ``mask_counts_by_gather``."""
    chunk = 1 << 22
    m = n * (n - 1) // 2
    lo_bits, words = _tables(n, t)
    combine = _GRAPH_QUANTITIES[quantity]
    want_max = direction == "max"
    best = None
    masks = []
    total_wit = 0
    spans = ((base + (shard - base) % shards, min(base + chunk, 1 << m)) for base in range(0, 1 << m, chunk))
    ranges = ((first, stop, shards) for first, stop in spans if first < stop)
    for first, kcnt, icnt in mask_counts_by_gather(ranges, lo_bits, words):
        vals = combine(kcnt, icnt)
        ext = int(vals.max() if want_max else vals.min())
        if best is None or (ext > best if want_max else ext < best):
            best = ext
            masks = []
            total_wit = 0
        if ext == best:
            hits = np.flatnonzero(vals == ext)
            total_wit += len(hits)
            for idx in hits[: max(0, WITNESS_CAP - len(masks))]:
                masks.append(first + int(idx) * shards)
    witnesses = tuple(emit_graph6(Graph.from_edge_mask(n, mk)) for mk in masks)
    return ExtremalRecord(n, quantity, direction, t, best, witnesses, total_wit)


# The per-color loop over exact ints the counted products replaced, kept as their oracle.


def coloring_product_by_color_loop(n: int, r: int, direction: str):
    """``exhaustive_coloring_extremal(n, r, "product", direction)`` by
    multiplying every code's r table lookups, one color at a time, in an
    object array of exact ints."""
    m = n * (n - 1) // 2
    kcnt = np.concatenate([k.flatten() for _, _, k, _ in _mask_counts(*_tables(n, None), 1, 0)])
    table = kcnt.astype(object)
    low = m // 2
    bits = np.int64(1) << np.arange(m, dtype=np.int64)
    lo_digits = np.arange(r**low)[:, None] // r ** np.arange(low) % r
    hi_digits = np.arange(r ** (m - low))[:, None] // r ** np.arange(m - low) % r
    vals = np.full(r**m, 1, dtype=object)
    for c in range(r):
        mask = ((hi_digits == c) @ bits[low:])[:, None] | (lo_digits == c) @ bits[:low]
        vals *= table[mask.ravel()]
    ext = vals.max() if direction == "max" else vals.min()
    hits = np.flatnonzero(vals == ext)
    witnesses = tuple(
        emit_coloring(GraphFamily(n, r, [int(code) // r**s % r for s in range(m)])) for code in hits[:WITNESS_CAP]
    )
    return ExtremalRecord(n, "product", direction, None, int(ext), witnesses, len(hits), r)


# The permutation walk the subset recurrence replaced, kept as its oracle.


def good_sequences_by_permutation(fam: GraphFamily, q: int) -> int:
    """``count_good_sequences(fam, q)`` by visiting all n!/(n-q)! orders of
    q distinct vertices and keeping those where each vertex sees all its
    successors in a single color."""
    if q == 0:
        return 1
    count = 0
    for seq in permutations(range(fam.n), q):
        laters = [0] * q
        for i in range(q - 2, -1, -1):
            laters[i] = laters[i + 1] | (1 << seq[i + 1])
        ok = True
        for i in range(q - 1):
            later = laters[i]
            if not any(g.adj[seq[i]] & later == later for g in fam.members):
                ok = False
                break
        if ok:
            count += 1
    return count
