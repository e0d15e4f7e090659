"""Brute-force oracles: exhaustive extremal scans and seeded random sampling.

Exhaustive scans enumerate every labeled graph as an edge-set bitmask over
``edge_list(n)`` slots: a row (the high half) and a column (the low half).
Each tracked vertex subset occupies one bit of a 64-bit word, one table per
half says which subsets are cliques within its edges, and a block of graphs
is counted by a broadcast AND of a class of rows against a class of columns
and a popcount.  Only clique tables are built: a subset is independent in a
mask exactly when it is a clique of the complement mask, whose row and
column are the reversed ones.  Sharding is by residue: shard k of K takes
the masks congruent to k mod K, and partial records merge associatively.
Within a shard the blocks alternate between two stripes, one scanned by the
calling thread and one on a one-worker ThreadPoolExecutor (numpy's loops
release the interpreter lock); each stripe counts its blocks into its own
buffers, allocated once and cache-sized, and the stripes merge like shards.
The coloring scan tabulates k(G_mask) with the same kernel and evaluates
every coloring as array lookups, color by color; witnesses are written from
families of their color codes, with no member graph built.

Randomness is PCG64 via numpy.  Every sampler draws from the Generator its
caller passes, and ``rng_for`` alone turns seeds into a stream: one draw uses
rng_for([seed]), trial ``i`` of a multi-trial run rng_for([seed, i]).
Identical seeds give identical artifacts on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, compress, cycle
from math import comb, gcd, prod
from operator import attrgetter
from typing import Optional

import numpy as np

from .counting import _check_t, _popcount64, _profile_pairs
from .graphs import MAX_VERTICES, Graph, edge_list, edge_slot, emit_graph6, iter_bits, parse_graph6
from .multicolor import MAX_COLORS, GraphFamily, Tournament, _counted_families, emit_coloring, parse_coloring

WITNESS_CAP = 100
_TOTAL_SCAN_MAX = 7  # 2^21 graphs
_SIZED_SCAN_MAX = 8  # 2^28 graphs, fixed-size counts only
_COLORING_LOOKUPS_MAX = 1 << 22  # r^(C(n,2)+1): 4^11 at (n, r) = (5, 4)
_BLOCK = 1 << 16  # edge masks per block: a stripe's 512 KiB of AND words stays in cache, where 2^20 ran slower
_STRIPES = 2  # threads per graph-scan shard: the reference machine has nproc = 2

# name -> the numpy ufunc that combines a graph's clique and independent counts
_GRAPH_QUANTITIES = {"sigma": np.add, "pi": np.multiply, "sigma_t": np.add, "pi_t": np.multiply}
# name -> (a coloring's value from its per-color clique counts, the numpy ufunc that combines them)
_COLORING_QUANTITIES = {"sum": (sum, np.add), "product": (prod, np.multiply)}


def rng_for(seed_ints) -> np.random.Generator:
    """The package-wide generator: PCG64 seeded by SeedSequence(seed_ints)."""
    return np.random.default_rng(np.random.SeedSequence(list(seed_ints)))


@dataclass(frozen=True)
class ExtremalRecord:
    """Self-verifying extremal result: every witness re-evaluates to value."""

    n: int
    quantity: str
    direction: str
    t: Optional[int]
    value: Optional[int]  # None for an empty shard
    witnesses: tuple[str, ...]
    total_witnesses: int
    r: Optional[int] = None  # the color count of a coloring scan, None for a graph scan

    def recheck(self) -> bool:
        """Re-evaluate every stored witness from its serialized form, all of
        them (and a graph's complement) in one counting stream."""
        if self.value is None:
            return not self.witnesses
        if self.r is not None:
            evaluate = _COLORING_QUANTITIES[self.quantity][0]
            fams = _counted_families(map(parse_coloring, self.witnesses))
            return all(evaluate(counts) == self.value for _, counts in fams)
        graphs = [parse_graph6(blob) for blob in self.witnesses]
        for g, (kp, ip) in zip(graphs, _profile_pairs(g.adj for g in graphs)):
            if self.t is None:
                k, i = sum(kp), sum(ip)
            else:
                _check_t(g, self.t)
                k, i = kp[self.t], ip[self.t]
            if (k + i if self.quantity.startswith("sigma") else k * i) != self.value:
                return False
        return True


def _tables(n: int, t: Optional[int]):
    """Lookup tables of the tracked vertex subsets (all sizes, or size t):
    (lo_bits, words), one (cl_lo, cl_hi) word per 64 subsets.  Bit b of
    cl_lo[x] & cl_hi[y] says subset b is a clique of edge mask
    x | y << lo_bits."""
    m = comb(n, 2)
    lo_bits = min(m, 14)
    pairmasks = [
        sum(1 << edge_slot(n, u, v) for u, v in combinations(verts, 2))
        for size in (range(n + 1) if t is None else [t])
        for verts in combinations(range(n), size)
    ]
    xs_lo = np.arange(1 << lo_bits, dtype=np.int64)
    xs_hi = np.arange(1 << (m - lo_bits), dtype=np.int64)
    words = []
    for start in range(0, len(pairmasks), 64):
        cl_lo = np.zeros(len(xs_lo), dtype=np.uint64)
        cl_hi = np.zeros(len(xs_hi), dtype=np.uint64)
        for bit, pm in enumerate(pairmasks[start : start + 64]):
            pm_lo = pm & (len(xs_lo) - 1)
            pm_hi = pm >> lo_bits
            shift = np.uint64(bit)
            cl_lo |= ((xs_lo & pm_lo) == pm_lo).astype(np.uint64) << shift
            cl_hi |= ((xs_hi & pm_hi) == pm_hi).astype(np.uint64) << shift
        words.append((cl_lo, cl_hi))
    return lo_bits, words


def _clique_counts(words, hi, lo, ands, out) -> None:
    """Tracked clique counts of edge masks hi[i] << lo_bits | lo[j] into
    out[i, j], by way of the uint64 array ``ands`` of out's shape.  uint16 holds
    every count and every combination of two: the totals scan tracks at most
    2^7 = 128 subsets and the sized scan at most C(8, 4) = 70, so a product
    is <= 16,384 and a sum <= 256."""
    (cl_lo, cl_hi), *rest = words
    _popcount64(np.bitwise_and(cl_hi[hi, None], cl_lo[lo], out=ands), out)
    for cl_lo, cl_hi in rest:
        out += _popcount64(np.bitwise_and(cl_hi[hi, None], cl_lo[lo], out=ands), ands)


def _mask_counts(lo_bits: int, words, shards: int, shard: int, stripe: int = 0, stripes: int = 1):
    """Tracked clique and independent-set counts of the edge masks congruent
    to ``shard`` mod ``shards``, block by block: yields (hi, lo, kcnt, icnt),
    the counts of mask hi[i] << lo_bits | lo[j] at [i, j].  Of the blocks in
    layout order, this yields those whose index is ``stripe`` mod
    ``stripes``.

    In row hi the shard's columns are the class (shard - hi 2^lo_bits) mod
    shards, so rows congruent mod shards / gcd(shards, 2^lo_bits) share one.
    A block is some rows of such a progression against their class, counted
    by a broadcast AND of their table words and a popcount; independent sets
    are the cliques of the complement, at the reversed row and column.  A
    block's masks are in increasing order row-major; blocks of different
    progressions interleave.  Every block is counted into the same three
    buffers, allocated once, so a yielded block's arrays are overwritten
    when the next one is asked for."""
    n_lo, n_hi = 1 << lo_bits, len(words[0][1])
    period = shards // gcd(shards, n_lo)
    scratch = np.empty(_BLOCK, dtype=np.uint64)
    kbuf, ibuf = np.empty(_BLOCK, dtype=np.uint16), np.empty(_BLOCK, dtype=np.uint16)
    turns = cycle(range(stripes))
    for phase in range(min(period, n_hi)):
        lo = np.arange((shard - phase * n_lo) % shards, n_lo, shards)
        if not len(lo):
            continue
        rows = np.arange(phase, n_hi, period)
        step = max(1, _BLOCK // len(lo))
        for start in range(0, len(rows), step):
            if next(turns) != stripe:
                continue
            hi = rows[start : start + step]
            shape, size = (len(hi), len(lo)), len(hi) * len(lo)
            ands, kcnt, icnt = (buf[:size].reshape(shape) for buf in (scratch, kbuf, ibuf))
            _clique_counts(words, hi, lo, ands, kcnt)
            _clique_counts(words, n_hi - 1 - hi, n_lo - 1 - lo, ands, icnt)
            yield hi, lo, kcnt, icnt


def _merge_parts(parts, want_max: bool):
    """Merge partial scan results (value, smallest witness masks, witness
    total), value None for no mask: the best value, the WITNESS_CAP smallest
    masks of the parts that reach it, and the sum of their totals."""
    live = [part for part in parts if part[0] is not None]
    if not live:
        return None, [], 0
    best = (max if want_max else min)(value for value, _, _ in live)
    top = [part for part in live if part[0] == best]
    return best, sorted(mk for _, masks, _ in top for mk in masks)[:WITNESS_CAP], sum(total for _, _, total in top)


def _scan_stripe(lo_bits: int, words, shards: int, shard: int, combine, want_max: bool, stripe: int):
    """The partial result (see ``_merge_parts``) of one stripe of one shard."""
    part = (None, [], 0)
    for hi, lo, kcnt, icnt in _mask_counts(lo_bits, words, shards, shard, stripe, _STRIPES):
        vals = combine(kcnt, icnt, out=kcnt)
        ext = int(vals.max() if want_max else vals.min())
        if part[0] is None or (ext >= part[0] if want_max else ext <= part[0]):
            hits = np.flatnonzero(vals == ext)
            rows, cols = np.divmod(hits[:WITNESS_CAP], len(lo))
            part = _merge_parts([part, (ext, (hi[rows] << lo_bits | lo[cols]).tolist(), len(hits))], want_max)
    return part


def exhaustive_extremal(
    n: int,
    quantity: str,
    direction: str,
    t: Optional[int] = None,
    shards: int = 1,
    shard: Optional[int] = None,
) -> ExtremalRecord:
    """Exact extremum of a quantity over all labeled graphs on n vertices.

    quantity: 'sigma' | 'pi' (n <= 7) or 'sigma_t' | 'pi_t' (needs t, n <= 8).
    With ``shard=None`` all shards run and merge in shard order (so the
    witnesses kept, not the value or total, depend on ``shards``); a specific
    shard yields the partial record for masks congruent to it mod ``shards``.
    """
    if quantity not in _GRAPH_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    sized = quantity.endswith("_t")
    if sized and t is None:
        raise ValueError(f"{quantity} needs a size t")
    if not sized and t is not None:
        raise ValueError(f"{quantity} takes no size parameter")
    limit = _SIZED_SCAN_MAX if sized else _TOTAL_SCAN_MAX
    if not 1 <= n <= limit:
        raise ValueError(f"labeled {quantity} scan is capped at 1 <= n <= {limit}, got {n}")
    if sized and not 0 <= t <= n:
        raise ValueError(f"size t must be in [0, {n}], got {t}")
    if shards < 1:
        raise ValueError("need at least one shard")
    if shard is None:
        parts = [exhaustive_extremal(n, quantity, direction, t, shards=shards, shard=s) for s in range(shards)]
        return merge_records(parts)
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")

    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: it imports logging, 0.5 MB of RSS
    want_max = direction == "max"
    combine = _GRAPH_QUANTITIES[quantity]
    scan = partial(_scan_stripe, *_tables(n, t if sized else None), shards, shard, combine, want_max)
    with ThreadPoolExecutor(_STRIPES - 1) as pool:  # stripe 0 stays here: a pool thread's buffers take a new arena
        helpers = [pool.submit(scan, stripe) for stripe in range(1, _STRIPES)]
        parts = [scan(0)] + [helper.result() for helper in helpers]
    best, masks, total_wit = _merge_parts(parts, want_max)
    witnesses = tuple(emit_graph6(Graph.from_edge_mask(n, mk)) for mk in masks)
    return ExtremalRecord(n, quantity, direction, t if sized else None, best, witnesses, total_wit)


def merge_records(records) -> ExtremalRecord:
    """Combine shard records: the best value, the summed witness totals at it,
    and those records' witnesses in the order given, cut at WITNESS_CAP."""
    records = list(records)
    if not records:
        raise ValueError("nothing to merge")
    head = records[0]
    scan = attrgetter("n", "quantity", "direction", "t", "r")
    if any(scan(rec) != scan(head) for rec in records):
        raise ValueError("cannot merge records of different scans")
    live = [rec for rec in records if rec.value is not None]
    if not live:
        raise ValueError("all shards were empty")
    pick = max if head.direction == "max" else min
    value = pick(rec.value for rec in live)
    witnesses: list[str] = []
    total = 0
    for rec in live:
        if rec.value == value:
            total += rec.total_witnesses
            witnesses.extend(rec.witnesses[: max(0, WITNESS_CAP - len(witnesses))])
    return ExtremalRecord(head.n, head.quantity, head.direction, head.t, value, tuple(witnesses), total, head.r)


def exhaustive_coloring_extremal(n: int, r: int, quantity: str, direction: str) -> ExtremalRecord:
    """Exact extremum of the per-color clique-count sum/product over all
    total r-colorings of the n-clique's edges.

    Code x colors slot s with digit x // r^s % r; witnesses come in code order.
    The graph scan's kernel tabulates K[mask] = k(G_mask) for all 2^m masks, a
    color's mask joins digit tables of the low m // 2 slots and the rest, and
    a coloring's value sums or multiplies its r lookups in int64 where it fits
    (counts are <= 2^n, so products need n r <= 62).  Past that, the scan
    counts how many colors of each code have each of the 2^m masks and takes
    the exact product of K[mask]^count once per distinct count vector: one
    per set partition of the m slots, so few.  A lone
    coloring (r = 1, whose table would need 2^m entries, or n <= 1) uses the
    counting engine.

    The work is capped up front.  The scan does r lookups for each of the
    r^m colorings, and r^(m+1) may not pass 2^22, the work of all 4^10
    colorings of K_5.  A lone coloring builds one graph per color, and r may
    not pass ``MAX_COLORS`` = 2^16, the color cap of every family.
    """
    if quantity not in _COLORING_QUANTITIES:
        raise ValueError(f"unknown coloring quantity {quantity!r}")
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    if r < 1:
        raise ValueError("need at least one color")
    m = comb(n, 2)
    if r > 1 and m:
        # r >= 2 and m >= 22 give r^(m+1) >= 2^23, so the power is never huge
        if m >= 22 or r ** (m + 1) > _COLORING_LOOKUPS_MAX:
            raise ValueError(f"{r} colors on {n} vertices need {r}^{m + 1} table lookups, past the cap of 2^22")
    elif r > MAX_COLORS:
        raise ValueError(f"{r} colors on {n} vertices need {r} graphs, past the cap of 2^16")
    evaluate, combine = _COLORING_QUANTITIES[quantity]
    if r**m == 1:
        fam = GraphFamily(n, r, [0] * m)
        return ExtremalRecord(n, quantity, direction, None, evaluate(fam.clique_counts()), (emit_coloring(fam),), 1, r)
    # one shard: every block is whole rows, so the blocks run in mask order
    kcnt = np.concatenate([k.ravel().astype(np.int64) for _, _, k, _ in _mask_counts(*_tables(n, None), 1, 0)])
    low = m // 2
    bits = np.int64(1) << np.arange(m, dtype=np.int64)
    lo_digits = np.arange(r**low)[:, None] // r ** np.arange(low) % r
    hi_digits = np.arange(r ** (m - low))[:, None] // r ** np.arange(m - low) % r
    # each color's mask in every code; code = hi * r^low + lo, so the hi index is the outer one
    color_masks = ((((hi_digits == c) @ bits[low:])[:, None] | (lo_digits == c) @ bits[:low]).ravel() for c in range(r))
    if quantity == "sum" or n * r <= 62:
        vals = np.full(r**m, combine.identity, dtype=np.int64)
        for mask in color_masks:
            combine(vals, kcnt[mask], out=vals)
        ext = int(vals.max() if direction == "max" else vals.min())
        hits = np.flatnonzero(vals == ext)
    else:
        # past int64 (n <= 3 under the cap, so 2^m <= 8 masks): distinct
        # colors hit disjoint masks, so each nonempty mask is hit at most
        # once, and a code's set of nonempty hit masks, one bit each, gives
        # every count: the other colors hit the empty mask.  The exact
        # product is taken once per distinct set.
        hit = np.zeros(r**m, dtype=np.int64)
        for mask in color_masks:
            hit |= np.int64(1) << mask
        hit_sets, inverse = np.unique(hit & ~1, return_inverse=True)
        products = [
            int(kcnt[0]) ** (r - hs.bit_count()) * prod(int(kcnt[v]) for v in iter_bits(hs)) for hs in map(int, hit_sets)
        ]
        ext = max(products) if direction == "max" else min(products)
        hits = np.flatnonzero(np.isin(inverse.ravel(), [i for i, v in enumerate(products) if v == ext]))
    witnesses = tuple(
        emit_coloring(GraphFamily(n, r, [int(code) // r**s % r for s in range(m)])) for code in hits[:WITNESS_CAP]
    )
    return ExtremalRecord(n, quantity, direction, None, ext, witnesses, len(hits), r)


def sample_random_graph(n: int, rng: np.random.Generator) -> Graph:
    """One draw of G(n, 1/2) from ``rng``: one fair bit per ``edge_list(n)``
    slot, in order; the pairs whose bit is 1 go to ``Graph.from_edges``."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [0, {MAX_VERTICES}], got {n}")
    bits = rng.integers(0, 2, size=comb(n, 2))
    return Graph.from_edges(n, compress(edge_list(n), bits.tolist()))


def sample_random_coloring(n: int, r: int, rng: np.random.Generator, partial: bool = False) -> GraphFamily:
    """Uniform random r-coloring of the n-clique's edges: one draw from ``rng``
    per ``edge_list(n)`` slot, in order.  With ``partial`` a draw of 0 leaves
    the pair uncolored (uniform over the r + 1 options), which samples
    general edge-disjoint families."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in [0, {MAX_VERTICES}], got {n}")
    if r < 1:
        raise ValueError("need at least one color")
    lo = 0 if partial else 1
    draws = [int(rng.integers(lo, r + 1)) for _ in range(comb(n, 2))]
    return GraphFamily(n, r, [c - 1 if c else None for c in draws])


def random_tournament(size: int, rng: np.random.Generator) -> Tournament:
    """One fair bit from ``rng`` per ``edge_list(size)`` pair, in order: 1
    gives the pair to its lower vertex."""
    return Tournament(size, [i if rng.integers(0, 2) else j for i, j in edge_list(size)])


def random_pi_exponent(n: int, trials: int, seed: int) -> tuple[int, ...]:
    """Advisory log of the product's growth exponent: pi of ``trials`` samples
    of G(n, 1/2), trial i drawn from rng_for([seed, i]).  The ``exponent``
    command prints each ratio log(pi) / (log n * log2 n); no threshold is
    asserted, the asymptotic claim is not checkable at desk scale.  Every
    2 <= n <= 62 is allowed: random graphs have only small cliques, so exact
    counting stays fast up to the 62-vertex cap.  Trials are drawn lazily and
    counted with their complements in one stream, so ``trials`` needs no cap.
    """
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"exponent sampling needs 2 <= n <= {MAX_VERTICES}, got {n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    graphs = (sample_random_graph(n, rng_for([seed, i])).adj for i in range(trials))
    return tuple(sum(kp) * sum(ip) for kp, ip in _profile_pairs(graphs))
