"""Brute-force oracles: exhaustive extremal scans and seeded random sampling.

Exhaustive scans enumerate every labeled graph as an edge-set bitmask over
``edge_list(n)`` slots.  Per-graph counts are evaluated in bulk: each
tracked vertex subset occupies one bit of a 64-bit word, two lookup tables
(low/high halves of the edge mask) say which subsets are cliques or
independent inside a graph, and a popcount finishes the job.  Sharding is
by residue: shard k of K processes masks congruent to k mod K, and partial
records merge associatively.

Randomness is PCG64 via numpy with an explicit stream rule: a sampler
called with ``seed`` draws from SeedSequence([seed]); trial ``i`` of a
multi-trial run draws from SeedSequence([seed, i]).  Identical seeds give
identical artifacts on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, log, log2
from typing import Optional

import numpy as np

from .counting import pi, pi_t, sigma, sigma_t
from .graphs import Graph, edge_list, emit_graph6, parse_graph6
from .multicolor import GraphFamily, Tournament, emit_coloring, parse_coloring

WITNESS_CAP = 100
_TOTAL_SCAN_MAX = 7  # 2^21 graphs
_SIZED_SCAN_MAX = 8  # 2^28 graphs, fixed-size counts only

_GRAPH_QUANTITIES = {"sigma", "pi", "sigma_t", "pi_t"}
_COLORING_QUANTITIES = {"sum", "product"}


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
    kind: str  # 'graph6' | 'coloring'
    r: Optional[int] = None

    def recheck(self) -> bool:
        """Re-evaluate every stored witness from its serialized form."""
        if self.value is None:
            return not self.witnesses
        for blob in self.witnesses:
            if self.kind == "graph6":
                got = _eval_graph_quantity(parse_graph6(blob), self.quantity, self.t)
            else:
                got = _eval_coloring_quantity(parse_coloring(blob), self.quantity)
            if got != self.value:
                return False
        return True


def _eval_graph_quantity(g: Graph, quantity: str, t: Optional[int]) -> int:
    if quantity == "sigma":
        return sigma(g)
    if quantity == "pi":
        return pi(g)
    if quantity == "sigma_t":
        return sigma_t(g, t)
    if quantity == "pi_t":
        return pi_t(g, t)
    raise ValueError(f"unknown graph quantity {quantity!r}")


def _eval_coloring_quantity(fam: GraphFamily, quantity: str) -> int:
    from .multicolor import product_clique_counts, sum_clique_counts

    if quantity == "sum":
        return sum_clique_counts(fam)
    if quantity == "product":
        return product_clique_counts(fam)
    raise ValueError(f"unknown coloring quantity {quantity!r}")


def _popcount64(arr: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    x = arr.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _subset_pairmasks(n: int, t: Optional[int]) -> list[int]:
    """Edge-slot requirement mask of each tracked vertex subset."""
    slots = {e: i for i, e in enumerate(edge_list(n))}
    if t is None:
        sizes = range(n + 1)
    else:
        sizes = [t]
    out = []
    for size in sizes:
        for verts in combinations(range(n), size):
            pm = 0
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    pm |= 1 << slots[(verts[a], verts[b])]
            out.append(pm)
    return out


def _make_tables(pairmasks: list[int], lo_bits: int, hi_bits: int):
    """Per 64-subset word: (clique_lo, clique_hi, indep_lo, indep_hi) tables."""
    lo_size = 1 << lo_bits
    hi_size = 1 << hi_bits
    xs_lo = np.arange(lo_size, dtype=np.int64)
    xs_hi = np.arange(hi_size, dtype=np.int64)
    words = []
    for start in range(0, len(pairmasks), 64):
        group = pairmasks[start : start + 64]
        cl_lo = np.zeros(lo_size, dtype=np.uint64)
        cl_hi = np.zeros(hi_size, dtype=np.uint64)
        in_lo = np.zeros(lo_size, dtype=np.uint64)
        in_hi = np.zeros(hi_size, dtype=np.uint64)
        for bit, pm in enumerate(group):
            pm_lo = pm & (lo_size - 1)
            pm_hi = pm >> lo_bits
            shift = np.uint64(bit)
            cl_lo |= ((xs_lo & pm_lo) == pm_lo).astype(np.uint64) << shift
            cl_hi |= ((xs_hi & pm_hi) == pm_hi).astype(np.uint64) << shift
            in_lo |= ((xs_lo & pm_lo) == 0).astype(np.uint64) << shift
            in_hi |= ((xs_hi & pm_hi) == 0).astype(np.uint64) << shift
        words.append((cl_lo, cl_hi, in_lo, in_hi))
    return words


def exhaustive_extremal(
    n: int,
    quantity: str,
    direction: str,
    t: Optional[int] = None,
    shards: int = 1,
    shard: Optional[int] = None,
    chunk: int = 1 << 22,
) -> ExtremalRecord:
    """Exact extremum of a quantity over all labeled graphs on n vertices.

    quantity: 'sigma' | 'pi' (n <= 7) or 'sigma_t' | 'pi_t' (needs t, n <= 8).
    With ``shard=None`` all shards run and merge; a specific shard yields the
    partial record for masks congruent to it mod ``shards``.
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
        parts = [
            exhaustive_extremal(n, quantity, direction, t, shards=shards, shard=s, chunk=chunk)
            for s in range(shards)
        ]
        return merge_records(parts)
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")

    m = n * (n - 1) // 2
    pairmasks = _subset_pairmasks(n, t if sized else None)
    lo_bits = min(m, 14)
    hi_bits = m - lo_bits
    words = _make_tables(pairmasks, lo_bits, hi_bits)
    lo_mask = (1 << lo_bits) - 1
    want_max = direction == "max"

    best: Optional[int] = None
    masks: list[int] = []
    total_wit = 0
    for base in range(0, 1 << m, chunk):
        stop = min(base + chunk, 1 << m)
        first = base + ((shard - base) % shards)
        if first >= stop:
            continue
        edges = np.arange(first, stop, shards, dtype=np.int64)
        lo_idx = edges & lo_mask
        hi_idx = edges >> lo_bits
        kcnt = np.zeros(len(edges), dtype=np.int64)
        icnt = np.zeros(len(edges), dtype=np.int64)
        for cl_lo, cl_hi, in_lo, in_hi in words:
            kcnt += _popcount64(cl_lo[lo_idx] & cl_hi[hi_idx])
            icnt += _popcount64(in_lo[lo_idx] & in_hi[hi_idx])
        if quantity in ("sigma", "sigma_t"):
            vals = kcnt + icnt
        else:
            vals = kcnt * icnt
        ext = int(vals.max() if want_max else vals.min())
        if best is None or (ext > best if want_max else ext < best):
            best = ext
            masks = []
            total_wit = 0
        if ext == best:
            hits = np.flatnonzero(vals == ext)
            total_wit += len(hits)
            for idx in hits[: max(0, WITNESS_CAP - len(masks))]:
                masks.append(int(edges[idx]))
    witnesses = tuple(emit_graph6(Graph.from_edge_mask(n, mk)) for mk in masks)
    return ExtremalRecord(n, quantity, direction, t if sized else None, best, witnesses, total_wit, "graph6")


def merge_records(records) -> ExtremalRecord:
    """Combine shard records: associative max/min with witness reconciliation."""
    records = list(records)
    if not records:
        raise ValueError("nothing to merge")
    head = records[0]
    for rec in records[1:]:
        if (rec.n, rec.quantity, rec.direction, rec.t, rec.kind, rec.r) != (
            head.n,
            head.quantity,
            head.direction,
            head.t,
            head.kind,
            head.r,
        ):
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
    return ExtremalRecord(
        head.n, head.quantity, head.direction, head.t, value, tuple(witnesses), total, head.kind, head.r
    )


def exhaustive_coloring_extremal(n: int, r: int, quantity: str, direction: str) -> ExtremalRecord:
    """Exact extremum of the per-color clique-count sum/product over all
    total r-colorings of the n-clique's edges."""
    if quantity not in _COLORING_QUANTITIES:
        raise ValueError(f"unknown coloring quantity {quantity!r}")
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    if r < 1:
        raise ValueError("need at least one color")
    m = comb(n, 2)
    if r**m > 2_000_000:
        raise ValueError(f"{r}^{m} colorings is past the enumeration cap")
    want_max = direction == "max"
    best: Optional[int] = None
    blobs: list[str] = []
    total_wit = 0
    # code order: slot 0 is the least significant base-r digit, so reverse
    # product's tuples, whose last entry varies fastest
    for digits in product(range(r), repeat=m):
        fam = GraphFamily.from_colors(n, r, digits[::-1])
        val = _eval_coloring_quantity(fam, quantity)
        if best is None or (val > best if want_max else val < best):
            best = val
            blobs = []
            total_wit = 0
        if val == best:
            total_wit += 1
            if len(blobs) < WITNESS_CAP:
                blobs.append(emit_coloring(fam))
    return ExtremalRecord(n, quantity, direction, None, best, tuple(blobs), total_wit, "coloring", r=r)


def _graph_from_rng(n: int, rng: np.random.Generator) -> Graph:
    m = n * (n - 1) // 2
    bits = rng.integers(0, 2, size=m)
    mask = 0
    for i in range(m):
        if bits[i]:
            mask |= 1 << i
    return Graph.from_edge_mask(n, mask)


def sample_random_graph(n: int, seed: int) -> Graph:
    """One draw of G(n, 1/2): each edge present independently with
    probability 1/2.  Deterministic under the seed."""
    if not 0 <= n <= 62:
        raise ValueError(f"vertex count must be in [0, 62], got {n}")
    return _graph_from_rng(n, rng_for([seed]))


def sample_random_coloring(n: int, r: int, seed: int, partial: bool = False) -> GraphFamily:
    """Uniform random r-coloring of the n-clique's edges.

    With ``partial`` each edge may also stay uncolored (uniform over the
    r + 1 options), which samples general edge-disjoint families.
    """
    if not 0 <= n <= 62:
        raise ValueError(f"vertex count must be in [0, 62], got {n}")
    if r < 1:
        raise ValueError("need at least one color")
    rng = rng_for([seed])
    lo = 0 if partial else 1
    draws = [int(rng.integers(lo, r + 1)) for _ in range(comb(n, 2))]
    return GraphFamily.from_colors(n, r, [c - 1 if c else None for c in draws])


def random_tournament(size: int, seed: int) -> Tournament:
    rng = rng_for([seed])
    beats = set()
    for i in range(size):
        for j in range(i + 1, size):
            beats.add((i, j) if rng.integers(0, 2) else (j, i))
    return Tournament(size, frozenset(beats))


@dataclass(frozen=True)
class ExponentReport:
    """Advisory log of the product's growth exponent on random graphs.

    ratio[i] = log(pi) / (log n * log2 n) for trial i; no threshold is
    asserted, the asymptotic claim is not checkable at desk scale.
    """

    n: int
    trials: int
    seed: int
    products: tuple[int, ...]
    ratios: tuple[float, ...]

    def csv_lines(self) -> list[str]:
        out = ["trial,pi,ratio"]
        for i, (p, ratio) in enumerate(zip(self.products, self.ratios)):
            out.append(f"{i},{p},{ratio:.9f}")
        return out

    def summary(self) -> dict:
        rs = sorted(self.ratios)
        mid = len(rs) // 2
        median = rs[mid] if len(rs) % 2 else 0.5 * (rs[mid - 1] + rs[mid])
        return {
            "n": self.n,
            "trials": self.trials,
            "min": min(rs),
            "median": median,
            "max": max(rs),
        }


def random_pi_exponent(n: int, trials: int, seed: int) -> ExponentReport:
    """Sample G(n, 1/2) ``trials`` times and log the product exponent ratio.

    Trial i uses SeedSequence([seed, i]).  Every graph size, 2 <= n <= 62,
    is allowed: random graphs have only small cliques, so exact counting
    stays fast up to the 62-vertex cap.
    """
    if not 2 <= n <= 62:
        raise ValueError(f"exponent sampling needs 2 <= n <= 62, got {n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    denom = log(n) * log2(n)
    products = []
    ratios = []
    for i in range(trials):
        g = _graph_from_rng(n, rng_for([seed, i]))
        p = pi(g)
        products.append(p)
        ratios.append(log(p) / denom)
    return ExponentReport(n, trials, seed, tuple(products), tuple(ratios))
