"""Threshold graphs: construction codes, recognition, and closed-form counts.

A threshold graph grows from a single seed vertex by repeatedly adding
either a dominating vertex (+) or an isolated vertex (-), so an n-vertex
threshold graph is encoded by a +/- string of length n-1.

Orientation convention: ``ThresholdCode.symbols`` is in CONSTRUCTION order,
symbols[0] being the first vertex added after the seed.  Display strings
(the usual written form, e.g. on the CLI) run the other way: the leftmost
displayed symbol is the vertex added last.  ``from_display``/``display``
convert; every API that takes a string says which order it expects.

The vertices added as + form a clique, those added as - an independent set,
and the size-t counts of a threshold graph have a closed form in the two
degree sequences across that split (``closed_form_counts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

from .graphs import Graph, iter_bits
from .packing import ALPHABET, leading_term_bound


@dataclass(frozen=True)
class ThresholdCode:
    """+/- construction string of length n-1 (empty for the 1-vertex graph)."""

    symbols: str

    def __post_init__(self):
        if not ALPHABET.issuperset(self.symbols):
            raise ValueError("code symbols must be '+' or '-'")

    @classmethod
    def from_display(cls, text: str) -> "ThresholdCode":
        """Build from a display-order string (leftmost symbol = last added)."""
        return cls(text[::-1])

    def display(self) -> str:
        return self.symbols[::-1]

    @property
    def n(self) -> int:
        return len(self.symbols) + 1

    def complemented(self) -> "ThresholdCode":
        """Code of the complement graph: swap + and - symbol-wise."""
        swap = {"+": "-", "-": "+"}
        return ThresholdCode("".join(swap[c] for c in self.symbols))


def build(code: ThresholdCode) -> Graph:
    """Realize a code: vertex 0 is the seed, vertex k carries symbols[k-1]."""
    n = code.n
    rows = [0] * n
    for k, sym in enumerate(code.symbols, start=1):
        if sym == "+":
            below = (1 << k) - 1
            rows[k] = below
            for v in range(k):
                rows[v] |= 1 << k
    return Graph(n, tuple(rows))


def _strip_order(g: Graph) -> tuple[int, list[tuple[int, str]]] | None:
    """Peel dominating/isolated vertices until one remains.

    Returns (seed_vertex, [(vertex, symbol), ...]) in strip order (first
    entry = last-added vertex), or None if the graph is not threshold.
    Dominating vertices are preferred over isolates, lowest index first,
    which makes recognition deterministic.
    """
    if g.n == 0:
        return None
    mask = g.vertex_mask
    adj = g.adj
    order: list[tuple[int, str]] = []
    while mask.bit_count() > 1:
        size = mask.bit_count()
        pick = None
        for v in iter_bits(mask):
            if (adj[v] & mask).bit_count() == size - 1:
                pick = (v, "+")
                break
        if pick is None:
            for v in iter_bits(mask):
                if adj[v] & mask == 0:
                    pick = (v, "-")
                    break
        if pick is None:
            return None
        order.append(pick)
        mask &= ~(1 << pick[0])
    return mask.bit_length() - 1, order


def recognize(g: Graph) -> ThresholdCode | None:
    """Code building a graph isomorphic to ``g``, or None if not threshold.

    The 0-vertex graph has no construction code, so it returns None too.
    """
    res = _strip_order(g)
    if res is None:
        return None
    _, order = res
    return ThresholdCode("".join(sym for _, sym in reversed(order)))


@dataclass(frozen=True)
class SplitDegrees:
    """Degree data across the clique/independent split of a threshold graph.

    co_degrees: complement degrees of the clique-side vertices (number of
        non-neighbors), non-increasing.
    degrees: plain degrees of the independent-side vertices, non-decreasing.
    """

    clique_size: int
    indep_size: int
    co_degrees: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.co_degrees) != self.clique_size or len(self.degrees) != self.indep_size:
            raise ValueError("degree sequence lengths must match the split sizes")
        if any(d < 0 or d > self.indep_size for d in self.co_degrees):
            raise ValueError("clique-side co-degrees must lie in [0, indep_size]")
        if any(d < 0 or d > self.clique_size for d in self.degrees):
            raise ValueError("independent-side degrees must lie in [0, clique_size]")

    @property
    def n(self) -> int:
        return self.clique_size + self.indep_size


def split_degrees(g: Graph) -> SplitDegrees:
    """Partition a threshold graph into its clique and independent sides.

    Vertices added as + go to the clique side, those added as - to the
    independent side; the seed vertex joins the clique side exactly when the
    first construction symbol is + (so K_n comes out with clique_size = n).
    Rejects non-threshold input.
    """
    res = _strip_order(g)
    if res is None:
        raise ValueError("split degrees are defined for threshold graphs only")
    seed, order = res
    clique_side = {v for v, sym in order if sym == "+"}
    first_symbol = order[-1][1] if order else "-"
    if first_symbol == "+":
        clique_side.add(seed)
    indep_side = [v for v in range(g.n) if v not in clique_side]
    co = sorted(((g.n - 1) - g.degree(v) for v in clique_side), reverse=True)
    deg = sorted(g.degree(w) for w in indep_side)
    return SplitDegrees(len(clique_side), len(indep_side), tuple(co), tuple(deg))


def extremal_one_turn_codes(n: int, t: int) -> tuple[ThresholdCode, ThresholdCode]:
    """The two one-turn codes at the rounded optimal split for size t.

    The side carrying the optimal fraction gets ceil(split * n) vertices
    (seed included).  First code: complete join of clique and independent
    sides, the independent side being the large one.  Second code: disjoint
    union of a clique and an independent set, the clique being the large
    one.  The two graphs are complements, so their size-t products agree.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    big = min(max(ceil(leading_term_bound(t).split * n), 1), n)
    small = n - big
    complete_split = ThresholdCode.from_display("+" * small + "-" * (big - 1))
    disjoint_union = ThresholdCode.from_display("-" * small + "+" * (big - 1))
    return complete_split, disjoint_union


def closed_form_counts(sd: SplitDegrees, t: int) -> tuple[int, int]:
    """(clique count, independent count) of size t from the split degrees.

    A size-t (t >= 2) clique is either inside the clique side or one
    independent vertex plus t-1 of its neighbors, all of which lie on the
    clique side; dually for independent sets.  t < 2 is rejected: the
    decomposition needs sets meeting the independent side in at most one
    vertex to be counted through their anchor.
    """
    if t < 2:
        raise ValueError(f"closed-form counts need t >= 2, got {t}")
    s_k = comb(sd.clique_size, t) + sum(comb(d, t - 1) for d in sd.degrees)
    s_i = comb(sd.indep_size, t) + sum(comb(d, t - 1) for d in sd.co_degrees)
    return s_k, s_i
