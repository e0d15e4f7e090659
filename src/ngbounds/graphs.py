"""Bit-row graphs, edge slots, complement rows, and graph6 I/O.

A graph is stored as ``n`` adjacency bitmasks, one per vertex: bit ``j`` of
``adj[i]`` says ``i ~ j``; ``Graph.from_edges`` is the one build of them from
edge pairs.  Vertex sets are plain Python ints used as bitmasks, so subset
algebra is single machine-word arithmetic.  ``n`` is capped at 62: any vertex
set then fits one word and the graph6 short form always suffices.

Vertices are 0-indexed.  Graphs are immutable values; every operation
returns a fresh ``Graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

MAX_VERTICES = 62


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_list(n: int) -> list[tuple[int, int]]:
    """Canonical edge slot order used for edge bitmasks: (0,1), (0,2), ..."""
    return list(combinations(range(n), 2))


def edge_slot(n: int, u: int, v: int) -> int:
    """Index of the pair {u, v}, u != v, in ``edge_list(n)``."""
    u, v = min(u, v), max(u, v)
    return u * (2 * n - u - 1) // 2 + v - u - 1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``n`` <= 62 vertices, adjacency bit-rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [0, {MAX_VERTICES}], got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        full = (1 << self.n) - 1
        # for i < j, bit j of upper[i] ^ dense is bit i of row j; dense rows walk clear bits
        upper, dense = [0] * self.n, 0
        for j, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {j} has bits outside the vertex range")
            if (row >> j) & 1:
                raise ValueError(f"loop at vertex {j}")
            below = row & ((1 << j) - 1)
            if 2 * below.bit_count() > j:
                dense |= 1 << j
                below ^= (1 << j) - 1
            while below:
                low = below & -below
                below ^= low
                upper[low.bit_length() - 1] |= 1 << j
        for i, row in enumerate(self.adj):
            diff = (row ^ upper[i] ^ dense) >> (i + 1)
            if diff:
                j = i + (diff & -diff).bit_length()
                raise ValueError(f"adjacency not symmetric at pair ({i}, {j})")

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on ``n`` vertices with edge pairs ``edges``: the one pairs-to-rows build."""
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside [0, {n})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Graph whose edge set is given as a bitmask over ``edge_list(n)`` slots."""
        pairs = edge_list(n)
        if 0 <= n <= MAX_VERTICES and not 0 <= mask < 1 << len(pairs):
            raise ValueError(f"edge mask must be in [0, 2^{len(pairs)}) for n={n}, got {mask}")
        return cls.from_edges(n, [pair for slot, pair in enumerate(pairs) if mask >> slot & 1])


def complement_rows(rows) -> list[int]:
    """The bit-rows of the complement of the graph with bit-rows ``rows``."""
    full = (1 << len(rows)) - 1
    return [(full ^ row) & ~(1 << v) for v, row in enumerate(rows)]


def _data_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def parse_graph6(text: str) -> Graph:
    """Decode a short-form graph6 string (n <= 62), bit-exact.

    Header byte is n+63; data bytes pack the upper triangle column by
    column ((0,1), (0,2), (1,2), (0,3), ...), six bits per byte, most
    significant bit first, zero padded.
    """
    if not text:
        raise Graph6Error("empty graph6 string")
    head = ord(text[0])
    if head == 126:
        raise Graph6Error("long-form graph6 header '~' means n > 62, not supported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"header byte {text[0]!r} (ordinal {head}) outside [63, 125]")
    n = head - 63
    need = _data_len(n)
    body = text[1:]
    if len(body) != need:
        kind = "trailing" if len(body) > need else "missing"
        raise Graph6Error(
            f"{n}-vertex code needs {need} data byte(s), got {len(body)} ({kind} bytes)"
        )
    for pos, ch in enumerate(body):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"data byte {pos + 1} ({ch!r}) outside graph6 range")
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in body)
    if "1" in bits[n * (n - 1) // 2 :]:
        raise Graph6Error(f"nonzero padding bit in data byte {len(body)}")
    # graph6 walks the upper triangle column by column, which differs from
    # the edge_list row-major order for n >= 4.
    order = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph.from_edges(n, compress(order, map(int, bits)))


def emit_graph6(g: Graph) -> str:
    """Encode to the short-form graph6 string; inverse of ``parse_graph6``."""
    n = g.n
    out = [chr(n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)
