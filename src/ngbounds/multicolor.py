"""Multicolor machinery: edge-disjoint graph families on a shared vertex set.

A family is an r-coloring of the complete graph's edges, possibly partial,
stored as one color (or None for an uncolored pair) per ``edge_list(n)``
slot, with r <= ``MAX_COLORS`` = 2^16.  Its member graphs, one per color,
are edge-disjoint by construction and built on first use.  Provided here:

* greedy good-sequence certificates witnessing the pigeonhole lower bound
  on the product of per-color clique counts, plus a counter for the
  sequences themselves by a recurrence over vertex subsets;
* covering-tuple counting (ordered tuples of per-color cliques whose union
  is the whole vertex set) by a subset recurrence and inclusion-exclusion,
  and the closed-form upper bounds it drives;
* the tournament construction: blocks of vertices labeled by tournament
  edges, giving edge-disjoint graphs whose clique-count product is within a
  constant factor of the upper bound;
* the text format for colorings: header ``n r``, then one ``u v c`` line per
  colored edge (0-indexed vertices, colors 1..r), read by ``parse_coloring``
  and written only by ``emit_coloring``.  Internally colors are 0-based
  member indices; only the text format is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import tee
from math import comb, factorial, prod
from operator import index

from .counting import _profile_stream
from .graphs import MAX_VERTICES, Graph, edge_list, edge_slot, iter_bits

MAX_COLORS = 1 << 16  # a family builds one graph per color


class ColoringFormatError(ValueError):
    """Malformed coloring text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GraphFamily:
    """An r-coloring of the n-clique's edges, possibly partial: ``colors`` has
    one entry per ``edge_list(n)`` slot, the 0-based color of that pair or
    None if it is uncolored.  Member graph i holds the pairs of color i, so the
    members are edge-disjoint by construction; they are built on first use."""

    n: int
    r: int
    colors: tuple[int | None, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [0, {MAX_VERTICES}], got {self.n}")
        if not 1 <= self.r <= MAX_COLORS:
            raise ValueError(f"color count must be in [1, {MAX_COLORS}], got {self.r}")
        object.__setattr__(self, "colors", tuple(self.colors))
        slots = edge_list(self.n)
        if len(self.colors) != len(slots):
            raise ValueError(f"expected {len(slots)} slot colors for n={self.n}, got {len(self.colors)}")
        colors = []
        for (u, v), c in zip(slots, self.colors):
            if c is not None:
                try:
                    c = index(c)
                except TypeError:
                    raise ValueError(f"color {c!r} of pair ({u}, {v}) is not an integer") from None
                if not 0 <= c < self.r:
                    raise ValueError(f"color {c} of pair ({u}, {v}) outside 0..{self.r - 1}")
            colors.append(c)
        object.__setattr__(self, "colors", tuple(colors))

    @cached_property
    def members(self) -> tuple[Graph, ...]:
        pairs: dict[int, list[tuple[int, int]]] = {}
        for pair, c in zip(edge_list(self.n), self.colors):
            if c is not None:
                pairs.setdefault(c, []).append(pair)
        empty = Graph.empty(self.n)  # shared by every color with no edge
        return tuple(Graph.from_edges(self.n, pairs[c]) if c in pairs else empty for c in range(self.r))

    def clique_counts(self) -> list[int]:
        """k(G_i) for each color i.  A color with no edge has the n + 1
        cliques of the edgeless graph, so only the colors in use are counted,
        all in one call."""
        return next(_counted_families([self]))[1]

    @property
    def covers_all_edges(self) -> bool:
        """True iff every vertex pair is colored (a total coloring)."""
        return None not in self.colors


def _counted_families(fams):
    """Yield each family of the iterable ``fams`` with its ``clique_counts()``,
    in order, from one counting stream over the members in use."""
    fams, members = tee(fams)
    counts = map(sum, _profile_stream(g.adj for fam in members for g in fam.members if any(g.adj)))
    for fam in fams:
        yield fam, [next(counts) if any(g.adj) else fam.n + 1 for g in fam.members]


def parse_coloring(text: str) -> GraphFamily:
    """Parse the ``n r`` / ``u v c`` text format; validates as it goes."""
    lines = text.splitlines()
    content = [(i, raw) for i, raw in enumerate(lines, start=1) if raw.strip() and not raw.lstrip().startswith("#")]
    if not content:
        raise ColoringFormatError(len(lines) or 1, "missing 'n r' header")
    (header_at, header), body = content[0], content[1:]
    parts = header.split()
    if len(parts) != 2:
        raise ColoringFormatError(header_at, f"header must be 'n r', got {header!r}")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError:
        raise ColoringFormatError(header_at, "header fields must be integers") from None
    if not 0 <= n <= MAX_VERTICES or not 1 <= r <= MAX_COLORS:
        msg = f"need 0 <= n <= {MAX_VERTICES} and 1 <= r <= {MAX_COLORS}, got n={n} r={r}"
        raise ColoringFormatError(header_at, msg)
    colors: list[int | None] = [None] * comb(n, 2)
    for lineno, raw in body:
        parts = raw.split()
        if len(parts) != 3:
            raise ColoringFormatError(lineno, f"edge line must be 'u v c', got {raw!r}")
        try:
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise ColoringFormatError(lineno, "edge fields must be integers") from None
        if u == v:
            raise ColoringFormatError(lineno, f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ColoringFormatError(lineno, f"vertex out of range in ({u}, {v}) with n={n}")
        if not 1 <= c <= r:
            raise ColoringFormatError(lineno, f"color {c} outside 1..{r}")
        slot = edge_slot(n, u, v)
        if colors[slot] is not None:
            raise ColoringFormatError(lineno, f"edge ({min(u, v)}, {max(u, v)}) assigned twice")
        colors[slot] = c - 1
    return GraphFamily(n, r, colors)


def emit_coloring(fam: GraphFamily) -> str:
    """Serialize to the text format; edges in (u, v) lexicographic order."""
    out = [f"{fam.n} {fam.r}"]
    out += [f"{u} {v} {c + 1}" for (u, v), c in zip(edge_list(fam.n), fam.colors) if c is not None]
    return "\n".join(out) + "\n"


def certificate_length(n: int, r: int) -> int:
    """Largest m with r^m <= n, by integer arithmetic (0 for n < r)."""
    if r < 2:
        raise ValueError("need at least 2 colors")
    m = 0
    p = 1
    while p * r <= n:
        p *= r
        m += 1
    return m


def pigeonhole_sequence(n: int, r: int, length: int) -> tuple[int, ...]:
    """Guaranteed choice counts: starts at n, then repeatedly ceil((x-1)/r).

    Entry i is a lower bound on the options for the i-th vertex of a good
    sequence in any total r-coloring of an n-clique.
    """
    vals = []
    x = n
    for _ in range(length):
        vals.append(x)
        x = -(-(x - 1) // r)
    return tuple(vals)


def certificate_lower_bound(n: int, r: int) -> Fraction:
    """prod(pigeonhole_sequence) / q! for q = certificate_length(n, r): a lower
    bound on the product of per-color clique counts of any total r-coloring
    of an n-clique."""
    q = certificate_length(n, r)
    return Fraction(prod(pigeonhole_sequence(n, r, q)), factorial(q))


def is_good_sequence(fam: GraphFamily, vertices, colors) -> bool:
    """True iff ``vertices`` are distinct vertices of ``fam``, ``colors`` has one
    entry fewer, and color ``colors[i]`` (0-based) joins ``vertices[i]`` to every
    later vertex.  Trusts nothing about how the sequence was built."""
    q = len(vertices)
    if len(colors) != max(0, q - 1) or len(set(vertices)) != q:
        return False
    if any(not 0 <= v < fam.n for v in vertices):
        return False
    for i, color in enumerate(colors):
        if not 0 <= color < fam.r:
            return False
        row = fam.members[color].adj[vertices[i]]
        for later in vertices[i + 1 :]:
            if not (row >> later) & 1:
                return False
    return True


def good_sequence_certificate(fam: GraphFamily) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedily build a good sequence ``(vertices, colors)`` (see
    ``is_good_sequence``) of length ``certificate_length(n, r)`` in a total
    coloring, the witness of ``certificate_lower_bound(n, r)``.

    At each step the (color, vertex) pair with the largest monochromatic
    neighborhood inside the surviving set is chosen, ties to the lowest
    color index and then the lowest vertex index, so certificates are
    deterministic.  The pigeonhole argument guarantees the greedy never runs
    out of vertices, as the choice counts stay positive at this length.
    """
    if fam.r < 2:
        raise ValueError("certificates need at least 2 colors")
    if not fam.covers_all_edges:
        raise ValueError("certificate construction needs a total coloring")
    q = certificate_length(fam.n, fam.r)
    verts: list[int] = []
    colors: list[int] = []
    alive = (1 << fam.n) - 1
    for step in range(q):
        if step == q - 1:
            verts.append((alive & -alive).bit_length() - 1)
            break
        best_size = -1
        best_color = -1
        best_v = -1
        for color, g in enumerate(fam.members):
            for v in iter_bits(alive):
                size = (g.adj[v] & alive).bit_count()
                if size > best_size:
                    best_size, best_color, best_v = size, color, v
        verts.append(best_v)
        colors.append(best_color)
        alive &= fam.members[best_color].adj[best_v]
    return tuple(verts), tuple(colors)


def count_good_sequences(fam: GraphFamily, q: int) -> int:
    """Count the good sequences of length q: ordered distinct vertices where
    each one sees all its successors in a single color.

    h[T], the number of orders of the vertex set T that are good sequences,
    follows h[T] = sum of h[T - v] over the v in T that see all of T - v in
    one color (v goes first), from h[empty] = 1; the count is the sum of h[T]
    over |T| = q.  Sets larger than q are skipped.  The cap n <= 10 bounds
    the 2^n-entry table."""
    n = fam.n
    if n > 10:
        raise ValueError(f"good-sequence enumeration is capped at n <= 10, got {n}")
    if q < 0 or q > n:
        raise ValueError(f"sequence length must be in [0, {n}], got {q}")
    rows = [{g.adj[v] for g in fam.members} for v in range(n)]
    size = 1 << n
    h = [1] + [0] * (size - 1)
    for t in range(1, size):
        if t.bit_count() <= q:
            for v in iter_bits(t):
                rest = t ^ (1 << v)
                if h[rest] and any(row & rest == rest for row in rows[v]):
                    h[t] += h[rest]
    return sum(h[t] for t in range(size) if t.bit_count() == q)


def product_clique_counts(fam: GraphFamily) -> int:
    return prod(fam.clique_counts())


def sum_clique_counts(fam: GraphFamily) -> int:
    return sum(fam.clique_counts())


def count_covering_tuples(fam: GraphFamily) -> int:
    """Number of ordered tuples (S_1, ..., S_r), S_j a clique of member j,
    whose union is the whole vertex set.

    For each member, cnt[W] = cnt[W - v] + cnt[(W - v) & N(v)] from
    cnt[empty] = 1, with v the lowest vertex of W, counts the cliques inside
    W: those that miss v and those that hold it.  Inclusion-exclusion over W
    then keeps the tuples whose union is everything.  The cap n <= 8 bounds
    the 2^n-entry table."""
    n = fam.n
    if n > 8:
        raise ValueError(f"covering-tuple enumeration is capped at n <= 8, got {n}")
    size = 1 << n
    terms = [(-1) ** (n - w.bit_count()) for w in range(size)]
    for g in fam.members:
        cnt = [1] * size
        for w in range(1, size):
            rest = w & (w - 1)
            cnt[w] = cnt[rest] + cnt[rest & g.adj[(w & -w).bit_length() - 1]]
        terms = [term * c for term, c in zip(terms, cnt)]
    return sum(terms)


def multicolor_upper_bound(n: int, r: int) -> int:
    """(4r-2)^(r(r-1)) * n^C(r,2) * 2^n, the closed-form product bound, for
    n >= 1: the lone family on no vertex has product 1, above its value 0."""
    if r < 1:
        raise ValueError("need at least one color")
    if n < 1:
        raise ValueError(f"the product upper bound needs n >= 1, got n={n}")
    return (4 * r - 2) ** (r * (r - 1)) * n ** comb(r, 2) * 2**n


@dataclass(frozen=True)
class Tournament:
    """Orientation of the complete graph on vertices 0..size-1: ``winners``
    has one entry per ``edge_list(size)`` pair, the vertex of that pair that
    beats the other, so every pair is oriented exactly once by construction."""

    size: int
    winners: tuple[int, ...]

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"tournament size must be >= 0, got {self.size}")
        object.__setattr__(self, "winners", tuple(self.winners))
        pairs = edge_list(self.size)
        if len(self.winners) != len(pairs):
            raise ValueError(f"expected {len(pairs)} winners for size {self.size}, got {len(self.winners)}")
        for (i, j), w in zip(pairs, self.winners):
            if w not in (i, j):
                raise ValueError(f"winner {w} of pair ({i}, {j}) is not in the pair")

    @classmethod
    def transitive(cls, size: int) -> "Tournament":
        return cls(size, [i for i, _ in edge_list(size)])


def tournament_blocks(n: int, tournament: Tournament) -> list[tuple[tuple[int, int], int]]:
    """Split 0..n-1 into C(r,2) consecutive blocks, one per tournament edge.

    Sizes differ by at most one; the larger blocks go to lexicographically
    earlier (undirected) edges.  Each entry is ((winner, loser), size).
    """
    pairs = edge_list(tournament.size)
    if not pairs:
        raise ValueError(f"a tournament of size {tournament.size} has no pair to label a block")
    base, extra = divmod(n, len(pairs))
    return [((w, i + j - w), base + (idx < extra)) for idx, ((i, j), w) in enumerate(zip(pairs, tournament.winners))]


def construction_value(n: int, tournament: Tournament) -> int:
    """2^n times the product of (1 + block size) over the tournament blocks:
    the floor on the construction's clique-count product."""
    return 2**n * prod(1 + size for _, size in tournament_blocks(n, tournament))


def tournament_construction(n: int, tournament: Tournament) -> GraphFamily:
    """Edge-disjoint family from a tournament on the colors 0..size-1.

    Member i gets all edges inside each block it wins (label i -> j) and all
    edges between two blocks whose labels both touch i.  Pairs of blocks
    with disjoint labels stay uncolored, so the family is partial for r >= 4.
    The clique-count product is at least ``construction_value``.
    """
    label = [edge for edge, size in tournament_blocks(n, tournament) for _ in range(size)]  # blocks are consecutive
    colors = []
    for u, v in edge_list(n):
        if label[u] == label[v]:
            colors.append(label[u][0])
        else:
            shared = set(label[u]) & set(label[v])
            colors.append(shared.pop() if shared else None)
    return GraphFamily(n, tournament.size, colors)
