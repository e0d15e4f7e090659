"""Multicolor machinery: edge-disjoint graph families on a shared vertex set.

A family is an r-coloring of the complete graph's edges, possibly partial,
stored as one color (or None for an uncolored pair) per ``edge_list(n)``
slot, with r <= ``MAX_COLORS`` = 2^16.  Its member graphs, one per color,
are edge-disjoint by construction and built on first use.  Provided here:

* greedy good-sequence certificates witnessing the pigeonhole lower bound
  on the product of per-color clique counts, plus a brute-force counter for
  the sequences themselves;
* covering-tuple counting (ordered tuples of per-color cliques whose union
  is the whole vertex set) and the closed-form upper bounds it drives;
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
from itertools import permutations
from math import comb, factorial, prod

from .counting import count_cliques
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
        for (u, v), c in zip(slots, self.colors):
            if c is not None and not 0 <= c < self.r:
                raise ValueError(f"color {c} of pair ({u}, {v}) outside 0..{self.r - 1}")

    @cached_property
    def members(self) -> tuple[Graph, ...]:
        adj: dict[int, list[int]] = {}
        for (u, v), c in zip(edge_list(self.n), self.colors):
            if c is not None:
                rows = adj.setdefault(c, [0] * self.n)
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        empty = Graph.empty(self.n)  # shared by every color with no edge
        return tuple(Graph(self.n, tuple(adj[c])) if c in adj else empty for c in range(self.r))

    def clique_counts(self) -> list[int]:
        """k(G_i) for each color i.  A color with no edge has the n + 1
        cliques of the edgeless graph, so only the colors in use are counted."""
        return [count_cliques(g) if any(g.adj) else self.n + 1 for g in self.members]

    @property
    def covers_all_edges(self) -> bool:
        """True iff every vertex pair is colored (a total coloring)."""
        return None not in self.colors

    def color_of(self, u: int, v: int) -> int | None:
        """0-based color of the pair u != v, or None if uncolored."""
        return self.colors[edge_slot(self.n, u, v)]


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


def certificate_lower_bound(n: int, r: int, q: int | None = None) -> Fraction:
    """prod(pigeonhole_sequence) / q!: a lower bound on the product of
    per-color clique counts of any total r-coloring of an n-clique."""
    if q is None:
        q = certificate_length(n, r)
    seq = pigeonhole_sequence(n, r, q)
    return Fraction(prod(seq), factorial(q))


@dataclass(frozen=True)
class GoodSequenceCertificate:
    """Witness for the product lower bound.

    vertices: distinct sequence v_1..v_q; colors[i] (0-based member index)
    puts every later vertex inside that color's neighborhood of v_i.
    choice_counts is the pigeonhole sequence and bound its product over q!.
    """

    vertices: tuple[int, ...]
    colors: tuple[int, ...]
    choice_counts: tuple[int, ...]
    bound: Fraction

    def is_valid(self, fam: GraphFamily) -> bool:
        """Re-check every certificate promise against the family, without
        trusting how the certificate was built."""
        q = len(self.vertices)
        if len(self.colors) != max(0, q - 1) or len(self.choice_counts) != q:
            return False
        if len(set(self.vertices)) != q:
            return False
        if any(not 0 <= v < fam.n for v in self.vertices):
            return False
        if self.choice_counts != pigeonhole_sequence(fam.n, fam.r, q):
            return False
        if self.bound != Fraction(prod(self.choice_counts), factorial(q)):
            return False
        for i, color in enumerate(self.colors):
            if not 0 <= color < fam.r:
                return False
            row = fam.members[color].adj[self.vertices[i]]
            for later in self.vertices[i + 1 :]:
                if not (row >> later) & 1:
                    return False
        return True


def good_sequence_certificate(fam: GraphFamily, q: int | None = None) -> GoodSequenceCertificate:
    """Greedily build a good sequence of length q (default: the largest m
    with r^m <= n) in a total coloring.

    At each step the (color, vertex) pair with the largest monochromatic
    neighborhood inside the surviving set is chosen, ties to the lowest
    color index and then the lowest vertex index, so certificates are
    deterministic.  The pigeonhole argument guarantees the greedy never runs
    out of vertices while the choice counts stay positive.
    """
    if fam.r < 2:
        raise ValueError("certificates need at least 2 colors")
    if not fam.covers_all_edges:
        raise ValueError("certificate construction needs a total coloring")
    n = fam.n
    if q is None:
        q = certificate_length(n, fam.r)
    counts = pigeonhole_sequence(n, fam.r, q)
    if any(x < 1 for x in counts):
        raise ValueError(f"no certificate of length {q}: guaranteed choices hit zero")
    verts: list[int] = []
    colors: list[int] = []
    alive = (1 << n) - 1
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
    bound = Fraction(prod(counts), factorial(q))
    return GoodSequenceCertificate(tuple(verts), tuple(colors), counts, bound)


def count_good_sequences(fam: GraphFamily, q: int) -> int:
    """Brute-force count of good sequences of length q: ordered distinct
    vertices where each one sees all its successors in a single color.
    Capped at n <= 10."""
    n = fam.n
    if n > 10:
        raise ValueError(f"good-sequence enumeration is capped at n <= 10, got {n}")
    if q < 0 or q > n:
        raise ValueError(f"sequence length must be in [0, {n}], got {q}")
    if q == 0:
        return 1
    count = 0
    for seq in permutations(range(n), q):
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


def product_clique_counts(fam: GraphFamily) -> int:
    return prod(fam.clique_counts())


def sum_clique_counts(fam: GraphFamily) -> int:
    return sum(fam.clique_counts())


def count_covering_tuples(fam: GraphFamily) -> int:
    """Number of ordered tuples (S_1, ..., S_r), S_j a clique of member j,
    whose union is the whole vertex set.  Inclusion-exclusion over the
    containing subset; capped at n <= 8."""
    n = fam.n
    if n > 8:
        raise ValueError(f"covering-tuple enumeration is capped at n <= 8, got {n}")
    size = 1 << n
    tables = []
    for g in fam.members:
        adj = g.adj
        cnt = [0] * size
        cnt[0] = 1
        for mask in range(1, size):
            v = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            if cnt[rest] == 1 and adj[v] & rest == rest:
                cnt[mask] = 1
        # cnt[mask] is now a 0/1 clique indicator; subset-sum it in place so
        # cnt[W] counts cliques contained in W
        for v in range(n):
            bit = 1 << v
            for mask in range(size):
                if mask & bit:
                    cnt[mask] += cnt[mask ^ bit]
        tables.append(cnt)
    total = 0
    for w in range(size):
        term = 1
        for cnt in tables:
            term *= cnt[w]
        if (n - w.bit_count()) % 2 == 0:
            total += term
        else:
            total -= term
    return total


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

    @classmethod
    def cyclic(cls, size: int) -> "Tournament":
        """i beats the next (size-1)//2 vertices around the cycle; for even
        size the leftover antipodal pairs fall to the lower index."""
        return cls(size, [j if size - (j - i) <= (size - 1) // 2 else i for i, j in edge_list(size)])


def tournament_blocks(n: int, tournament: Tournament) -> list[tuple[tuple[int, int], int]]:
    """Split 0..n-1 into C(r,2) consecutive blocks, one per tournament edge.

    Sizes differ by at most one; the larger blocks go to lexicographically
    earlier (undirected) edges.  Each entry is ((winner, loser), size).
    """
    pairs = edge_list(tournament.size)
    base, extra = divmod(n, len(pairs))
    return [((w, i + j - w), base + (idx < extra)) for idx, ((i, j), w) in enumerate(zip(pairs, tournament.winners))]


def construction_value(n: int, tournament: Tournament) -> int:
    """2^n times the product of (1 + block size) over the tournament blocks:
    the floor on the construction's clique-count product."""
    return 2**n * prod(1 + size for _, size in tournament_blocks(n, tournament))


def tournament_construction(n: int, r: int, tournament: Tournament) -> GraphFamily:
    """Edge-disjoint family from a tournament on the colors.

    Member i gets all edges inside each block it wins (label i -> j) and all
    edges between two blocks whose labels both touch i.  Pairs of blocks
    with disjoint labels stay uncolored, so the family is partial for r >= 3.
    The clique-count product is at least ``construction_value``.
    """
    if r < 2:
        raise ValueError("construction needs at least 2 colors")
    if tournament.size != r:
        raise ValueError(f"tournament has {tournament.size} vertices, expected {r}")
    label = [edge for edge, size in tournament_blocks(n, tournament) for _ in range(size)]  # blocks are consecutive
    colors = []
    for u, v in edge_list(n):
        if label[u] == label[v]:
            colors.append(label[u][0])
        else:
            shared = set(label[u]) & set(label[v])
            colors.append(shared.pop() if shared else None)
    return GraphFamily(n, r, colors)
