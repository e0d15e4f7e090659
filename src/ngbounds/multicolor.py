"""Multicolor machinery: edge-disjoint graph families on a shared vertex set.

A family models an r-coloring of the complete graph's edges, possibly
partial (some pairs uncolored).  Provided here:

* greedy good-sequence certificates witnessing the pigeonhole lower bound
  on the product of per-color clique counts, plus a brute-force counter for
  the sequences themselves;
* covering-tuple counting (ordered tuples of per-color cliques whose union
  is the whole vertex set) and the closed-form upper bounds it drives;
* the tournament construction: blocks of vertices labeled by tournament
  edges, giving edge-disjoint graphs whose clique-count product is within a
  constant factor of the upper bound;
* the text format for colorings: header ``n r``, then one ``u v c`` line per
  colored edge (0-indexed vertices, colors 1..r).  Internally colors are
  0-based member indices; only the text format is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

from .counting import count_cliques
from .graphs import MAX_VERTICES, Graph, edge_list, iter_bits


class ColoringFormatError(ValueError):
    """Malformed coloring text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GraphFamily:
    """r pairwise edge-disjoint graphs on a shared n-vertex set."""

    n: int
    members: tuple[Graph, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a family needs at least one member")
        for idx, g in enumerate(self.members):
            if g.n != self.n:
                raise ValueError(f"member {idx} has {g.n} vertices, expected {self.n}")
        for i in range(len(self.members)):
            for j in range(i + 1, len(self.members)):
                gi, gj = self.members[i], self.members[j]
                if any(gi.adj[v] & gj.adj[v] for v in range(self.n)):
                    raise ValueError(f"members {i} and {j} share an edge")

    @classmethod
    def from_colors(cls, n: int, r: int, colors) -> "GraphFamily":
        """Family of r members from one entry per ``edge_list(n)`` slot: the
        0-based member index coloring that pair, or None to leave it uncolored."""
        slots = edge_list(n)
        if len(colors) != len(slots):
            raise ValueError(f"expected {len(slots)} slot colors for n={n}, got {len(colors)}")
        adj = [[0] * n for _ in range(r)]
        for (u, v), c in zip(slots, colors):
            if c is None:
                continue
            if not 0 <= c < r:
                raise ValueError(f"color {c} of pair ({u}, {v}) outside 0..{r - 1}")
            adj[c][u] |= 1 << v
            adj[c][v] |= 1 << u
        return cls(n, tuple(Graph(n, tuple(rs)) for rs in adj))

    @property
    def r(self) -> int:
        return len(self.members)

    @property
    def covers_all_edges(self) -> bool:
        """True iff every vertex pair is an edge of some member (total coloring)."""
        full = (1 << self.n) - 1
        for v in range(self.n):
            union = 0
            for g in self.members:
                union |= g.adj[v]
            if union != full & ~(1 << v):
                return False
        return True

    def color_of(self, u: int, v: int) -> int | None:
        """0-based member index coloring the pair, or None if uncolored."""
        for idx, g in enumerate(self.members):
            if g.has_edge(u, v):
                return idx
        return None


def parse_coloring(text: str) -> GraphFamily:
    """Parse the ``n r`` / ``u v c`` text format; validates as it goes."""
    lines = text.splitlines()
    header_at = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip() and not raw.lstrip().startswith("#"):
            header_at = lineno
            break
    if header_at is None:
        raise ColoringFormatError(len(lines) or 1, "missing 'n r' header")
    parts = lines[header_at - 1].split()
    if len(parts) != 2:
        raise ColoringFormatError(header_at, f"header must be 'n r', got {lines[header_at - 1]!r}")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError:
        raise ColoringFormatError(header_at, "header fields must be integers") from None
    if not 0 <= n <= MAX_VERTICES or r < 1:
        raise ColoringFormatError(
            header_at, f"need 0 <= n <= {MAX_VERTICES} and r >= 1, got n={n} r={r}"
        )
    colors: list[int | None] = [None] * comb(n, 2)
    for lineno in range(header_at + 1, len(lines) + 1):
        raw = lines[lineno - 1]
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
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
        u, v = min(u, v), max(u, v)
        slot = u * (2 * n - u - 1) // 2 + v - u - 1  # index of (u, v) in edge_list(n)
        if colors[slot] is not None:
            raise ColoringFormatError(lineno, f"edge ({u}, {v}) assigned twice")
        colors[slot] = c - 1
    return GraphFamily.from_colors(n, r, colors)


def emit_coloring(fam: GraphFamily) -> str:
    """Serialize to the text format; edges in (u, v) lexicographic order."""
    out = [f"{fam.n} {fam.r}"]
    for u in range(fam.n):
        for v in range(u + 1, fam.n):
            c = fam.color_of(u, v)
            if c is not None:
                out.append(f"{u} {v} {c + 1}")
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
    return prod(count_cliques(g) for g in fam.members)


def sum_clique_counts(fam: GraphFamily) -> int:
    return sum(count_cliques(g) for g in fam.members)


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
    """(4r-2)^(r(r-1)) * n^C(r,2) * 2^n, the closed-form product bound."""
    if r < 1:
        raise ValueError("need at least one color")
    return (4 * r - 2) ** (r * (r - 1)) * n ** comb(r, 2) * 2**n


@dataclass(frozen=True)
class Tournament:
    """Orientation of the complete graph on vertices 0..size-1; (i, j) in
    ``beats`` means i -> j."""

    size: int
    beats: frozenset[tuple[int, int]]

    def __post_init__(self):
        expected = self.size * (self.size - 1) // 2
        if len(self.beats) != expected:
            raise ValueError(f"expected {expected} oriented pairs, got {len(self.beats)}")
        for i, j in self.beats:
            if i == j or not (0 <= i < self.size and 0 <= j < self.size):
                raise ValueError(f"bad oriented pair ({i}, {j})")
            if (j, i) in self.beats:
                raise ValueError(f"pair ({i}, {j}) oriented both ways")

    @classmethod
    def transitive(cls, size: int) -> "Tournament":
        return cls(size, frozenset((i, j) for i in range(size) for j in range(i + 1, size)))

    @classmethod
    def cyclic(cls, size: int) -> "Tournament":
        """i beats the next (size-1)//2 vertices around the cycle; for even
        size the leftover antipodal pairs fall to the lower index."""
        beats = set()
        for i in range(size):
            for k in range(1, (size - 1) // 2 + 1):
                beats.add((i, (i + k) % size))
        for i in range(size):
            for j in range(i + 1, size):
                if (i, j) not in beats and (j, i) not in beats:
                    beats.add((i, j))
        return cls(size, frozenset(beats))

    def winner(self, i: int, j: int) -> int:
        return i if (i, j) in self.beats else j


def tournament_blocks(n: int, tournament: Tournament) -> list[tuple[tuple[int, int], int]]:
    """Split 0..n-1 into C(r,2) consecutive blocks, one per tournament edge.

    Sizes differ by at most one; the larger blocks go to lexicographically
    earlier (undirected) edges.  Each entry is ((winner, loser), mask).
    """
    r = tournament.size
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    k = len(pairs)
    base, extra = divmod(n, k)
    blocks = []
    start = 0
    for idx, (i, j) in enumerate(pairs):
        size = base + (1 if idx < extra else 0)
        mask = ((1 << size) - 1) << start
        start += size
        w = tournament.winner(i, j)
        blocks.append(((w, i + j - w), mask))
    return blocks


def tournament_construction(n: int, r: int, tournament: Tournament) -> GraphFamily:
    """Edge-disjoint family from a tournament on the colors.

    Member i gets all edges inside each block it wins (label i -> j) and all
    edges between two blocks whose labels both touch i.  Pairs of blocks
    with disjoint labels stay uncolored, so the family is partial for r >= 3.
    The clique-count product is at least 2^n times the product of
    (1 + block size) over all blocks.
    """
    if r < 2:
        raise ValueError("construction needs at least 2 colors")
    if tournament.size != r:
        raise ValueError(f"tournament has {tournament.size} vertices, expected {r}")
    blocks = tournament_blocks(n, tournament)
    label = [edge for edge, mask in blocks for _ in range(mask.bit_count())]  # blocks are consecutive
    colors = []
    for u, v in edge_list(n):
        if label[u] == label[v]:
            colors.append(label[u][0])
        else:
            shared = set(label[u]) & set(label[v])
            colors.append(shared.pop() if shared else None)
    return GraphFamily.from_colors(n, r, colors)
