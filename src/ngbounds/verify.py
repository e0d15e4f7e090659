"""Named verification suites: property runs with counterexample reporting.

Each suite re-derives its expectations from independent machinery (brute
force, closed forms, exhaustive scans) and reports violations as artifacts
(graph6 strings or coloring blobs) so a failure is reproducible from the
report alone.  The CLI ``verify`` command is a thin wrapper around these.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import comb, factorial, prod

from .compression import _move, compress_to_threshold
from .counting import GROUP_ROWS, _tree_profiles
from .graphs import MAX_VERTICES, Graph, complement_rows, emit_graph6
from .multicolor import (
    GraphFamily,
    certificate_length,
    certificate_lower_bound,
    construction_value,
    count_covering_tuples,
    count_good_sequences,
    emit_coloring,
    good_sequence_certificate,
    is_good_sequence,
    multicolor_upper_bound,
    pigeonhole_sequence,
    product_clique_counts,
    tournament_construction,
)
from .oracle import _TOTAL_SCAN_MAX, exhaustive_coloring_extremal, exhaustive_extremal
from .oracle import random_tournament, rng_for, sample_random_coloring, sample_random_graph
from .packing import MAX_RECTANGLE, BorderPath, _border_maxima, _diagonal_max
from .threshold import build, closed_form_counts, recognize

MAX_COUNTEREXAMPLES = 10
THRESHOLD_SIZES = (2, 3, 4)  # the sizes t whose closed-form counts the thresholds suite checks


@dataclass
class Report:
    suite: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)
    counterexamples: list[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.lines.append(line)

    def fail(self, line: str, artifact: str | None = None) -> None:
        self.passed = False
        self.lines.append("VIOLATION: " + line)
        if artifact is not None and len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(artifact)


def _check(suite: str, name: str, value: int, lo: int, hi: int | None = None) -> None:
    """Refuse an option value outside [lo, hi] (no upper end for hi=None)
    before the suite does any work."""
    if value < lo or hi is not None and value > hi:
        need = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise ValueError(f"--{name.replace('_', '-')}: the {suite} suite needs {need}, got {value}")


def _counted(draws):
    """Yield each (record, row_lists) of the iterable ``draws`` as (record,
    the clique and independent-set counts of every size of each of its row
    lists), in order.  Draws are counted in groups, one ``_tree_profiles``
    call per group on its row lists and their complements; a group closes
    once its row lists hold ``GROUP_ROWS`` rows, so it holds at most that
    many rows plus those of its last draw."""
    group: list = []
    held = 0
    for record, row_lists in draws:
        group.append((record, row_lists))
        held += sum(map(len, row_lists))
        if held >= GROUP_ROWS:
            yield from _count_group(group)
            group, held = [], 0
    yield from _count_group(group)


def _count_group(group):
    row_lists = [rows for _, lists in group for rows in lists]
    profiles = _tree_profiles(row_lists + [complement_rows(rows) for rows in row_lists])
    pairs = list(zip(profiles[: len(row_lists)], profiles[len(row_lists) :]))
    at = 0
    for record, lists in group:
        yield record, pairs[at : at + len(lists)]
        at += len(lists)


def _pointwise_le(lo: tuple[int, ...], hi: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(lo, hi))


def verify_compression(trials: int = 10000, n_max: int = 12, seed: int = 7) -> Report:
    """Monotonicity of every fixed-size count under one compression, and of
    the product quantities along the whole pivot trace to a threshold graph.
    Both are replayed with ``_move`` on bit-rows, so no graph is rebuilt or
    revalidated per step.

    A trial's graph, its once-moved graph and every pivot step are counted
    with a group of trials (see ``_counted``), before its checks run in
    trial order; counting a trace before the first check passes costs work
    only on a trial that fails it.  At n_max = 12 a group is about 25 trials
    and 290 row lists with their complements, and 1,200 trials peak at
    0.5 MB of traced allocations, against 0.14 MB for one graph at a time.
    At n_max = 62 a trial's trace of about 300 pivots outgrows ``GROUP_ROWS``
    alone, so each such trial is its own group, held whole: 20 trials peak
    at 6.5 MB of traced allocations, against 1.4 MB one graph at a time."""
    _check("compression", "n_max", n_max, 2, MAX_VERTICES)
    _check("compression", "trials", trials, 1)

    def draw(trial: int):
        rng = rng_for([seed, trial])
        n = int(rng.integers(2, n_max + 1))
        g = sample_random_graph(n, rng)
        x = int(rng.integers(n))
        y = int(rng.integers(n - 1))
        if y >= x:
            y += 1
        final, pivots = compress_to_threshold(g)
        rows = list(g.adj)
        _move(rows, x, y)
        steps = [g.adj, tuple(rows)]
        rows = list(g.adj)
        for pivot in pivots:
            _move(rows, *pivot)
            steps.append(tuple(rows))
        return (g, x, y, final, pivots, tuple(rows)), steps

    rep = Report("compression")
    max_pivots_seen = 0
    for (g, x, y, final, pivots, replayed), counts in _counted(map(draw, range(trials))):
        n = g.n
        (kg, ig), (ks, is_) = counts[:2]
        if not (_pointwise_le(ig, is_) and _pointwise_le(kg, ks)):
            g6 = emit_graph6(g)
            rep.fail(f"size count dropped under compress({x}->{y}) on {g6}", g6)
            continue
        max_pivots_seen = max(max_pivots_seen, len(pivots))
        if len(pivots) > n * n:
            g6 = emit_graph6(g)
            rep.fail(f"{len(pivots)} pivots on {g6} exceeds n^2 = {n * n}", g6)
            continue
        if recognize(final) is None:
            g6 = emit_graph6(g)
            rep.fail(f"compress_to_threshold output of {g6} is not threshold", g6)
            continue
        cur_k, cur_i = kg, ig
        for nxt_k, nxt_i in counts[2:]:
            if sum(nxt_k) * sum(nxt_i) < sum(cur_k) * sum(cur_i) or any(
                a * b < c * d for a, b, c, d in zip(nxt_k, nxt_i, cur_k, cur_i)
            ):
                g6 = emit_graph6(g)
                rep.fail(f"product quantity dropped along the trace of {g6}", g6)
                break
            cur_k, cur_i = nxt_k, nxt_i
        else:
            if replayed != final.adj:
                g6 = emit_graph6(g)
                rep.fail(f"replaying the pivot list of {g6} does not reproduce the output", g6)
    rep.note(f"{trials} trials, n <= {n_max}, seed {seed}; max pivot count {max_pivots_seen}")
    return rep


def verify_thresholds(trials: int = 1000, n_max: int = 16, seed: int = 11) -> Report:
    """Random codes: build/recognize round trip, complement-code identity,
    and the closed-form size counts of the recognized walk against the
    counting oracle, which counts a group of trials' graphs at once (see
    ``_counted``)."""
    _check("thresholds", "n_max", n_max, 1, MAX_VERTICES)
    _check("thresholds", "trials", trials, 1)

    def draw(trial: int):
        rng = rng_for([seed, trial])
        n = int(rng.integers(1, n_max + 1))
        symbols = "".join("+" if rng.integers(0, 2) else "-" for _ in range(n - 1))  # construction order
        walk = BorderPath(symbols[::-1] + (symbols[:1] or "-"))
        g = build(walk)
        return (walk, g), [g.adj]

    rep = Report("thresholds")
    for (walk, g), [(kp, ip)] in _counted(map(draw, range(trials))):
        rec = recognize(g)
        if rec is None:
            g6 = emit_graph6(g)
            rep.fail(f"built graph {g6} not recognized as threshold", g6)
            continue
        if sorted(map(int.bit_count, g.adj)) != sorted(map(int.bit_count, build(rec).adj)):
            g6 = emit_graph6(g)
            rep.fail(f"recognized code rebuilds a non-isomorphic graph for {g6}", g6)
            continue
        if list(build(walk.complemented()).adj) != complement_rows(g.adj):
            g6 = emit_graph6(g)
            rep.fail(f"complemented code does not build the complement of {g6}", g6)
            continue
        for t in THRESHOLD_SIZES:
            s_k, s_i = closed_form_counts(rec, t)
            want_k = kp[t] if t < len(kp) else 0
            want_i = ip[t] if t < len(ip) else 0
            if (s_k, s_i) != (want_k, want_i):
                g6 = emit_graph6(g)
                rep.fail(
                    f"closed form ({s_k}, {s_i}) != profile ({want_k}, {want_i}) at t={t} on {g6}",
                    g6,
                )
    rep.note(f"{trials} random codes, n <= {n_max}, sizes {THRESHOLD_SIZES}, seed {seed}")
    return rep


def verify_borders(t: int = 3, n_max: int = 20) -> Report:
    """Exact lattice-path maximization over every rectangle r + s = n,
    for each total size n <= n_max, reporting one ``n=...`` line per size
    with its maximum scaled value, rectangle and turn count, all read from
    one Pareto table of path sums (``_border_maxima``).

    A size whose best path over all rectangles has more than one turn is
    flagged as a violation.  At t = 3 this happens at n = 4, where the
    two-turn balanced path scores 70/9 against the best one-turn 15/2, so
    the suite fails there by construction: the one-turn reduction holds for
    the continuous border, not for every lattice size.  Per-rectangle
    argmaxima at near-balanced splits legitimately have two turns (the
    one-turn optimality claim is joint over the split fraction, not per
    rectangle); those cases are counted but are not violations.  The scan
    also confirms the value is symmetric under swapping r and s, so
    restricting to r <= s would lose nothing.
    """
    _check("borders", "n_max", n_max, 0, MAX_RECTANGLE)
    # each value is printed as a Fraction over (t!)^2: t stops where (t!)^2 passes the digit limit
    limit = sys.get_int_max_str_digits()
    t_max, scale, cap = 1, 1, 10**limit
    while limit and scale * (t_max + 1) ** 2 < cap:
        t_max += 1
        scale *= t_max * t_max
    _check("borders", "t", t, 2, t_max if limit else None)
    rep = Report("borders")
    local_multi_turn = 0
    for n, reads in enumerate(_border_maxima(t, n_max)):
        local_multi_turn += sum(path.turns > 1 for path, _ in reads)
        for r in range(n + 1):
            if reads[r][1] != reads[n - r][1]:
                rep.fail(f"value not symmetric between ({r},{n - r}) and ({n - r},{r}) at n={n}")
        # the largest value, then the fewest turns, then the smallest r
        r = min(range(n + 1), key=lambda i: (-reads[i][1], reads[i][0].turns))
        (path, best_val), best_at = reads[r], (r, n - r)
        turns_at_best = path.turns
        if turns_at_best > 1:
            rep.fail(f"best path over all splits of n={n} has {turns_at_best} turns (at {best_at})")
        rep.note(f"n={n}: max scaled value {best_val} at rectangle {best_at}, {turns_at_best} turn(s)")
    rep.note(f"per-rectangle argmax had more than one turn in {local_multi_turn} balanced cases")
    return rep


def verify_multicolor(trials: int = 100, seed: int = 23) -> Report:
    """Good-sequence sandwich, certificate validity, AM-GM, the exhaustive
    sum bound on 4 vertices, and the covering-tuple/product bounds."""
    _check("multicolor", "trials", trials, 1)
    rep = Report("multicolor")

    for trial in range(trials):
        rng = rng_for([seed, trial])
        n = int(rng.integers(2, 9))
        r = int(rng.integers(2, 4))
        q = int(rng.integers(0, min(3, n) + 1))
        fam = sample_random_coloring(n, r, rng)
        blob = emit_coloring(fam)
        counts = fam.clique_counts()
        product = prod(counts)

        low = prod(pigeonhole_sequence(n, r, q))
        hi = factorial(q) * product
        mid = count_good_sequences(fam, q)
        if not low <= mid <= hi:
            rep.fail(f"sandwich {low} <= {mid} <= {hi} fails at n={n} r={r} q={q}", blob)

        vertices, colors = good_sequence_certificate(fam)
        if len(vertices) != certificate_length(n, r) or not is_good_sequence(fam, vertices, colors):
            rep.fail(f"greedy certificate invalid at n={n} r={r}", blob)
        bound = certificate_lower_bound(n, r)
        if bound > product:
            rep.fail(f"certificate bound {bound} exceeds the product", blob)

        total = sum(counts)
        if total**r < r**r * product:
            rep.fail(f"AM-GM fails at n={n} r={r}", blob)
    rep.note(f"{trials} random total colorings, seed {seed}: sandwich/certificate/AM-GM")

    n, r = 4, 3
    cap = (r - 1) * (n + 1) + 2**n
    rec = exhaustive_coloring_extremal(n, r, "sum", "max")
    if rec.value > cap:
        rep.fail(f"sum {rec.value} exceeds {cap} on a 3-coloring of 4 vertices", rec.witnesses[0])
    hits = rec.total_witnesses if rec.value == cap else 0
    if hits:
        mono = {emit_coloring(GraphFamily(n, r, [c] * comb(n, 2))) for c in range(r)}
        for blob in sorted(set(rec.witnesses) - mono):
            rep.fail("sum bound attained by a non-monochromatic coloring", blob)
    if hits != r:
        rep.fail(f"expected exactly {r} extremal colorings, found {hits}")
    rep.note(f"all {r ** comb(n, 2)} total 3-colorings of 4 vertices: sum <= {cap}, {hits} extremal")

    for trial in range(trials):
        rng = rng_for([seed, 10_000 + trial])
        n = int(rng.integers(1, 7))
        fam = sample_random_coloring(n, 3, rng, partial=True)
        blob = emit_coloring(fam)
        cover = count_covering_tuples(fam)
        cap = (4 * fam.r - 2) ** (fam.r * (fam.r - 1)) * n ** comb(fam.r, 2)
        if cover > cap:
            rep.fail(f"covering tuples {cover} exceed {cap} at n={n}", blob)
        if product_clique_counts(fam) > multicolor_upper_bound(n, fam.r):
            rep.fail(f"product exceeds the closed-form bound at n={n}", blob)
    rep.note(f"{trials} sampled partial 3-colorings, n <= 6: covering and product bounds")

    for r in range(2, 7):
        for k in range(5):
            n = int(rng_for([seed, 777, r, k]).integers(1, 13))
            tour = random_tournament(r, rng_for([seed + 31 * r + k]))
            fam = tournament_construction(n, tour)  # constructor validates edge-disjointness
            if product_clique_counts(fam) < construction_value(n, tour):
                rep.fail(f"tournament product below its floor at n={n} r={r}", emit_coloring(fam))
    rep.note("tournament constructions r in [2,6], random tournaments: disjoint, product floor holds")
    return rep


def verify_extremal(n_max: int = 6, shards: int = 1) -> Report:
    """Exhaustive labeled scans: the sum/product maxima, their witness sets,
    and the trivial fixed-size cap."""
    _check("extremal", "n_max", n_max, 1, _TOTAL_SCAN_MAX)
    _check("extremal", "shards", shards, 1)
    rep = Report("extremal")
    for n in range(1, n_max + 1):
        use_shards = shards if n == n_max else 1
        expect = {emit_graph6(Graph.complete(n)), emit_graph6(Graph.empty(n))}

        for quantity, name, want in (("pi", "product", (n + 1) * 2**n), ("sigma", "sum", 2**n + n + 1)):
            rec = exhaustive_extremal(n, quantity, "max", shards=use_shards)
            if rec.value != want:
                rep.fail(f"max {name} {rec.value} != {want} at n={n}")
            if set(rec.witnesses) != expect:
                rep.fail(f"{name} witnesses {rec.witnesses} != complete/empty at n={n}")
            if not rec.recheck():
                rep.fail(f"{name} record failed self-verification at n={n}")

        for t in range(2, n + 1):
            cap = comb(n, t)
            rec = exhaustive_extremal(n, "sigma_t", "max", t=t)
            if rec.value > cap:
                rep.fail(f"max sigma_{t} = {rec.value} exceeds C({n},{t}) = {cap}")
        rep.note(f"n={n}: max product {(n + 1) * 2 ** n}, max sum {2 ** n + n + 1}, witnesses complete/empty")
    return rep


def _code_terms(steps: int, t: int) -> tuple[list[int], list[int]]:
    """Step weights C(k, t-1) and end terms C(k+1, t), k = 0..steps, of the
    lattice walk of a code with ``steps`` symbols (see threshold_code_max)."""
    return [comb(k, t - 1) if t else 0 for k in range(steps + 1)], [comb(k + 1, t) for k in range(steps + 1)]


def threshold_code_max(n: int, t: int) -> tuple[int, bool, list[str]]:
    """Max of the size-t product over all 2^(n-1) threshold codes.

    Returns (value, attained by a code with at most one sign change,
    the first five maximizing codes in lexicographic order, '-' before '+').

    A code is its graph's walk without the seed's step (``closed_form_counts``).
    Whichever sign the seed takes, it and the end point add C(a+1, t) to K_t
    and C(b+1, t) to I_t at the code's end point (b, a), so ``_diagonal_max``
    maximizes K_t * I_t over the codes as (n-1)-step walks with these end
    terms, without building a graph; the ties of t = 0 and t = 1, where
    every code maximizes, cost nothing.  Like ``pi_t`` on the built graph
    (one vertex for n <= 1), raises for t outside [0, max(n, 1)]; like
    ``discrete_border_max``, capped at ``MAX_RECTANGLE`` steps: n <= 25.
    """
    steps = max(0, n - 1)
    if steps > MAX_RECTANGLE:
        raise ValueError(f"threshold code scan is capped at n <= {MAX_RECTANGLE + 1}, got {n}")
    if not 0 <= t <= steps + 1:
        raise ValueError(f"size t must be in [0, {steps + 1}], got {t}")
    return _diagonal_max(*_code_terms(steps, t))


SUITES = {
    "compression": verify_compression,
    "thresholds": verify_thresholds,
    "borders": verify_borders,
    "multicolor": verify_multicolor,
    "extremal": verify_extremal,
}
