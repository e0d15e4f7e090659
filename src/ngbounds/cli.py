"""Command-line entry point.

Subcommands
-----------
count     exact counts and the sum/product quantities of a graph or coloring
compress  pivot trace and final threshold code of a graph
bounds    analytic bound table for given t, n (and optionally r colors)
verify    run a named verification suite (exit 1 on any violation)
extremal  exhaustive labeled scan for one quantity, CSV record output;
          --shards K --shard k processes only masks congruent to k mod K
exponent  advisory CSV of the product exponent on random graphs

Exit codes: 0 success, 1 property violation, 2 input error.
Inputs: graph6 strings (short form) and the coloring text format
(header ``n r``, one ``u v c`` line per colored edge, colors 1-based).
All randomized commands are reproducible from --seed.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from math import comb, factorial, log, log2, prod
from statistics import median

from .compression import compress_to_threshold
from .counting import pi, profile_pair
from .graphs import Graph6Error, parse_graph6
from .multicolor import (
    ColoringFormatError,
    Tournament,
    certificate_length,
    certificate_lower_bound,
    construction_value,
    multicolor_upper_bound,
    parse_coloring,
    pigeonhole_sequence,
)
from .oracle import exhaustive_coloring_extremal, exhaustive_extremal, random_pi_exponent
from .packing import leading_term_bound
from .threshold import extremal_one_turn_codes, recognize
from .verify import SUITES


def _load_graph(args):
    if getattr(args, "graph6", None) is not None:
        return parse_graph6(args.graph6.strip())
    with open(args.graph6_file, encoding="ascii") as fh:
        return parse_graph6(fh.read().strip())


def cmd_count(args) -> int:
    sizes = sorted(set(args.t or []))
    if args.coloring is not None:
        if sizes:
            raise ValueError("--t applies to graphs, not to --coloring")
        with open(args.coloring, encoding="ascii") as fh:
            fam = parse_coloring(fh.read())
        counts = fam.clique_counts()
        limit = sys.get_int_max_str_digits()
        # every member has n + 1 cliques or more: (n + 1)^r refuses most huge products unbuilt
        product = prod(counts) if not limit or (fam.n + 1) ** fam.r < 10**limit else None
        if product is None or limit and product >= 10**limit:
            raise ValueError(f"the coloring's product has more than {limit} digits")
        print(f"n {fam.n}")
        print(f"r {fam.r}")
        print(f"total {'yes' if fam.covers_all_edges else 'no'}")
        for idx, c in enumerate(counts, start=1):
            print(f"k(G_{idx}) {c}")
        print(f"sum {sum(counts)}")
        print(f"product {product}")
        return 0
    g = _load_graph(args)
    for t in sizes:
        if not 0 <= t <= g.n:
            raise ValueError(f"size t={t} outside [0, {g.n}]")
    kp, ip = profile_pair(g)
    k, i = sum(kp), sum(ip)
    print(f"n {g.n}")
    print(f"k {k}")
    print(f"i {i}")
    print(f"sigma {k + i}")
    print(f"pi {k * i}")
    for t in sizes:
        kt, it = kp[t], ip[t]
        print(f"k_{t} {kt}")
        print(f"i_{t} {it}")
        print(f"sigma_{t} {kt + it}")
        print(f"pi_{t} {kt * it}")
    return 0


def cmd_compress(args) -> int:
    g = _load_graph(args)
    final, pivots = compress_to_threshold(g)
    for x, y in pivots:
        print(f"compress {x} -> {y}")
    code = recognize(final)
    print(f"pivots {len(pivots)}")
    print(f"code {code.code if code else '(none)'}")
    print(f"pi {pi(g)} -> {pi(final)}")
    return 0


def cmd_bounds(args) -> int:
    t, n, r = args.t, args.n, args.r
    if n < 0:
        raise ValueError(f"vertex count n={n} is negative")
    limit = sys.get_int_max_str_digits()
    # 2^(10/3) > 10, so for 3n >= 10 * limit pi_upper >= 10^limit: such an n is refused before it is built
    if limit and (3 * n >= 10 * limit or (n + 1) * 2**n >= 10**limit):
        raise ValueError(f"--n {n} is too large: pi_upper(n={n}) has more than {limit} digits")
    # leading_bound builds n^t and t! as exact ints; t! >= 10^t for t >= 25, so t >= limit is refused unbuilt
    if limit and t > 0 and (t >= limit or max(n**t, factorial(t)) >= 10**limit):
        raise ValueError(f"--t {t} is too large for --n {n}: {n}^{t} or {t}! has more than {limit} digits")
    if r is not None:
        m = certificate_length(n, r)
        # for n >= 1 and r >= 3, product_upper >= 10^(r(r-1)): such an r is refused before it is built
        upper = None if limit and n and r * (r - 1) >= limit else multicolor_upper_bound(n, r)  # refuses n < 1
        if upper is None or limit and upper >= 10**limit:
            raise ValueError(f"--r {r} is too large for --n {n}: product_upper(r={r}) has more than {limit} digits")
    g = parse_graph6(args.graph6.strip()) if args.graph6 is not None else None
    if g is not None and g.n != n:
        raise ValueError(f"--graph6 instance has {g.n} vertices, --n says {n}")
    split, value = leading_term_bound(t)
    try:
        leading = (n**t / factorial(t)) ** 2 * value
    except OverflowError:
        raise ValueError(f"--t {t} --n {n} is too large: leading_bound(n={n}) overflows a float") from None
    # the bound is positive for every n >= 1, so a 0 here is a float underflow
    if n and not leading:
        raise ValueError(f"--t {t} is too large for --n {n}: leading_bound(n={n}) underflows a float")
    print(f"split_{t} {split:.12f}")
    # fixed point shows at least 7 significant digits down to 1e-6; a smaller peak would read as 0
    print(f"peak_{t} {value:.12f}" if value >= 1e-6 else f"peak_{t} {value:.6e}")
    print(f"leading_bound(n={n}) {leading:.6e}")
    print(f"pi_upper(n={n}) {(n + 1) * 2 ** n}")
    if n >= 1:
        joined, disjoint = extremal_one_turn_codes(n, t)
        print(f"code_joined {joined.code}")
        print(f"code_disjoint {disjoint.code}")
    if r is not None:
        print(f"certificate_bound(r={r}) {certificate_lower_bound(n, r)}")
        print(f"certificate_counts {','.join(map(str, pigeonhole_sequence(n, r, m)))}")
        print(f"product_upper(r={r}) {upper}")
        print(f"construction_value(r={r}) {construction_value(n, Tournament.transitive(r))}")
        blocks = comb(r, 2)
        if n % blocks == 0:
            print(f"construction_floor(r={r}) {2 ** n * (n // blocks) ** blocks}")
        else:
            print(f"construction_floor(r={r}) {2 ** n * (n / blocks) ** blocks:.6e}")
    if g is not None:
        kp, ip = profile_pair(g)
        print(f"instance_pi {sum(kp) * sum(ip)}")
        print(f"instance_pi_{t} {kp[t] * ip[t] if t <= n else 0}")
    return 0


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise ValueError(f"unknown suite {args.suite!r}; pick from {sorted(SUITES)}")
    params = inspect.signature(suite).parameters
    given = {k: v for k, v in vars(args).items() if k not in ("command", "func", "suite") and v is not None}
    for k in given:
        if k not in params:
            raise ValueError(f"--{k.replace('_', '-')} does not apply to the {args.suite} suite")
    report = suite(**given)
    for line in report.lines:
        print(line)
    if not report.passed:
        for artifact in report.counterexamples:
            print("counterexample:")
            print(artifact)
        print(f"{report.suite}: FAIL")
        return 1
    print(f"{report.suite}: PASS")
    return 0


def cmd_extremal(args) -> int:
    quantity = args.quantity
    if quantity is None:
        quantity = "pi" if args.coloring_r is None else "product"
    if args.coloring_r is not None:
        graph_only = (("--t", args.t is not None), ("--shard", args.shard is not None), ("--shards", args.shards != 1))
        for opt, given in graph_only:
            if given:
                raise ValueError(f"{opt} applies to graph scans, not to --coloring-r")
        rec = exhaustive_coloring_extremal(args.n, args.coloring_r, quantity, args.direction)
        limit = sys.get_int_max_str_digits()
        if limit and rec.value >= 10**limit:
            raise ValueError(f"--coloring-r {args.coloring_r} is too large: the {rec.quantity} has more than {limit} digits")
    else:
        rec = exhaustive_extremal(
            args.n,
            quantity,
            args.direction,
            t=args.t,
            shards=args.shards,
            shard=args.shard,
        )
    shard = "" if args.shard is None else args.shard
    t = "" if rec.t is None else rec.t
    witnesses = ";".join(w.replace("\n", "|") for w in rec.witnesses)
    record = f"{rec.n},{rec.quantity},{rec.direction},{t},{shard},{rec.value},{rec.total_witnesses},{witnesses}"
    print("n,quantity,direction,t,shard,value,total_witnesses,witnesses")
    print(record)
    if not rec.recheck():
        print("witness re-evaluation failed", file=sys.stderr)
        return 1
    return 0


def cmd_exponent(args) -> int:
    products = random_pi_exponent(args.n, args.trials, args.seed)
    denom = log(args.n) * log2(args.n)
    ratios = [log(p) / denom for p in products]
    lines = ["trial,pi,ratio"]
    for i, (p, ratio) in enumerate(zip(products, ratios)):
        lines.append(f"{i},{p},{ratio:.9f}")
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(
        f"# n={args.n} trials={len(ratios)} "
        f"min={min(ratios):.6f} median={median(ratios):.6f} max={max(ratios):.6f}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact counts of a graph or coloring")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 string")
    src.add_argument("--graph6-file", help="file holding one graph6 string")
    src.add_argument("--coloring", help="coloring file (header 'n r', lines 'u v c')")
    p.add_argument("--t", type=int, action="append", help="also report size-t counts (repeatable)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("compress", help="compress a graph to a threshold graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 string")
    src.add_argument("--graph6-file", help="file holding one graph6 string")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("bounds", help="analytic bound table")
    p.add_argument("--t", type=int, default=3, help="clique/independent-set size (default 3)")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, help="color count for the multicolor rows")
    p.add_argument("--graph6", help="optional instance to evaluate next to the bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES)}")
    p.add_argument("--trials", type=int, help="trial count for randomized suites")
    p.add_argument("--n-max", dest="n_max", type=int, help="size ceiling")
    p.add_argument("--seed", type=int, help="base seed for randomized suites")
    p.add_argument("--t", type=int, help="size parameter (borders suite)")
    p.add_argument("--shards", type=int, help="shard count (extremal suite)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extremal", help="exhaustive extremal scan, CSV record output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--quantity",
        help="sigma | pi | sigma_t | pi_t (graphs, default pi), or sum | product with --coloring-r (default product)",
    )
    p.add_argument("--direction", default="max", choices=("min", "max"))
    p.add_argument("--t", type=int, help="size for sigma_t/pi_t")
    p.add_argument("--shards", type=int, default=1, help="partition the mask space into K residues")
    p.add_argument("--shard", type=int, help="process only masks congruent to this residue")
    p.add_argument("--coloring-r", dest="coloring_r", type=int, help="scan total r-colorings instead")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("exponent", help="advisory product-exponent CSV on random graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_exponent)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Graph6Error, ColoringFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
