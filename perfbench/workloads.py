"""The four benchmark workloads: their seeded inputs and their operation lists.

Inputs are drawn from ``random.Random`` seeded with a string naming the
workload and the seed.  String seeding, ``random()`` and ``randrange()`` give
the same stream on every CPython 3 release, so one seed always writes the same
bytes.  The program only ever sees the files written here: graph6 strings and
coloring texts.

Dense random graphs are drawn with a fixed degree sequence (a circulant graph
shuffled by degree-preserving edge swaps) rather than from G(n, p): at equal
density the clique counts, and so the counting time, vary far less from draw
to draw, which keeps a workload's cost steady from one seed to the next.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "inputs"
MANIFEST = "manifest.json"
EXPECTED = "expected.json"


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind names the invariant check used when no reference output exists:
    'count', 'coloring' and 'compress' run seeded inputs, which have a
    committed reference only at the default seed; 'fixed' operations take no
    random input and are checked against their committed reference at every
    seed.
    An operation is either a CLI argv for ``ngbounds.cli.main`` or a direct
    call ``(function name in ngbounds.verify, args)``.
    """

    id: str
    kind: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    input: str | None = None


# name, n, degree of the near-regular graph, complement it
_DENSE_GRAPHS = (
    ("d01", 62, 18, False),  # p = 0.30: the cost sits in independent_profile
    ("d02", 62, 18, False),
    ("d03", 62, 18, False),
    ("d04", 62, 18, True),  # p = 0.70: the cost sits in clique_profile
    ("d05", 62, 18, True),
    ("d06", 62, 18, True),
    ("d07", 62, 31, False),  # p = 0.51
    ("d08", 44, 9, False),  # p = 0.21; at n = 62 one such graph takes 5-11 s
    ("d09", 44, 9, False),
    ("d10", 44, 9, True),  # p = 0.79
    ("d11", 44, 9, True),
)
_DENSE_COLORING = ("c01", 62, 3)
_COMPRESS_GRAPHS = (
    ("g01", 62, 31, False),  # p = 0.51
    ("g02", 50, 25, False),  # p = 0.51
    ("g03", 40, 12, False),  # p = 0.31
    ("g04", 40, 12, True),  # p = 0.69
)
SEEDED = ("dense_count", "compress_trace")
WORKLOADS = ("dense_count", "compress_trace", "exhaustive_scan", "border_search")


def near_regular(n: int, d: int, rng: random.Random) -> list[int]:
    """Adjacency bit-rows of a random graph in which every vertex has degree d."""
    if d % 2 and n % 2:
        raise ValueError("an odd degree needs an even vertex count")
    edges = set()
    for v in range(n):
        for k in range(1, d // 2 + 1):
            edges.add(tuple(sorted((v, (v + k) % n))))
    if d % 2:
        edges.update((v, v + n // 2) for v in range(n // 2))
    order = sorted(edges)
    for _ in range(10 * len(order)):
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        (a, b), (c, e) = order[i], order[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = tuple(sorted((a, e))), tuple(sorted((c, b)))
        if a == e or c == b or new1 in edges or new2 in edges:
            continue
        edges.difference_update((order[i], order[j]))
        edges.update((new1, new2))
        order[i], order[j] = new1, new2
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def complement_rows(rows: list[int]) -> list[int]:
    full = (1 << len(rows)) - 1
    return [(full ^ row) & ~(1 << v) for v, row in enumerate(rows)]


def graph6(rows: list[int]) -> str:
    """Short-form graph6: upper triangle column by column, six bits a byte."""
    n = len(rows)
    bits = [(rows[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    data = [int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)]
    return chr(n + 63) + "".join(chr(x + 63) for x in data)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write a seeded workload's input files and its manifest into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    manifest: dict = {"workload": workload, "seed": seed, "graphs": {}, "colorings": {}}
    specs = _DENSE_GRAPHS if workload == "dense_count" else _COMPRESS_GRAPHS
    for name, n, d, flip in specs:
        rows = near_regular(n, d, rng)
        if flip:
            rows = complement_rows(rows)
        (out / f"{name}.g6").write_text(graph6(rows) + "\n", encoding="ascii")
        edges = sum(row.bit_count() for row in rows) // 2
        manifest["graphs"][f"{name}.g6"] = {"n": n, "edges": edges}
    if workload == "dense_count":
        name, n, r = _DENSE_COLORING
        lines = [f"{n} {r}"]
        per_color = [0] * r
        for u in range(n):
            for v in range(u + 1, n):
                c = rng.randrange(r)
                per_color[c] += 1
                lines.append(f"{u} {v} {c + 1}")
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
        manifest["colorings"][f"{name}.txt"] = {"n": n, "r": r, "edges": per_color}
    (out / MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="ascii")


def ops(workload: str, seed: int, inputs: Path) -> list[Op]:
    """The operation list of one pass of ``workload``; seeded inputs are read from ``inputs``."""
    if workload == "dense_count":
        out = [
            Op(name, "count", ("count", "--graph6-file", str(inputs / f"{name}.g6"), "--t", "1", "--t", "2", "--t", "3"),
               input=f"{name}.g6")
            for name, *_ in _DENSE_GRAPHS
        ]
        name = _DENSE_COLORING[0]
        out.append(Op(name, "coloring", ("count", "--coloring", str(inputs / f"{name}.txt")), input=f"{name}.txt"))
        return out
    if workload == "compress_trace":
        out = [
            Op(name, "compress", ("compress", "--graph6-file", str(inputs / f"{name}.g6")), input=f"{name}.g6")
            for name, *_ in _COMPRESS_GRAPHS
        ]
        # The suites keep their own default seeds: their cost swings by about 10% from one
        # seed to another, which would swamp the seed-to-seed spread of the compress inputs.
        # v01 is sized to be the slowest operation, so max_op_s follows a fixed input.
        out.append(Op("v01", "fixed", ("verify", "compression", "--trials", "1200", "--n-max", "12", "--seed", "7")))
        out.append(Op("v02", "fixed", ("verify", "thresholds", "--trials", "400", "--n-max", "16", "--seed", "11")))
        return out
    if workload == "exhaustive_scan":
        return [
            Op("e01", "fixed", ("extremal", "--n", "8", "--quantity", "pi_t", "--t", "3", "--shards", "4", "--shard", "1")),
            Op("e02", "fixed", ("extremal", "--n", "6", "--coloring-r", "2", "--quantity", "product")),
        ]
    if workload == "border_search":
        return [
            Op("b01", "fixed", ("verify", "borders", "--t", "3", "--n-max", "19")),
            Op("b02", "fixed", call=("threshold_code_max", (14, 3))),
            Op("b03", "fixed", ("bounds", "--t", "3", "--n", "100", "--r", "3")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def locate(workload: str, seed: int, scratch: Path) -> Path:
    """Input directory for one run: the committed inputs at the default seed
    (and for the two workloads without random input), else fresh ones under
    ``scratch``."""
    if workload not in SEEDED or seed == DEFAULT_SEED:
        return COMMITTED / workload
    out = scratch / f"s{seed}" / workload
    write_inputs(workload, seed, out)
    return out
