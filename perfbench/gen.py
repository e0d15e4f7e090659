"""Seeded input generator.

    python3 perfbench/gen.py [--seed N] [--out DIR]

Writes, for every workload, its graph6 and coloring inputs (seeded workloads
only), a manifest of their sizes, and ``expected.json``: each operation's exit
code and stdout as the checkout's ngbounds prints them.  At the default seed
the output goes to ``perfbench/inputs`` and must reproduce the committed files
byte for byte; any other seed writes fresh inputs to ``perfbench/out/gen-s<N>``
for a second-seed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads
from worker import run_op


def generate(seed: int, out: Path) -> None:
    for name in workloads.WORKLOADS:
        target = out / name
        if name in workloads.SEEDED:
            workloads.write_inputs(name, seed, target)
        else:
            target.mkdir(parents=True, exist_ok=True)
        expected = {}
        for op in workloads.ops(name, seed, target):
            _elapsed, rc, stdout, error = run_op(op)
            if error is not None:
                raise RuntimeError(f"{name} {op.id} raised {error}")
            expected[op.id] = {"exit": rc, "stdout": stdout}
        (target / workloads.EXPECTED).write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="ascii")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--out", help="output directory (default: see the module docstring)")
    args = ap.parse_args()
    if args.out:
        out = Path(args.out)
    elif args.seed == workloads.DEFAULT_SEED:
        out = workloads.COMMITTED
    else:
        out = workloads.HERE / "out" / f"gen-s{args.seed}"
    generate(args.seed, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
