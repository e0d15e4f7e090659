"""Run every workload untraced and traced, and print each metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload: the end-to-end metrics (tracing off), the per-layer
metrics (tracing on), the tracing overhead, and each layer's share of the
self time in the traced passes.  Seconds default to BENCHMARK.json's
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args()
    for name in args.workload or workloads.WORKLOADS:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s a run)")
        for trace in (0, 1):
            res = run(name, args.seed, args.seconds, trace)
            print(f"  {'per-layer, traced' if trace else 'end-to-end, untraced'}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, v in res["metrics"].items():
                print(f"    {metric:30s} {v['value']:>16.6g} {v['unit']}")
        full = json.loads((HERE / "out" / f"result-{name}-s{args.seed}-t1.json").read_text(encoding="utf-8"))
        traced = [p["shares"] for p in full["passes"] if p["traced"]]
        shares = {layer: statistics.median(s[layer] for s in traced) for layer in traced[0]}
        print("  share of self time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.0005))
    return 0


if __name__ == "__main__":
    sys.exit(main())
