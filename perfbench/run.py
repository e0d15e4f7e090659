"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Makes the workload's inputs from the seed,
runs the workload in a fresh worker process for about S seconds, and starts
nine more workers around it that only set up, to time set-up.  Prints the
environment on one line and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.
The full result, with every pass, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
DEADLINE_S = 170  # a run must end within 180 s


def environment() -> dict:
    """What a result may only be compared under: interpreter, CPU and code."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ngbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def worker(extra: list[str], timeout: float) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "ngbounds" / "__init__.py").is_file():
        print(f"no ngbounds source under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    inputs = workloads.locate(args.workload, args.seed, OUT)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs)]

    def probe() -> float:
        spawned = time.monotonic()
        return worker(common + ["--setup-only"], DEADLINE_S - (spawned - start))["ready"] - spawned

    try:
        # set-up probes on both sides of the measured worker, so one slow spell of the machine hits few of them
        probes = [probe() for _ in range(SETUP_PROBES // 2)]
        run = worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", str(OUT / f"spans-{args.workload}.csv")],
            DEADLINE_S - 20 - (time.monotonic() - start),
        )
        probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        traced = [p for p in run["passes"] if p["traced"]]
        values = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - run["wall_s"]
        values["trace.overhead_frac"] = values["trace.overhead_s"] / run["wall_s"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": run["wall_s"],
            "max_op_s": run["max_op_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_frac": 1 - run["failed"] / run["attempted"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {
        **environment(),
        **run["environment"],
        "speed_probe_s": statistics.median(p["speed_probe_s"] for p in run["passes"]),
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "setup_samples_s": probes,
        "failures": run["failures"],
        "passes": run["passes"],
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
