"""One workload process: set up, then run the operation list back to back.

Started by run.py, one process at a time.  With ``--setup-only`` it stops once
the first operation is ready and prints the monotonic clock, so run.py can
time set-up from process start.  Otherwise it runs passes over the operation
list until the next pass would end after ``--seconds``, and prints one JSON
object with the pass times, checks and, under ``--trace 1``, the per-layer
metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ngbounds  # noqa: E402  (the checkout's own source, ahead of anything installed)
import ngbounds.cli  # noqa: E402
import ngbounds.verify  # noqa: E402
import numpy  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_op(op) -> tuple[float, int, str, str | None]:
    """Run one operation with its output captured.

    Returns (seconds, exit code, stdout, error); error names an exception the
    operation raised instead of returning an exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.call:
                name, args = op.call
                print(repr(getattr(ngbounds.verify, name)(*args)))
                rc = 0
            else:
                rc = ngbounds.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash counts as a failed operation; the run goes on
            rc, error = -1, repr(exc)
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), error


def probe_speed() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs right now.

    Shared machines drift in speed over tens of seconds; the probe, stored
    with every pass, shows which runs were made at comparable speed.
    """
    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the last traced pass's spans are written to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(ngbounds.__file__).resolve().is_relative_to(HERE.parent / "src"):
        print(f"ngbounds imported from {ngbounds.__file__}, not from this checkout", file=sys.stderr)
        return 2
    inputs = Path(args.inputs)
    ops = workloads.ops(args.workload, args.seed, inputs)
    expected = json.loads((workloads.COMMITTED / args.workload / workloads.EXPECTED).read_text(encoding="ascii"))
    exact = args.seed == workloads.DEFAULT_SEED  # seeded inputs have a reference only at the default seed
    sizes = {}
    if args.workload in workloads.SEEDED:
        manifest = json.loads((inputs / workloads.MANIFEST).read_text(encoding="ascii"))
        sizes = {**manifest["graphs"], **manifest["colorings"]}
        for op in ops:
            if op.input is not None:
                (inputs / op.input).read_bytes()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    recorder = spans.Recorder() if args.trace else None
    passes: list[dict] = []
    failures: list[str] = []
    attempted = 0
    peak_rss_mb = None
    traced_spans: list[list] = []
    begin = time.perf_counter()
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.install()
        times = {}
        speed = probe_speed()
        for op in ops:
            gc.collect()  # each operation starts from a clean heap, as a fresh CLI process would
            if traced:
                recorder.op = op.id
            elapsed, rc, out, error = run_op(op)
            times[op.id] = elapsed
            attempted += 1
            want = expected.get(op.id) if exact or op.kind == "fixed" else None
            reason = f"raised {error}" if error else check.check(op, rc, out, want, sizes.get(op.input))
            if reason is not None:
                failures.append(f"pass {len(passes)} {op.id}: {reason}")
        record = {"traced": traced, "wall_s": sum(times.values()), "op_s": times, "speed_probe_s": speed}
        if traced:
            recorder.uninstall()
            traced_spans = recorder.take()
            record["layers"] = spans.layer_metrics(traced_spans)
            record["shares"] = spans.layer_shares(traced_spans)
        if peak_rss_mb is None:
            # ru_maxrss is in KiB on Linux; read after one pass so the figure covers a fixed amount of work
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(record)
        spent = time.perf_counter() - begin
        need_more = recorder is not None and len(passes) < 2  # a traced run needs one pass of each kind
        if not need_more and spent + record["wall_s"] > args.seconds:
            break

    if args.spans and traced_spans:
        with open(args.spans, "w", encoding="ascii") as fh:
            fh.write("id,parent,op,name,start_s,end_s,info\n")
            for idx, (name, _layer, start, end, parent, op_id, info) in enumerate(traced_spans):
                fh.write(f"{idx},{parent},{op_id},{name},{start:.9f},{end:.9f},{json.dumps(info or {}, separators=(';', ':'))}\n")

    plain = [p for p in passes if not p["traced"]]
    # per-operation medians over the untraced passes damp a slow spell of the machine that hits one pass
    op_medians = {op.id: statistics.median(p["op_s"][op.id] for p in plain) for op in ops}
    result = {
        "ready": ready,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "wall_s": sum(op_medians.values()),
        "max_op_s": max(op_medians.values()),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "ngbounds": ngbounds.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
