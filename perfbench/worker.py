"""One workload in its own process: set up, run timed rounds, check, report.

Started by run.py, never by hand.  The last line of standard output is one
JSON object with the measurements of this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import workloads

ROOT = Path(__file__).resolve().parent.parent


def environment():
    """Versions and the BLAS configuration that timings depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        setup_s = time.time() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(wl, args, setup_s)
    finally:
        if hasattr(wl, "close"):
            wl.close()


def measure(wl, args, setup_s):
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    op_times, round_times, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        spent = 0.0
        for op in wl.round(r):
            attempted += 1
            if tracer:
                tracer.op, tracer.active = attempted - 1, True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                failed += 1
                print(f"round {r} {op.kind}: operation failed\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                if tracer:
                    tracer.active = False
            dt = time.perf_counter() - t0
            op_times.append(dt)
            spent += dt
            try:
                fails = op.check(out)
            except Exception:
                fails = [f"check raised\n{traceback.format_exc()}"]
            failures += [f"round {r} {op.kind}: {f}" for f in fails]
        round_times.append(spent)
        r += 1
    for f in failures[:20]:
        print(f"CHECK FAILED {f}", file=sys.stderr)

    report = {
        "setup_s": setup_s,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "op_times_s": op_times,
        "wall_s": sum(round_times) / len(round_times),
        "op_p50_s": statistics.median(op_times) if op_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": environment(),
    }
    if tracer:
        report["layers"] = tracer.metrics(r)
        spans = ROOT / ".perfbench" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans / f"{args.workload}.seed{args.seed}.csv.gz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
