"""Benchmark of cornerlab: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload corner-modes --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (cornerlab is imported from its
src/ directory).  Each workload runs in a worker process of its own, with
BLAS fixed at min(2, nproc) threads.  With --trace 0 the worker is first
started SETUP_REPS - 1 times for set-up alone, and setup_s is the median
over all starts; with --trace 1 a single traced worker reports the
per-layer metrics.  The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and a copy, with the machine's versions and BLAS configuration, goes to
.perfbench/results/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corner-modes", "gap-scan", "gate-branches", "lead-oracles")
SETUP_REPS = 5
TIME_LIMIT_S = 170
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def start_worker(args, env, deadline, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.time())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "cornerlab" / "__init__.py").is_file():
        print(f"perfbench: no cornerlab sources in {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)

    try:
        setups = [] if args.trace else [
            start_worker(args, env, deadline, True)["setup_s"]
            for _ in range(SETUP_REPS - 1)]
        rep = start_worker(args, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} did not finish: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in rep["layers"].items()}
    else:
        setups.append(rep["setup_s"])
        rep["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": rep[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": rep["correct"], "attempted": rep["attempted"],
              "failed": rep["failed"], "metrics": metrics}

    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": rep["rounds"], "wall_s": rep["wall_s"],
              "op_times_s": rep["op_times_s"],
              "setup_samples_s": setups, "environment": rep["environment"],
              **result}
    (out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
