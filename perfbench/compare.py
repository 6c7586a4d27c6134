"""Ratios of every metric between two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py (.perfbench/results/*.json)
or directories of them, typically the results of two commits.  Runs of one
workload are pooled by their median (traced runs give the per-layer
metrics, untraced runs the end-to-end ones).  Each metric gets one row per
workload: the base median, the new median and new/base, with the number of
runs on each side.  The machine records (nproc, numpy, scipy, BLAS) of both
sides are printed first, since ratios across machines mean little.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"compare: no result files in {path}")
    return runs


def pool(runs):
    """{workload: {metric: (median, unit, n)}} over all runs given."""
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(
                name, (m["unit"], []))[1].append(m["value"])
    return {w: {k: (statistics.median(v), unit, len(v))
                for k, (unit, v) in ms.items()} for w, ms in values.items()}


def machines(runs):
    seen = []
    for run in runs:
        env = run.get("environment", {})
        key = json.dumps({k: env.get(k) for k in
                          ("nproc", "numpy", "scipy", "blas", "blas_threads")},
                         sort_keys=True)
        if key not in seen:
            seen.append(key)
    return seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base_runs, new_runs = load(args.base), load(args.new)
    for label, runs in (("base", base_runs), ("new", new_runs)):
        for m in machines(runs):
            print(f"{label} machine: {m}")
    base, new = pool(base_runs), pool(new_runs)
    metrics = sorted({k for ms in list(base.values()) + list(new.values())
                      for k in ms})
    workloads = sorted(set(base) | set(new))
    print(f"{'metric':28} {'workload':14} {'base':>12} {'new':>12} "
          f"{'new/base':>9}  runs")
    for metric in metrics:
        for w in workloads:
            b = base.get(w, {}).get(metric)
            n = new.get(w, {}).get(metric)
            if b is None and n is None:
                continue
            unit = (b or n)[1]
            bv = f"{b[0]:.6g}" if b else "-"
            nv = f"{n[0]:.6g}" if n else "-"
            ratio = f"{n[0] / b[0]:.3f}" if b and n and b[0] else "-"
            counts = f"{b[2] if b else 0}/{n[2] if n else 0}"
            print(f"{metric:28} {w:14} {bv:>12} {nv:>12} {ratio:>9}  "
                  f"{counts} ({unit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
