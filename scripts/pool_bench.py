#!/usr/bin/env python3
"""Pool two sets of perfbench results into one committed bench record.

    python3 scripts/pool_bench.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_N.json \\
        [--what TEXT] [--a-a COPY_RESULTS] [--criterion-1 PARENT_SRC CHANGE_SRC]

PARENT_RESULTS and CHANGE_RESULTS are `.perfbench/results/` directories
written by `perfbench/run.py` in two checkouts.  Untraced runs of one
workload and seed on both sides form a pair.  For each end-to-end metric
the record lists every run per seed, the quartiles [q1, median, q3]
(linear interpolation), the ratio of the medians (change over parent) and
the number of pairs in which the change reads lower; every perfbench
metric is better lower.  Beside each ratio it records the median gain
(parent median minus change median), the parent's interquartile spread
(q3 - q1) and the marks the printed table shows after the ratio:

    *           the change reads lower in at least 9 of every 10 pairs and its
                median gain exceeds the parent's interquartile spread (the
                rule for claiming a gain);
    worse       the change's median exceeds the parent's by more than the
                metric's bound in BENCHMARK.json;
    unresolved  the parent's interquartile spread over its median exceeds
                that bound, so the runs spread too widely to tell.

Metrics without a bound get no "worse" or "unresolved" mark.  Every traced
run of a side is pooled: each per-layer value is recorded as the median
and [min, max] over those runs, with the ratio of the medians (change over
parent).  The runs' environment gives the machine record.

With --a-a, COPY_RESULTS are the runs of a second clean copy of the
parent; they are pooled against the parent's in the same way (the copy in
the place of the change) and recorded under "a_a", so a pair count or a
ratio can be read against what two copies of one commit show.

With --criterion-1, acceptance criterion 1 (16x16 sites at cutoff M = 6:
build, assemble, solve and the 4 + 4 mode count) runs three times per side
in fresh processes, alternating between the two source trees (parent
first), with BLAS at 2 threads.  Its wall time (time.perf_counter around
that work) and the process's peak RSS (ru_maxrss) are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# end-to-end metric -> its relative bound, from the benchmark's declaration
BOUNDS = {m["name"]: m["bound"] for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)["end_to_end"]}
CRITERION_1_RUNS = 3

CRITERION_1 = """
import json, math, resource, time
from cornerlab import floquet, lattice
t0 = time.perf_counter()
p = lattice.fig_s1_params(Nx=8, Ny=8)
sm = floquet.assemble_sambe(lattice.build_realspace_bdg(p), 6)
tol = 1e-3 * 2 * math.pi
spec = floquet.quasienergy_spectrum(sm, tol_zero=tol, tol_pi=tol)
wall = time.perf_counter() - t0
if spec.counts() != {"zero": 4, "pi": 4}:
    raise SystemExit(f"criterion 1 counts {spec.counts()}")
print(json.dumps({"wall_s": round(wall, 4), "peak_rss_mb": round(
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4,
                                                       method="inclusive")]


def load(results):
    """{workload: {"runs": {seed: record}, "traced": [record, ...]}}."""
    out = {}
    for f in sorted(Path(results).glob("*.json")):
        rec = json.loads(f.read_text())
        w = out.setdefault(rec["workload"], {"runs": {}, "traced": []})
        if rec["trace"]:
            w["traced"].append(rec)
        else:
            w["runs"][rec["seed"]] = rec
    if not out:
        raise SystemExit(f"pool_bench: no result files in {results}")
    return out


def machine(rec):
    env = rec["environment"]
    return {k: env.get(k) for k in ("nproc", "python", "numpy", "scipy", "blas",
                                    "blas_threads", "machine")}


def pool(parent, change):
    """(workloads, units, machine records) over the pairs both sides ran."""
    workloads, units, machines = {}, {}, []
    for name in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[name]["runs"]) & set(change[name]["runs"]))
        if not seeds:
            continue
        entry = {"pairs": len(seeds)}
        for side, data in zip(SIDES, (parent[name], change[name])):
            runs = [data["runs"][s] for s in seeds]
            values = {}
            for rec in runs:
                for metric, m in rec["metrics"].items():
                    units[metric] = m["unit"]
                    values.setdefault(metric, []).append(round(m["value"], 4))
                if machine(rec) not in machines:
                    machines.append(machine(rec))
            layers = {}
            for rec in data["traced"]:
                for metric, m in rec["metrics"].items():
                    units[metric] = m["unit"]
                    layers.setdefault(metric, []).append(m["value"])
            entry[side] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "runs": values,
                "quartiles": {k: quartiles(v) for k, v in values.items()},
                "traced_runs": len(data["traced"]),
                "traced": {k: {"median": statistics.median(v),
                               "range": [min(v), max(v)]}
                           for k, v in layers.items()},
            }
        p, c = entry["parent"]["runs"], entry["change"]["runs"]
        entry["change_over_parent"] = {
            k: round(statistics.median(c[k]) / statistics.median(p[k]), 4)
            for k in p if statistics.median(p[k])}
        entry["change_wins"] = {k: sum(b < a for a, b in zip(p[k], c[k]))
                                for k in p}
        qp, qc = entry["parent"]["quartiles"], entry["change"]["quartiles"]
        entry["median_gain"] = {k: round(qp[k][1] - qc[k][1], 4) for k in p}
        entry["parent_iqr"] = {k: round(qp[k][2] - qp[k][0], 4) for k in p}
        entry["marks"] = {k: marks(entry, k) for k in p}
        tp, tc = entry["parent"]["traced"], entry["change"]["traced"]
        entry["traced_change_over_parent"] = {
            k: round(tc[k]["median"] / tp[k]["median"], 4)
            for k in tp if k in tc and tp[k]["median"]}
        workloads[name] = entry
    return workloads, units, machines


def marks(entry, k):
    """The printed table's marks of metric k (see the module docstring)."""
    out = []
    if (10 * entry["change_wins"][k] >= 9 * entry["pairs"]
            and entry["median_gain"][k] > entry["parent_iqr"][k]):
        out.append("*")
    bound = BOUNDS.get(k)
    if bound is not None:
        median = entry["parent"]["quartiles"][k][1]
        if entry["change"]["quartiles"][k][1] > median * (1 + bound):
            out.append("worse")
        if entry["parent_iqr"][k] > bound * median:
            out.append("unresolved")
    return out


def criterion_1(sources):
    """Criterion 1 per side: every run and the median of each figure."""
    out = {"what": "acceptance criterion 1 (16x16 sites, cutoff M = 6) in a "
                   f"fresh process per run, {CRITERION_1_RUNS} runs per side, "
                   "alternating",
           **{side: {"runs": []} for side in SIDES}}
    src = {side: str(Path(path).resolve()) for side, path in zip(SIDES, sources)}
    for r in range(CRITERION_1_RUNS):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            env = dict(os.environ, PYTHONPATH=src[side], OPENBLAS_NUM_THREADS="2",
                       OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
            proc = subprocess.run([sys.executable, "-c", CRITERION_1], env=env,
                                  capture_output=True, text=True, check=True)
            out[side]["runs"].append(json.loads(proc.stdout.splitlines()[-1]))
    for side in SIDES:
        rs = out[side]["runs"]
        out[side]["median"] = {k: round(statistics.median(r[k] for r in rs), 4)
                               for k in rs[0]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="the parent's .perfbench/results directory")
    ap.add_argument("change", help="the change's .perfbench/results directory")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--what", default="", help="what the two sides are")
    ap.add_argument("--a-a", metavar="COPY_RESULTS",
                    help="results of a second clean copy of the parent")
    ap.add_argument("--criterion-1", nargs=2, metavar=("PARENT_SRC", "CHANGE_SRC"),
                    help="src/ directories of the two checkouts")
    args = ap.parse_args(argv)

    parent = load(args.parent)
    workloads, units, machines = pool(parent, load(args.change))
    record = {"what": args.what, "units": units, "workloads": workloads}
    tables = [("", workloads)]
    if args.a_a:
        a_a, _, more = pool(parent, load(args.a_a))
        record["a_a"] = {"what": "the parent against a second clean copy of it "
                                 "(\"change\" is the copy)", "workloads": a_a}
        machines += [m for m in more if m not in machines]
        tables.append(("A/A ", a_a))
    if args.criterion_1:
        record["criterion_1"] = criterion_1(args.criterion_1)
    record["machine"] = machines[0] if len(machines) == 1 else machines
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for label, table in tables:
        for name, entry in table.items():
            print(f"{label + name:18s} pairs {entry['pairs']:2d}  " + "  ".join(
                f"{k} {r:.3f} ({entry['change_wins'][k]})" + "".join(
                    m if m == "*" else f" {m}" for m in entry["marks"][k])
                for k, r in entry["change_over_parent"].items()))
    print("ratio change/parent of the medians (pairs the change reads lower); "
          "* lower in >= 9 of 10 pairs and median gain > the parent's "
          "interquartile spread; worse: median beyond the bound; "
          "unresolved: the parent's spread beyond the bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
