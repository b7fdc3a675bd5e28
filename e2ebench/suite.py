#!/usr/bin/env python3
"""Repeats the end-to-end benchmark and compares recorded result sets.

Suite mode runs the command of BENCHMARK.json on every workload, --repeat
times, interleaving workloads across repeats (w1 w2 .. w1 w2 ..) so that a
slow spell of the host lands on every workload instead of on one. For each
(workload, metric) it reports the median, the quartiles, and the relative
IQR (q3 - q1) / median, with quartiles as statistics.quantiles(n=4) gives
them, and records everything as one JSON file under e2ebench/results/:

    python3 e2ebench/suite.py --suite BENCHMARK.json --repeat 5 --seed 1
    python3 e2ebench/suite.py --suite BENCHMARK.json --repeat 10 --seed 1 \\
        --vary-seed --label seeds-1-10

--vary-seed uses seed S + r on repeat r (the spread over inputs); without
it every repeat uses seed S (the spread of the host). --trace 1 records the
per-layer metrics instead.

Compare mode applies each end-to-end metric's bound from BENCHMARK.json to
two result files, A (the parent) and B (the change):

    python3 e2ebench/suite.py --suite BENCHMARK.json --compare A.json B.json

A metric is a REGRESSION when B's median is worse than A's by more than
the bound, and "unresolved" when either side's relative IQR exceeds the
bound -- unless every B run is better than every A run. Rows are paired by
(workload, metric) name, never by position. Exits 1 on any regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(suite, workload, seed, trace):
    cmd = suite["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(suite["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"suite: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"suite: {workload} seed {seed}: output checks failed")
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / med if med else None}


def run_suite(args, suite):
    defs = suite["per_layer"] if args.trace else suite["end_to_end"]
    samples = {w["name"]: {d["name"]: [] for d in defs}
               for w in suite["workloads"]}
    failed = {w["name"]: 0 for w in suite["workloads"]}
    for r in range(args.repeat):
        seed = args.seed + r if args.vary_seed else args.seed
        for w in suite["workloads"]:
            start = time.monotonic()
            result = run_once(suite, w["name"], seed, args.trace)
            failed[w["name"]] += result["failed"]
            for d in defs:
                samples[w["name"]][d["name"]].append(
                    result["metrics"][d["name"]]["value"])
            print(f"[suite] repeat {r + 1}/{args.repeat} {w['name']} "
                  f"seed {seed}: {time.monotonic() - start:.1f} s",
                  flush=True)
    rows = []
    for w in suite["workloads"]:
        for d in defs:
            values = samples[w["name"]][d["name"]]
            row = {"workload": w["name"], "metric": d["name"],
                   "unit": d["unit"], "values": values}
            row.update(summarize(values))
            if "bound" in d:
                row.update(better=d["better"], bound=d["bound"])
            rows.append(row)
    label = args.label or datetime.now(timezone.utc).strftime(
        "%Y%m%d-%H%M%S")
    record = {
        "label": label,
        "recorded_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "repeat": args.repeat, "seed": args.seed,
        "vary_seed": args.vary_seed, "trace": args.trace,
        "run_seconds": suite["run_seconds"],
        "failed_operations": failed, "rows": rows,
    }
    os.makedirs(args.results_dir, exist_ok=True)
    path = os.path.join(args.results_dir, label + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"{'workload':20} {'metric':32} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'rel_iqr':>8} {'bound':>6}")
    for row in rows:
        flag = ""
        if "bound" in row and row["metric"] != "setup_s" and \
                row["rel_iqr"] > row["bound"] / 3:
            flag = "  spread > bound/3"
        rel_iqr = "-" if row["rel_iqr"] is None else f"{row['rel_iqr']:.4f}"
        print(f"{row['workload']:20} {row['metric']:32} "
              f"{row['median']:14.6g} {row['q1']:14.6g} {row['q3']:14.6g} "
              f"{rel_iqr:>8} {row.get('bound', ''):>6}{flag}")
    print(f"recorded {os.path.relpath(path, ROOT)}")


def load_rows(path):
    with open(path) as f:
        return {(r["workload"], r["metric"]): r for r in json.load(f)["rows"]}


def compare(suite, path_a, path_b):
    bounds = {d["name"]: d for d in suite["end_to_end"]}
    a_rows = load_rows(path_a)
    b_rows = load_rows(path_b)
    regressions = 0
    print(f"{'workload':20} {'metric':32} {'A median':>14} {'B median':>14} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for key in sorted(a_rows.keys() & b_rows.keys()):
        metric = key[1]
        if metric not in bounds:
            continue
        a, b = a_rows[key], b_rows[key]
        bound = bounds[metric]["bound"]
        sign = 1.0 if bounds[metric]["better"] == "lower" else -1.0
        worse = sign * (b["median"] - a["median"]) / a["median"]
        b_always_better = max(sign * x for x in b["values"]) < \
            min(sign * x for x in a["values"])
        if worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        elif max(a["rel_iqr"], b["rel_iqr"]) > bound and not b_always_better:
            verdict = "unresolved"
        elif b_always_better and -worse > max(a["rel_iqr"], b["rel_iqr"]):
            verdict = "better"
        else:
            verdict = "no regression"
        print(f"{key[0]:20} {metric:32} {a['median']:14.6g} "
              f"{b['median']:14.6g} {worse:+9.2%} {bound:6.2f}  {verdict}")
    missing = sorted(a_rows.keys() ^ b_rows.keys())
    for key in missing:
        print(f"{key[0]:20} {key[1]:32} present in only one file")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--suite", default=os.path.join(ROOT, "BENCHMARK.json"))
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="")
    p.add_argument("--results-dir", default=os.path.join(HERE, "results"))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    with open(args.suite) as f:
        suite = json.load(f)
    if args.compare:
        return compare(suite, *args.compare)
    if args.repeat < 2:
        p.error("--repeat must be at least 2 to estimate a spread")
    run_suite(args, suite)
    return 0


if __name__ == "__main__":
    sys.exit(main())
