#!/usr/bin/env python3
"""Bench orchestrator: warmup + repeat-N-take-median wrapper over the
BENCH_*.json-emitting bench binaries, with a tracked results trajectory.

Protocol per bench:
  1. run the binary --warmup times (discarded; warms page cache, JIT-free
     but still settles CPU frequency/thermals),
  2. run it --repeat times, parsing BENCH_<name>.json after each run,
  3. aggregate: numeric row fields become the median across repeats
     (non-numeric fields must agree across repeats or the run fails --
     a config field that drifts between repeats is a bug, not noise),
  4. validate the merged report against the report_version-1 schema,
  5. copy it into --results-dir keyed by UTC date + git commit and append
     one summary line to trajectory.jsonl.

Regression policy: if the previous tracked result for a bench has a row
with an epochs_per_sec (or items_per_second) field that is >10% faster
than this run, print a WARNING -- never a failure; machines differ, CI
boxes doubly so. Hard failures are reserved for missing binaries, crashed
benches, and schema violations.

--git-commit REF builds REF in an isolated git worktree and runs the same
protocol there, printing a side-by-side comparison and recording both
points in the trajectory (labelled by their commits).

Examples:
  tools/bench/run_benchmarks.py --bench epoch_rate
  tools/bench/run_benchmarks.py --quick --bench epoch_rate \
      --results-dir /tmp/r            # CI smoke: no tracked writes
  tools/bench/run_benchmarks.py --bench epoch_rate --git-commit HEAD~1
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone

REPORT_VERSION = 1
DEFAULT_BENCHES = ["epoch_rate"]
RATE_FIELDS = ("epochs_per_sec", "items_per_second", "readings_per_sec")
REGRESSION_THRESHOLD = 0.10


def log(msg):
    print(f"[bench] {msg}", flush=True)


def fail(msg):
    print(f"[bench] ERROR: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def git(args, cwd):
    return subprocess.run(["git"] + args, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def current_commit(repo_root):
    try:
        return git(["rev-parse", "--short=12", "HEAD"], repo_root)
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "nogit"


def validate_schema(report, bench):
    """Report_version-1 shape (src/obs/report.h). Returns error or None."""
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if report.get("report_version") != REPORT_VERSION:
        return f"report_version != {REPORT_VERSION}"
    if report.get("bench") != bench:
        return f"bench field {report.get('bench')!r} != {bench!r}"
    rows = report.get("rows")
    if not isinstance(rows, dict) or not rows:
        return "rows missing or empty"
    for section, entries in rows.items():
        if not isinstance(entries, list) or not entries:
            return f"rows[{section!r}] is not a non-empty list"
        for entry in entries:
            if not isinstance(entry, dict):
                return f"rows[{section!r}] entry is not an object"
    return None


def run_bench_once(binary, cwd, env, pin):
    cmd = [binary]
    if pin:
        taskset = shutil.which("taskset")
        if taskset is None:
            fail("--pin requested but taskset is not available")
        cmd = [taskset, "-c", pin] + cmd
    proc = subprocess.run(cmd, cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{os.path.basename(binary)} exited {proc.returncode}")
    return proc.stdout


def merge_median(reports):
    """Median-merges the repeat runs' reports.

    Numeric row fields -> median across repeats; bools and strings must
    be identical across repeats. Top-level scalars and metrics come from
    the first run (they describe configuration, not timing).
    """
    merged = json.loads(json.dumps(reports[0]))  # deep copy
    for section, entries in merged["rows"].items():
        for i, entry in enumerate(entries):
            for key, value in entry.items():
                samples = [r["rows"][section][i][key] for r in reports]
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    if any(s != value for s in samples):
                        fail(f"non-numeric field rows[{section}][{i}]"
                             f".{key} drifted across repeats: {samples}")
                    continue
                entry[key] = statistics.median(samples)
    return merged


def run_protocol(bench, build_dir, warmup, repeat, pin, env_extra):
    binary = os.path.join(build_dir, f"bench_{bench}")
    if not os.path.isfile(binary):
        fail(f"bench binary not found: {binary} (build it first)")
    env = dict(os.environ)
    env.update(env_extra)
    for i in range(warmup):
        log(f"{bench}: warmup {i + 1}/{warmup}")
        run_bench_once(binary, build_dir, env, pin)
    reports = []
    report_path = os.path.join(build_dir, f"BENCH_{bench}.json")
    for i in range(repeat):
        log(f"{bench}: repeat {i + 1}/{repeat}")
        run_bench_once(binary, build_dir, env, pin)
        try:
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read {report_path}: {e}")
        err = validate_schema(report, bench)
        if err:
            fail(f"{report_path}: schema violation: {err}")
        reports.append(report)
    return merge_median(reports)


def rate_rows(report):
    """(section, label, field, value) for every rate field in the report.

    Rows pair across reports by (section, label), so a renamed or dropped
    configuration is never compared against a different one that happens
    to sit at the same index."""
    out = []
    for section, entries in report.get("rows", {}).items():
        for i, entry in enumerate(entries):
            for field in RATE_FIELDS:
                if isinstance(entry.get(field), (int, float)):
                    out.append((section, entry.get("label", str(i)),
                                field, float(entry[field])))
                    break  # one rate per row
    return out


def previous_result(results_dir, bench):
    bench_dir = os.path.join(results_dir, bench)
    if not os.path.isdir(bench_dir):
        return None, None
    names = sorted(n for n in os.listdir(bench_dir) if n.endswith(".json"))
    if not names:
        return None, None
    path = os.path.join(bench_dir, names[-1])
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), names[-1]
    except (OSError, json.JSONDecodeError):
        return None, None


def check_regression(bench, merged, results_dir):
    prev, prev_name = previous_result(results_dir, bench)
    if prev is None:
        log(f"{bench}: no previous tracked result; skipping regression "
            "check")
        return
    prev_rates = {(s, label): v for s, label, _, v in rate_rows(prev)}
    warned = False
    compared = 0
    for s, label, field, now in rate_rows(merged):
        before = prev_rates.get((s, label))
        if before is None or before <= 0:
            continue
        compared += 1
        drop = (before - now) / before
        if drop > REGRESSION_THRESHOLD:
            warned = True
            log(f"WARNING: {bench} [{s}] '{label}' {field} regressed "
                f"{100 * drop:.1f}% vs {prev_name} "
                f"({before:.1f} -> {now:.1f})")
    if compared == 0:
        log(f"{bench}: no row label matches {prev_name}; nothing compared")
    elif not warned:
        log(f"{bench}: no >{100 * REGRESSION_THRESHOLD:.0f}% regression "
            f"over {compared} row(s) vs {prev_name}")


def record_result(bench, merged, results_dir, commit, utc_date, label=None):
    bench_dir = os.path.join(results_dir, bench)
    os.makedirs(bench_dir, exist_ok=True)
    suffix = f"_{label}" if label else ""
    name = f"{utc_date}_{commit}{suffix}.json"
    path = os.path.join(bench_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=False)
        f.write("\n")
    log(f"{bench}: tracked result -> {path}")
    line = {
        "utc_date": utc_date,
        "commit": commit,
        "bench": bench,
        "rates": {f"{s}/{label_}/{field}": v
                  for s, label_, field, v in rate_rows(merged)},
    }
    with open(os.path.join(results_dir, "trajectory.jsonl"), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def build_worktree(repo_root, ref, benches):
    """Checks out `ref` into a temp worktree and builds the benches."""
    tmp = tempfile.mkdtemp(prefix="rfid-bench-")
    wt = os.path.join(tmp, "wt")
    log(f"building {ref} in isolated worktree {wt}")
    subprocess.run(["git", "worktree", "add", "--detach", wt, ref],
                   cwd=repo_root, check=True)
    build = os.path.join(wt, "build")
    subprocess.run(["cmake", "-B", build, "-S", wt,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    targets = []
    for b in benches:
        targets += ["--target", f"bench_{b}"]
    subprocess.run(["cmake", "--build", build, "-j"] + targets, check=True,
                   stdout=subprocess.DEVNULL)
    return tmp, wt, build


def remove_worktree(repo_root, tmp, wt):
    subprocess.run(["git", "worktree", "remove", "--force", wt],
                   cwd=repo_root, check=False)
    shutil.rmtree(tmp, ignore_errors=True)


def compare(bench, ours, theirs, ref):
    log(f"{bench}: HEAD vs {ref}")
    theirs_rates = {(s, label): v for s, label, _, v in rate_rows(theirs)}
    for s, label, field, now in rate_rows(ours):
        before = theirs_rates.get((s, label))
        if before is None or before <= 0:
            continue
        delta = 100.0 * (now - before) / before
        log(f"  [{s}] {label}: {field} {before:.1f} -> {now:.1f} "
            f"({delta:+.1f}%)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--bench", action="append", default=None,
                    help=f"bench name (repeatable); default "
                         f"{DEFAULT_BENCHES}")
    ap.add_argument("--warmup", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: warmup 1, repeat 3, capped horizon")
    ap.add_argument("--pin", default=None,
                    help="CPU list for taskset -c (e.g. '0-3')")
    ap.add_argument("--results-dir", default="bench/results")
    ap.add_argument("--git-commit", default=None,
                    help="also build+run this ref in a worktree and "
                         "compare")
    ap.add_argument("--max-horizon", type=int, default=None,
                    help="sets RFID_BENCH_MAX_HORIZON for every run")
    ap.add_argument("--scale", type=int, default=None,
                    help="sets RFID_BENCH_SCALE for every run")
    ap.add_argument("--no-record", action="store_true",
                    help="skip the tracked copy + trajectory append")
    args = ap.parse_args()

    benches = args.bench or DEFAULT_BENCHES
    warmup, repeat = args.warmup, args.repeat
    env_extra = {}
    if args.quick:
        warmup, repeat = 1, 3
        env_extra.setdefault("RFID_BENCH_MAX_HORIZON", "900")
    if args.max_horizon is not None:
        env_extra["RFID_BENCH_MAX_HORIZON"] = str(args.max_horizon)
    if args.scale is not None:
        env_extra["RFID_BENCH_SCALE"] = str(args.scale)

    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    build_dir = os.path.abspath(args.build_dir)
    results_dir = os.path.abspath(args.results_dir)
    commit = current_commit(repo_root)
    utc_date = datetime.now(timezone.utc).strftime("%Y%m%d")
    log(f"commit={commit} utc={utc_date} warmup={warmup} repeat={repeat} "
        f"env={env_extra or '{}'}")

    baseline = None
    if args.git_commit:
        tmp, wt, ref_build = build_worktree(repo_root, args.git_commit,
                                            benches)
        try:
            baseline = {}
            for bench in benches:
                baseline[bench] = run_protocol(bench, ref_build, warmup,
                                               repeat, args.pin, env_extra)
        finally:
            remove_worktree(repo_root, tmp, wt)

    for bench in benches:
        merged = run_protocol(bench, build_dir, warmup, repeat, args.pin,
                              env_extra)
        merged["orchestrator"] = {
            "warmup": warmup,
            "repeat": repeat,
            "pin": args.pin,
            "commit": commit,
            "utc_date": utc_date,
            "env": env_extra,
        }
        check_regression(bench, merged, results_dir)
        if baseline is not None:
            ref_commit = git(["rev-parse", "--short=12", args.git_commit],
                             repo_root)
            compare(bench, merged, baseline[bench], args.git_commit)
            if not args.no_record:
                baseline[bench]["orchestrator"] = {
                    "warmup": warmup, "repeat": repeat, "pin": args.pin,
                    "commit": ref_commit, "utc_date": utc_date,
                    "env": env_extra,
                }
                record_result(bench, baseline[bench], results_dir,
                              ref_commit, utc_date, label="ref")
        if not args.no_record:
            record_result(bench, merged, results_dir, commit, utc_date)
    log("done")


if __name__ == "__main__":
    main()
