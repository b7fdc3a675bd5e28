#!/usr/bin/env bash
# CI entry point: the ROADMAP tier-1 verify, the end-to-end benchmark's
# smoke replay (its output checks gate every change), a traced telemetry
# smoke run
# (Chrome trace + BENCH_*.json report validated with python3), a
# socket-transport pass over the distributed layer (the same binaries
# re-run with every Network on the loopback socket backend -- results must
# be bit-identical), then an
# ASan/UBSan Debug pass over the unit/integration suite (plus the socket
# pass under ASan, which also leak-checks the fd/buffer handling), then a
# ThreadSanitizer Debug pass over the distributed layer (the parallel site
# executor and the determinism contract of DistributedSystem::Run).
#
# Usage: ci/build_and_test.sh [--skip-sanitize]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_SANITIZE=0
[[ "${1:-}" == "--skip-sanitize" ]] && SKIP_SANITIZE=1

echo "==> Docs: intra-repo markdown links in README/ROADMAP/docs resolve"
check_links() {
  local fail=0 f target path
  for f in README.md ROADMAP.md docs/*.md; do
    [[ -e "$f" ]] || continue
    while IFS= read -r target; do
      [[ -z "$target" ]] && continue
      case "$target" in
        http://* | https://* | mailto:* | "#"*) continue ;;
      esac
      path="${target%%#*}"
      [[ -z "$path" ]] && continue
      if [[ ! -e "$(dirname "$f")/$path" ]]; then
        echo "broken link in $f: ($target)"
        fail=1
      fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//')
  done
  return "$fail"
}
check_links || { echo "Docs link check FAILED"; exit 1; }

echo "==> Static analysis: -Werror build, repo lint, clang stages if present"
ci/static_analysis.sh

echo "==> Tier-1: Release build + full ctest (tests, bench smoke)"
cmake -B build -S .
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "==> End-to-end benchmark: smoke replay of every workload"
# e2ebench/ builds the system from src/ on its own (e2ebench/README.md).
# The smoke test replays all four workloads once, untraced and traced, at a
# short horizon, and fails on any output check: results bit-identical
# across repetitions and Q1+Q2 alert F1 >= 75%.
cmake -S e2ebench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build -j "${JOBS}"
ctest --test-dir .bench_build --output-on-failure -R smoke_bench_e2e

echo "==> Telemetry: traced smoke bench + machine-readable report validate"
# One traced run of the comm-cost bench: the Chrome trace must be valid
# JSON with trace slices, and the run report must carry the phase
# histograms and per-kind wire counters (the observability contract).
# It runs at 1800 epochs (~8 s on 4 cores): under the 900-epoch smoke cap
# no object migrates, and the only wire counters are the directory's.
(cd build && RFID_TRACE=trace_ci.json RFID_BENCH_MAX_HORIZON=1800 \
  ./bench_table5_comm_cost >/dev/null)
python3 - <<'EOF'
import json
trace = json.load(open("build/trace_ci.json"))
events = trace["traceEvents"]
slices = [e for e in events if e.get("ph") == "X"]
assert trace["displayTimeUnit"] == "ms"
assert slices, "trace has no duration slices"
assert all("epoch" in e["args"] for e in slices)
report = json.load(open("build/BENCH_table5_comm_cost.json"))
assert report["report_version"] == 1
hists = report["metrics"]["histograms"]
assert hists["phase/inference"]["count"] > 0
assert any(k.startswith("phase/") and hists[k]["p99"] is not None
           for k in hists)
counters = report["metrics"]["counters"]
assert any(k.startswith("net/bytes/kind=") for k in counters)
assert counters["net/bytes/kind=inference_state"] > 0
print("trace: %d slices; report: %d histograms, %d counters -- OK"
      % (len(slices), len(hists), len(counters)))
EOF
rm -f build/trace_ci.json

echo "==> Socket transport: distributed suites over real loopback sockets"
# smoke_bench_hierarchical rides along: the hierarchical replay's own
# {in-process, socket} x threads determinism matrix, re-run with every
# Network defaulting to the socket backend. durability_test runs the
# durable crash-recovery sweep over sockets.
(cd build && RFID_TRANSPORT=socket \
  ctest --output-on-failure \
  -R '^(dist_test|executor_test|frame_test|fault_test|durability_test|smoke_bench_hierarchical)$')

echo "==> Faults: lossy replay (drop 0.05 + reorder + one durable crash)"
# The fault-sweep bench on the real lossy fabric: the run must complete,
# accuracy must stay finite (the crash row records error_is_finite), the
# retransmit counters must be nonzero wherever frames were dropped, every
# row must report exactly-once convergence, and the crashed site must have
# recovered from its own checkpoint + WAL, re-feeding at least one WAL
# frame. It runs at its published horizon (~5 s on 4 cores): under the
# 900-epoch smoke cap no pallet leaves the source site (shelf_stay 1200),
# so the crash victim (the busiest migration target) falls back to site 0,
# which has received nothing to replay.
(cd build && env -u RFID_BENCH_MAX_HORIZON ./bench_fault_sweep >/dev/null)
python3 - <<'EOF'
import json, math
report = json.load(open("build/BENCH_fault.json"))
sweep = report["rows"]["sweep"]
assert sweep, "fault sweep produced no rows"
for row in sweep:
    err = row["containment_error_percent"]
    assert err is not None and not math.isnan(err), row
    assert row["all_delivered"], row
    if row["drop"] > 0:
        assert row["fault_drops"] > 0, row
        assert row["retransmits"] > 0, row
        assert row["ack_bytes"] > 0, row
crash = report["rows"]["crash"][0]
assert crash["crashes"] >= 1
assert crash["recoveries"] == crash["crashes"], crash
assert crash["checkpoints"] > 0, crash
assert crash["replayed_frames"] > 0, crash
assert crash["error_is_finite"]
assert crash["retransmits"] > 0
assert crash["all_delivered"], crash
print("fault sweep: %d rows + crash scenario (err=%.2f%%) -- OK"
      % (len(sweep), crash["containment_error_percent"]))
EOF

echo "==> Durability: durable example replay + its on-disk layout"
# A real replay with durable sites (checkpoints + frame WAL) into a fresh
# scratch directory -- a replay needs an unused one -- then a check of
# what it leaves on disk: every site directory holds at least one WAL
# segment, one or two checkpoints (the newest two are retained), and no
# temp file of the checkpoint write-then-rename. The env var is scoped to
# this one run.
DUR_DIR="$(mktemp -d)"
(cd build && RFID_DURABILITY_DIR="${DUR_DIR}" RFID_DURABILITY_FSYNC=off \
  ./supply_chain_distributed >/dev/null)
python3 - "${DUR_DIR}" <<'EOF'
import glob, os, sys
sites = sorted(glob.glob(os.path.join(sys.argv[1], "site_*")))
assert sites, "durable replay left no site directory"
for site in sites:
    names = os.listdir(site)
    wal = [n for n in names if n.startswith("wal_") and n.endswith(".log")]
    ckpt = [n for n in names
            if n.startswith("checkpoint_") and n.endswith(".ckpt")]
    tmp = [n for n in names if n.endswith(".tmp")]
    assert wal, f"{site}: no WAL segment"
    assert 1 <= len(ckpt) <= 2, f"{site}: {len(ckpt)} checkpoints"
    assert not tmp, f"{site}: temp files left: {tmp}"
print("durability: %d site directories hold WAL segments and 1-2 "
      "checkpoints -- OK" % len(sites))
EOF
rm -rf "${DUR_DIR}"

if [[ "${SKIP_SANITIZE}" == "1" ]]; then
  echo "==> Skipping sanitizer pass (--skip-sanitize)"
  exit 0
fi

echo "==> Debug + ASan/UBSan: unit and integration tests"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRFID_SANITIZE=ON
cmake --build build-asan -j "${JOBS}"
# Bench smoke targets are excluded here: sanitized EM over bench-scale
# workloads multiplies runtime without adding memory-safety coverage beyond
# what the test suite already drives.
(cd build-asan && ctest --output-on-failure -j "${JOBS}" -LE bench_smoke)
(cd build-asan && RFID_TRANSPORT=socket \
  ctest --output-on-failure \
  -R '^(dist_test|executor_test|frame_test|fault_test|durability_test)$')

echo "==> Debug + TSan: distributed executor + determinism + ONS tests"
# TSan and ASan cannot share a build; only the threaded code needs the
# data-race pass, so build and run just those binaries. inference_test
# runs the inference engine's loops on a 4-thread pool (pinned digest).
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRFID_TSAN=ON
# obs_test rides along: the metrics registry's lock-free hot path and
# concurrent-registration contract are exactly what TSan is for.
# durability_test too: durable checkpoints are encoded and written one
# site per pool item, which its four-thread crash sweep drives. Two
# single-threaded tests are left to the ASan pass, each minutes of TSan
# time with no second thread to race: the serial 36-cell crash sweep
# (num_threads = 0; ~150 s) and the envelope truncation/byte-flip
# enumeration (~30 s).
cmake --build build-tsan -j "${JOBS}" \
  --target dist_test executor_test inference_test fault_test ons_test \
  obs_test durability_test
(cd build-tsan && \
  GTEST_FILTER='-DurableReplayTest.CrashPointSweepIsBitIdenticalWithZeroPeerTraffic:WireTest.InferenceEnvelopeSurvivesEveryTruncationAndByteFlip' \
  ctest --output-on-failure \
  -R '^(dist_test|executor_test|inference_test|fault_test|ons_test|obs_test|durability_test)$')

echo "==> CI green"
