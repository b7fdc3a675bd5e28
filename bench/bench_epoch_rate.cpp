// Epoch rate: end-to-end replay throughput of the bulk-synchronous driver,
// measured as simulated epochs per wall-clock second, per processing mode
// at 0 and 4 executor threads, plus a durable-sites row that prices the
// WAL and checkpoints.
//
// Every configuration must agree with its mode's serial row on bytes and
// accuracy (the determinism contract); the bench verifies that while it
// times, so a row that got faster by diverging says "NO" instead of
// lying. RFID_BENCH_SCALE grows the workload (sites ~ 8x scale, tags ~
// thousands x scale: scale 16 is ~128 sites, scale ~40 reaches hundreds of
// sites and millions of readings). The run_benchmarks.py orchestrator
// wraps this binary with warmup + repeat-N-take-median and tracks the
// trajectory in bench/results/.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dist/distributed.h"

namespace rfid {
namespace {

/// Linear chain of `sites` warehouses with steady cross-site pallet flow.
SupplyChainConfig ChainWorkload(int sites, uint64_t seed) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = sites;
  cfg.shelves_per_warehouse = 6;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 10;
  cfg.pallets_per_injection = bench::Scale();
  cfg.shelf_stay = 600;
  cfg.transit_time = 60;
  cfg.read_rate.main = 0.8;
  cfg.read_rate.overlap = 0.5;
  cfg.horizon = bench::CapHorizon(2400);
  cfg.seed = seed;
  return cfg;
}

struct Config {
  ProcessingMode mode = ProcessingMode::kCentralized;
  int threads = 0;
  bool durable = false;
};

struct RunResult {
  double seconds = 0.0;
  int64_t total_bytes = 0;
  double avg_error = 0.0;
  int64_t wal_bytes = 0;
  int64_t wal_fsyncs = 0;
};

RunResult RunOnce(const SupplyChainSim& sim, const Config& cfg) {
  DistributedOptions opts;
  opts.mode = cfg.mode;
  opts.site.migration = MigrationMode::kCollapsed;
  opts.site.streaming.inference_period = 300;
  opts.site.streaming.recent_history = 400;
  opts.num_threads = cfg.threads;
  opts.trace = false;
  // Timed rows run without telemetry so the numbers measure the replay,
  // not the instrumentation.
  opts.collect_metrics = false;
  // Each run decides durability itself: ambient RFID_DURABILITY_DIR must
  // not silently turn every row durable (the baseline rows ARE the
  // overhead comparison).
  opts.durability.dir.clear();
  std::string scratch;
  if (cfg.durable) {
    scratch = bench::MakeScratchDir("rfid_bench_durable_");
    opts.durability.dir = scratch;
    // Timed with the default (kData) fsync policy: the honest cost of a
    // WAL append + one fdatasync per site per event.
    opts.durability.fsync = DurabilityOptions::FsyncPolicy::kData;
  }
  DistributedSystem sys(&sim, opts);
  Stopwatch timer;
  sys.Run();
  RunResult r;
  r.seconds = timer.ElapsedSeconds();
  r.total_bytes = sys.network().total_bytes();
  r.avg_error = sys.AverageContainmentErrorPercent();
  if (cfg.durable) {
    const DurabilityStats totals = sys.DurabilityTotals();
    r.wal_bytes = totals.wal_bytes + totals.checkpoint_bytes;
    r.wal_fsyncs = totals.wal_fsyncs;
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }
  return r;
}

int Main() {
  bench::PrintHeader("epoch rate: replay throughput by mode and threads",
                     "replay epochs/sec, serial vs 4 threads, plus durable "
                     "sites");
  const int sites = 8 * bench::Scale();
  SupplyChainSim sim(ChainWorkload(sites, 9901));
  sim.Run();
  const Epoch horizon = sim.config().horizon;
  std::printf("sites=%d horizon=%lld readings=%zu transport=%s\n", sites,
              static_cast<long long>(horizon), sim.total_readings(),
              ToString(TransportKindFromEnv()).c_str());

  struct Row {
    const char* label;
    Config cfg;
  };
  const std::vector<Row> rows = {
      {"cent serial", {ProcessingMode::kCentralized, 0, false}},
      {"cent 4t", {ProcessingMode::kCentralized, 4, false}},
      {"dist serial", {ProcessingMode::kDistributed, 0, false}},
      {"dist 4t", {ProcessingMode::kDistributed, 4, false}},
      // Durable sites (checkpoints + frame WAL + audit log, default fsync
      // policy): all disk-side, so bytes and accuracy must still match
      // the baseline exactly -- the row prices the WAL, it cannot change
      // the run. EXPERIMENTS.md tracks this row's overhead vs dist serial
      // (<5% target).
      {"dist serial durable", {ProcessingMode::kDistributed, 0, true}},
  };

  obs::RunReport report = bench::MakeReport("epoch_rate");
  report.Set("sites", sites);
  report.Set("horizon", static_cast<int64_t>(horizon));
  report.Set("readings", static_cast<int64_t>(sim.total_readings()));

  TablePrinter table({"Config", "Wall(s)", "Epochs/s", "Readings/s",
                      "Speedup", "Deterministic"});
  // Baseline per mode: the first (serial, non-durable) row is both the
  // speedup denominator and the determinism reference.
  RunResult base[2];
  RunResult dist_durable;
  for (const Row& row : rows) {
    const RunResult r = RunOnce(sim, row.cfg);
    if (row.cfg.durable) dist_durable = r;
    const size_t mode_i = row.cfg.mode == ProcessingMode::kCentralized ? 0 : 1;
    if (row.cfg.threads == 0 && !row.cfg.durable) base[mode_i] = r;
    const RunResult& b = base[mode_i];
    const double eps = r.seconds > 0.0 ? horizon / r.seconds : 0.0;
    const double rps = r.seconds > 0.0
                           ? static_cast<double>(sim.total_readings()) /
                                 r.seconds
                           : 0.0;
    const double speedup = r.seconds > 0.0 ? b.seconds / r.seconds : 0.0;
    const bool same_error =
        r.avg_error == b.avg_error ||
        (std::isnan(r.avg_error) && std::isnan(b.avg_error));
    const bool deterministic = r.total_bytes == b.total_bytes && same_error;
    table.AddRow({row.label, TablePrinter::Fmt(r.seconds, 3),
                  TablePrinter::Fmt(eps, 1), TablePrinter::Fmt(rps, 0),
                  TablePrinter::Fmt(speedup, 2),
                  deterministic ? "yes" : "NO"});
    obs::JsonValue j = obs::JsonValue::Object();
    j.Set("label", row.label);
    j.Set("mode", ToString(row.cfg.mode));
    j.Set("threads", row.cfg.threads);
    j.Set("durable", row.cfg.durable);
    if (row.cfg.durable) {
      j.Set("durable_bytes", r.wal_bytes);
      j.Set("wal_fsyncs", r.wal_fsyncs);
    }
    j.Set("seconds", r.seconds);
    j.Set("epochs_per_sec", eps);
    j.Set("readings_per_sec", rps);
    j.Set("speedup_vs_serial", speedup);
    j.Set("total_bytes", r.total_bytes);
    j.Set("matches_baseline", deterministic);
    report.AddRow("epoch_rate", std::move(j));
  }
  table.Print();
  if (base[1].seconds > 0.0 && dist_durable.seconds > 0.0) {
    const double overhead_pct =
        100.0 * (dist_durable.seconds / base[1].seconds - 1.0);
    std::printf(
        "durability overhead: %+.1f%% wall vs dist serial "
        "(%lld durable bytes, %lld fsyncs)\n",
        overhead_pct, static_cast<long long>(dist_durable.wal_bytes),
        static_cast<long long>(dist_durable.wal_fsyncs));
    report.Set("durable_overhead_pct", overhead_pct);
  }
  std::printf(
      "expected shape: centralized 4t beats centralized serial (the one\n"
      "server's E-step, M-step and evidence scan split across the pool);\n"
      "distributed 4t is bounded by the busiest site's window and the\n"
      "serial phases (EXPERIMENTS.md); every row stays deterministic vs\n"
      "its mode's serial row, including the durable row (the WAL is\n"
      "disk-side only).\n");
  bench::FinishReport(report, "epoch_rate");
  return 0;
}

}  // namespace
}  // namespace rfid

int main() { return rfid::Main(); }
