// Section 5.3 scalability, two views.
//
// 1. Per-inference-run time as the number of resident items per warehouse
//    grows, for the static-shelf-reader deployment and the mobile-reader
//    deployment (one reader sweeping the aisle, 10 s per shelf). A
//    deployment "keeps up with stream speed" when one inference run
//    completes within the 300 s inference period. Paper's result: 150,000
//    items/warehouse sustainable with static readers (1.5M over 10
//    warehouses); 1.21M items/warehouse with a mobile reader (12.1M over
//    10), because mobile scanning thins the shelf readings.
//
// 2. The replay itself: wall-clock of the bulk-synchronous
//    DistributedSystem::Run as worker threads grow, for several site
//    counts, in distributed and centralized mode. Threads run sites'
//    windows concurrently and split each inference run's E-step, M-step
//    and evidence scan, so even the one centralized server gains from
//    them; alerts, accuracy and byte accounting stay bit-identical to the
//    serial replay, and the bench exits nonzero when any row's bytes or
//    mean error differ from its mode's serial row. Site imbalance (max
//    over mean of per-site inference seconds) shows how far one site's
//    inference dominates. Each run rewrites BENCH_scalability.json with
//    its machine-readable sweep. End-to-end rates with spread come from
//    e2ebench/suite.py, not from this sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "dist/distributed.h"

namespace rfid {
namespace {

SupplyChainConfig ScaledWarehouse(int pallets_per_injection, bool mobile,
                                  uint64_t seed) {
  SupplyChainConfig cfg = bench::SingleWarehouse(0.8, /*horizon=*/1200, seed);
  cfg.shelves_per_warehouse = 12;
  cfg.pallets_per_injection = pallets_per_injection;
  if (mobile) {
    cfg.schedule.mobile_dwell = 10;  // 10 s per shelf, one sweeping reader
  }
  return cfg;
}

/// Linear chain of `sites` warehouses with steady cross-site pallet flow:
/// the workload of the threads-vs-sites replay sweep.
SupplyChainConfig ChainOfSites(int sites, uint64_t seed) {
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

struct ReplayResult {
  double seconds = 0.0;
  int64_t total_bytes = 0;
  double avg_error = 0.0;
  /// Max over mean of the per-site inference seconds (1 = even).
  double site_imbalance = 0.0;
};

ReplayResult RunReplay(const SupplyChainSim& sim, ProcessingMode mode,
                       int num_threads, bool collect_metrics = true) {
  DistributedOptions opts;
  opts.mode = mode;
  opts.site.migration = MigrationMode::kCollapsed;
  opts.site.streaming.inference_period = 300;
  opts.site.streaming.recent_history = 400;
  opts.num_threads = num_threads;
  // The sweep runs dozens of replays; none of them should fight over one
  // RFID_TRACE file (bench_table5 owns the representative trace).
  opts.trace = false;
  opts.collect_metrics = collect_metrics;
  DistributedSystem sys(&sim, opts);
  Stopwatch timer;
  sys.Run();
  ReplayResult r;
  r.seconds = timer.ElapsedSeconds();
  r.total_bytes = sys.network().total_bytes();
  r.avg_error = sys.AverageContainmentErrorPercent();
  double busy = 0.0;
  double max_busy = 0.0;
  for (SiteId s = 0; s < sys.num_processors(); ++s) {
    const double t = sys.site(s).streaming().total_inference_seconds();
    busy += t;
    max_busy = std::max(max_busy, t);
  }
  r.site_imbalance = busy > 0.0 ? max_busy * sys.num_processors() / busy : 0.0;
  return r;
}

int Main() {
  bench::PrintHeader("Section 5.3: scalability",
                     "per-run inference time vs resident items; replay "
                     "wall-clock vs worker threads");
  TablePrinter table({"Deployment", "Items", "Readings", "Time/run(s)",
                      "Keeps up (<300s)"});
  for (bool mobile : {false, true}) {
    for (int ppi : {1, 2, 4}) {
      SupplyChainSim sim(
          ScaledWarehouse(ppi * bench::Scale(), mobile,
                          9000 + static_cast<uint64_t>(ppi)));
      sim.Run();
      StreamingOptions opts;
      opts.truncation = TruncationMethod::kCriticalRegion;
      opts.recent_history = 500;
      StreamingInference si(&sim.model(), &sim.schedule(), opts);
      for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
      si.AdvanceTo(sim.config().horizon);
      const double per_run =
          si.runs() > 0 ? si.total_inference_seconds() / si.runs() : 0.0;
      table.AddRow({mobile ? "mobile" : "static",
                    std::to_string(sim.all_items().size()),
                    std::to_string(sim.total_readings()),
                    TablePrinter::Fmt(per_run, 3),
                    per_run < 300.0 ? "yes" : "no"});
    }
  }
  table.Print();
  std::printf(
      "expected shape: time per run grows roughly linearly with items;\n"
      "the mobile deployment produces far fewer shelf readings per item,\n"
      "so it sustains a larger population at the same per-run budget\n"
      "(the paper: 150k items/warehouse static vs 1.21M mobile).\n\n");

  // ---- Replay: mode x sites x threads ----
  std::printf("--- replay: wall-clock vs worker threads ---\n");
  std::printf("hardware concurrency: %u\n",
              std::thread::hardware_concurrency());
  TablePrinter dist_table({"Mode", "Sites", "Threads", "Wall(s)", "Epochs/s",
                           "Speedup", "Imbalance", "Bytes",
                           "Deterministic"});
  // The replay sweep honors RFID_TRANSPORT, so the same binary measures
  // the in-process fabric or the loopback socket backend.
  const std::string transport = ToString(TransportKindFromEnv());
  std::printf("transport backend: %s\n", transport.c_str());
  obs::RunReport report = bench::MakeReport("scalability");
  int diverged = 0;
  for (int sites : {4, 8}) {
    SupplyChainSim sim(ChainOfSites(sites, 9100 + static_cast<uint64_t>(
                                               sites)));
    sim.Run();
    const Epoch horizon = sim.config().horizon;
    for (ProcessingMode mode :
         {ProcessingMode::kDistributed, ProcessingMode::kCentralized}) {
      const ReplayResult serial = RunReplay(sim, mode, /*num_threads=*/0);
      for (int threads : {0, 1, 2, 4, 8}) {
        const ReplayResult r =
            threads == 0 ? serial : RunReplay(sim, mode, threads);
        const double eps = r.seconds > 0.0 ? horizon / r.seconds : 0.0;
        const double speedup =
            r.seconds > 0.0 ? serial.seconds / r.seconds : 0.0;
        // avg_error is NaN when a run recorded no accuracy samples; NaN !=
        // NaN, so compare it as "both NaN or bitwise equal".
        const bool same_error =
            r.avg_error == serial.avg_error ||
            (std::isnan(r.avg_error) && std::isnan(serial.avg_error));
        const bool deterministic =
            r.total_bytes == serial.total_bytes && same_error;
        if (!deterministic) ++diverged;
        dist_table.AddRow({ToString(mode), std::to_string(sites),
                           std::to_string(threads),
                           TablePrinter::Fmt(r.seconds, 3),
                           TablePrinter::Fmt(eps, 1),
                           TablePrinter::Fmt(speedup, 2),
                           TablePrinter::Fmt(r.site_imbalance, 2),
                           std::to_string(r.total_bytes),
                           deterministic ? "yes" : "NO"});
        obs::JsonValue row = obs::JsonValue::Object();
        row.Set("mode", ToString(mode));
        row.Set("sites", sites);
        row.Set("threads", threads);
        row.Set("seconds", r.seconds);
        row.Set("epochs_per_sec", eps);
        row.Set("speedup_vs_serial", speedup);
        row.Set("site_imbalance", r.site_imbalance);
        row.Set("total_bytes", r.total_bytes);
        row.Set("bytes_match_serial", r.total_bytes == serial.total_bytes);
        row.Set("matches_serial", deterministic);
        report.AddRow("replay", std::move(row));
      }
    }
  }
  dist_table.Print();
  std::printf(
      "expected shape: epochs/s grows with threads up to the core count in\n"
      "both modes -- sites' windows run concurrently and each inference\n"
      "run's E-step, M-step and evidence scan split across the pool -- so\n"
      "the centralized server gains too; what stays serial (trace sealing,\n"
      "query feeding, flush encoding) caps the speedup. Bytes and error\n"
      "stay bit-identical (the determinism contract): a row that differs\n"
      "from its mode's serial row fails the run.\n\n");
  if (diverged > 0) {
    std::fprintf(stderr,
                 "FAIL: %d replay row(s) differ from their serial row\n",
                 diverged);
  }

  // ---- Telemetry overhead: collect_metrics on vs off ----
  // The instrumentation budget is "<2% when off, low single digits when
  // on"; measure both against the larger sweep workload so EXPERIMENTS.md
  // can report a number instead of a promise. Alternating on/off reps
  // spreads thermal/cache drift across both sides.
  std::printf("--- telemetry overhead (8 sites, 4 threads) ---\n");
  {
    SupplyChainSim sim(ChainOfSites(8, 9108));
    sim.Run();
    constexpr int kReps = 3;
    OnlineStats on_s, off_s;
    for (int rep = 0; rep < kReps; ++rep) {
      on_s.Add(RunReplay(sim, ProcessingMode::kDistributed, 4,
                         /*collect_metrics=*/true)
                   .seconds);
      off_s.Add(RunReplay(sim, ProcessingMode::kDistributed, 4,
                          /*collect_metrics=*/false)
                    .seconds);
    }
    const double overhead_pct =
        off_s.Mean() > 0.0
            ? 100.0 * (on_s.Mean() - off_s.Mean()) / off_s.Mean()
            : 0.0;
    std::printf("telemetry on:  %s\n", on_s.Summary().c_str());
    std::printf("telemetry off: %s\n", off_s.Summary().c_str());
    std::printf("overhead with collection on: %.2f%%\n\n", overhead_pct);
    obs::JsonValue overhead = obs::JsonValue::Object();
    overhead.Set("reps", kReps);
    overhead.Set("telemetry_on_mean_seconds", on_s.Mean());
    overhead.Set("telemetry_off_mean_seconds", off_s.Mean());
    overhead.Set("overhead_percent", overhead_pct);
    report.AddRow("telemetry_overhead", std::move(overhead));
  }
  bench::FinishReport(report, "scalability");
  return diverged == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rfid

int main() { return rfid::Main(); }
