// Shared workload builders and runners for the per-figure/table bench
// binaries. Every bench prints the same rows/series the paper reports.
//
// Scale: the paper simulates 32,000 items per warehouse for 4 hours on
// 2011-era hardware. The default bench scale is reduced so the full suite
// completes in minutes; set RFID_BENCH_SCALE=2,4,... to grow the workload
// toward paper scale (items and horizon both grow). EXPERIMENTS.md records
// the scale every published number was measured at.
#ifndef RFID_BENCH_BENCH_COMMON_H_
#define RFID_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/smurf_star.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "dist/network.h"
#include "inference/calibration.h"
#include "inference/evaluate.h"
#include "inference/streaming.h"
#include "obs/report.h"
#include "sim/lab.h"
#include "sim/supply_chain.h"

namespace rfid {
namespace bench {

/// Workload multiplier from RFID_BENCH_SCALE (>= 1).
inline int Scale() {
  const char* env = std::getenv("RFID_BENCH_SCALE");
  if (env == nullptr) return 1;
  int v = std::atoi(env);
  return v < 1 ? 1 : v;
}

/// Optional horizon cap from RFID_BENCH_MAX_HORIZON. The ctest bench_smoke
/// targets set it so every figure/table driver is exercised end to end in
/// seconds; unset (or <= 0) leaves the published horizons untouched.
inline Epoch CapHorizon(Epoch horizon) {
  const char* env = std::getenv("RFID_BENCH_MAX_HORIZON");
  if (env == nullptr) return horizon;
  long v = std::atol(env);
  if (v <= 0) return horizon;
  return horizon < static_cast<Epoch>(v) ? horizon : static_cast<Epoch>(v);
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s (scale=%d; see EXPERIMENTS.md)\n",
              paper.c_str(), Scale());
}

/// Run report pre-filled with the fields every bench shares (scale,
/// transport backend, hardware concurrency), so BENCH_*.json files carry a
/// uniform header. Benches add their rows with AddRow and a system's
/// telemetry with `report.AddMetrics(sys.telemetry()->registry())`, then
/// FinishReport.
inline obs::RunReport MakeReport(const std::string& bench_name) {
  obs::RunReport report(bench_name);
  report.Set("scale", Scale());
  report.Set("transport", ToString(TransportKindFromEnv()));
  report.Set("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  return report;
}

/// Writes BENCH_<name>.json into the working directory. A write failure
/// costs the report, not the bench run.
inline void FinishReport(const obs::RunReport& report,
                         const std::string& bench_name) {
  const Status st = obs::WriteReport(report, bench_name);
  if (st.ok()) {
    std::printf("report: BENCH_%s.json\n", bench_name.c_str());
  } else {
    std::fprintf(stderr, "report not written: %s\n", st.ToString().c_str());
  }
}

/// Creates a fresh `<system temp>/<prefix>XXXXXX` directory (mkdtemp) for a
/// durable run's store; empty on failure. The caller removes it
/// (std::filesystem::remove_all) once the run is done.
inline std::string MakeScratchDir(const std::string& prefix) {
  std::string tmpl = std::filesystem::temp_directory_path().string() + "/" +
                     prefix + "XXXXXX";
  const char* got = mkdtemp(tmpl.data());
  return got != nullptr ? std::string(got) : std::string();
}

/// Single-warehouse workload approximating the paper's Appendix C.1 setup,
/// scaled. With the defaults and scale 1 this yields ~2,000 resident items.
inline SupplyChainConfig SingleWarehouse(double read_rate, Epoch horizon,
                                         uint64_t seed = 1) {
  horizon = CapHorizon(horizon);
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 8;
  cfg.cases_per_pallet = 5;     // Table 2: fixed
  cfg.items_per_case = 20;      // Table 2: fixed
  cfg.pallet_injection_interval = 60;  // Table 2: fixed
  cfg.pallets_per_injection = Scale();
  cfg.entry_dwell = 10;
  cfg.belt_time_per_case = 5;
  cfg.shelf_stay = horizon;  // stable-containment runs: items stay put
  cfg.exit_dwell = 10;
  cfg.read_rate.main = read_rate;
  cfg.read_rate.overlap = 0.5;  // Table 2 default
  cfg.horizon = horizon;
  cfg.seed = seed;
  return cfg;
}

/// Ten-warehouse supply chain (single-source DAG with layers 1-3-3-3),
/// scaled: the paper runs 32,000 items per warehouse for 4 hours; scale 1
/// keeps the same topology with fewer resident items and a shorter horizon.
inline SupplyChainConfig MultiWarehouse(double read_rate,
                                        Epoch anomaly_interval, Epoch horizon,
                                        uint64_t seed) {
  horizon = CapHorizon(horizon);
  SupplyChainConfig cfg;
  cfg.num_warehouses = 10;
  cfg.dag_layers = {1, 3, 3, 3};
  cfg.shelves_per_warehouse = 6;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 10;
  cfg.pallet_injection_interval = 60;
  cfg.pallets_per_injection = Scale();
  // Residence long relative to the 300 s inference period, as in the
  // paper's steady state; short dwells make every system look equally
  // blind to just-arrived items.
  cfg.shelf_stay = 1200;
  cfg.transit_time = 60;
  cfg.anomaly_interval = anomaly_interval;
  cfg.read_rate.main = read_rate;
  cfg.read_rate.overlap = 0.5;
  cfg.horizon = horizon;
  cfg.seed = seed;
  return cfg;
}

/// Lab-deployment workload (the Appendix C.2 traces T1..T8) with the smoke
/// horizon cap applied. Build lab benches through this instead of a raw
/// LabConfig so RFID_BENCH_MAX_HORIZON bounds lab replays too.
inline LabConfig LabWorkload(int trace_index, Epoch horizon, uint64_t seed) {
  LabConfig cfg;
  cfg.spec = LabSpecFor(trace_index);
  cfg.horizon = CapHorizon(horizon);
  cfg.seed = seed;
  return cfg;
}

/// Scores one engine run on a finished simulation.
struct SingleSiteScore {
  double containment_error = 0.0;
  double location_error = 0.0;
  double seconds = 0.0;
  size_t buffered = 0;
};

/// Tags that have been in the world for at least `min_age` at epoch `at`.
/// The paper evaluates a warehouse in steady state where just-arrived items
/// (still unpacked, not yet individually observed) are a negligible
/// fraction; at reduced bench scale they would dominate the error, so the
/// steady-state population is evaluated explicitly.
inline std::vector<TagId> SteadyStateTags(const GroundTruth& truth,
                                          const std::vector<TagId>& tags,
                                          Epoch at, Epoch min_age = 300) {
  std::vector<TagId> out;
  for (TagId tag : tags) {
    const auto& ivs = truth.IntervalsOf(tag);
    if (!ivs.empty() && ivs.front().begin + min_age <= at) {
      out.push_back(tag);
    }
  }
  return out;
}

/// Runs streaming inference with explicit options over a materialized
/// single-warehouse trace and scores it at the horizon.
inline SingleSiteScore RunSingleSiteWith(const SupplyChainSim& sim,
                                         const StreamingOptions& opts) {
  StreamingInference si(&sim.model(), &sim.schedule(), opts);
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  si.AdvanceTo(sim.config().horizon);

  SingleSiteScore score;
  score.seconds = si.total_inference_seconds();
  score.buffered = si.buffered_readings();
  const Epoch at = sim.config().horizon - 1;
  score.containment_error = ContainmentErrorPercentOf(
      [&](TagId o) { return si.ContainerOf(o); }, sim.truth(),
      SteadyStateTags(sim.truth(), sim.all_items(), at), at);
  std::vector<TagId> tags =
      SteadyStateTags(sim.truth(), sim.all_cases(), at);
  score.location_error = LocationErrorPercentOf(
      [&](TagId tag, Epoch t) { return si.LocationOf(tag, t); }, sim.truth(),
      tags, sim.config().horizon / 2, at, /*stride=*/20);
  return score;
}

/// Convenience wrapper selecting only the truncation method.
inline SingleSiteScore RunSingleSite(const SupplyChainSim& sim,
                                     TruncationMethod method,
                                     Epoch window_size = 1200,
                                     Epoch recent_history = 600,
                                     Epoch period = 300) {
  StreamingOptions opts;
  opts.truncation = method;
  opts.window_size = window_size;
  opts.recent_history = recent_history;
  opts.inference_period = period;
  return RunSingleSiteWith(sim, opts);
}

/// Converts simulator anomalies into scorable truth changes.
inline std::vector<TrueChange> TruthChanges(const SupplyChainSim& sim) {
  std::vector<TrueChange> out;
  for (const AnomalyRecord& a : sim.anomalies()) {
    out.push_back(TrueChange{a.time, a.item, a.to_case});
  }
  return out;
}

/// Change-detection run: streaming inference with change points enabled.
struct ChangeScore {
  double f_measure = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double seconds = 0.0;
  double seconds_per_run = 0.0;
};

inline ChangeScore RunChangeDetection(const SupplyChainSim& sim,
                                      Epoch recent_history, double threshold,
                                      Epoch period = 300,
                                      Epoch tolerance = 300) {
  StreamingOptions opts;
  opts.truncation = TruncationMethod::kCriticalRegion;
  opts.recent_history = recent_history;
  opts.inference_period = period;
  opts.detect_changes = true;
  opts.change_threshold = threshold;
  StreamingInference si(&sim.model(), &sim.schedule(), opts);
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  si.AdvanceTo(sim.config().horizon);

  ChangeScore score;
  FMeasure fm =
      ScoreChangeDetection(si.all_changes(), TruthChanges(sim), tolerance);
  score.f_measure = fm.Percent();
  score.precision = fm.Precision();
  score.recall = fm.Recall();
  score.seconds = si.total_inference_seconds();
  score.seconds_per_run =
      si.runs() > 0 ? score.seconds / si.runs() : 0.0;
  return score;
}

/// SMURF* change-detection score on the same workload.
inline ChangeScore RunSmurfStarChanges(const SupplyChainSim& sim,
                                       Epoch tolerance = 300) {
  SmurfStar star(&sim.schedule());
  Stopwatch timer;
  RFID_CHECK_OK(star.Run(sim.site_trace(0), 0, sim.config().horizon));
  ChangeScore score;
  score.seconds = timer.ElapsedSeconds();
  std::vector<ChangePointResult> reported;
  for (const SmurfStarChange& ch : star.changes()) {
    reported.push_back(
        ChangePointResult{ch.item, ch.time, kNoTag, ch.new_container, 0.0});
  }
  FMeasure fm = ScoreChangeDetection(reported, TruthChanges(sim), tolerance);
  score.f_measure = fm.Percent();
  score.precision = fm.Precision();
  score.recall = fm.Recall();
  return score;
}

/// Offline threshold calibration against a workload's model/schedule.
inline double CalibratedThreshold(const SupplyChainSim& sim,
                                  Epoch horizon = 600) {
  CalibrationConfig cfg;
  cfg.num_samples = 8;
  cfg.horizon = horizon;
  cfg.num_containers = 4;
  cfg.objects_per_container = 5;
  Rng rng(12345);
  return CalibrateChangeThreshold(sim.model(), sim.schedule(), cfg, rng);
}

}  // namespace bench
}  // namespace rfid

#endif  // RFID_BENCH_BENCH_COMMON_H_
