// Paper-fidelity gate: the reproduced headline numbers, each pinned inside
// a tolerance band around the value this tree produced while every run
// still covered every object a site had ever seen (EXPERIMENTS.md records
// the values before and after the run universe dropped departed objects).
// A change that moves inference output must keep every number inside its
// band:
//
//   containment error   at most the pinned value + 0.5 pp;
//   change F-measure    at least the pinned value - 2 pp;
//   byte ratio          within 5% of the pinned ratio.
//
// Every input is fixed here (seeds, horizons, scale), so no environment
// variable can change what the gate measures. The workloads are the
// benches' at short horizons, sized so the whole gate stays under a minute
// in a Debug + ASan/UBSan build.
#include <gtest/gtest.h>

#include <cmath>

#include "bench/bench_common.h"
#include "common/executor.h"
#include "dist/distributed.h"
#include "inference/evaluate.h"
#include "inference/streaming.h"
#include "sim/supply_chain.h"
#include "tests/long_stream.h"

namespace rfid {
namespace {

constexpr double kErrorSlackPp = 0.5;
constexpr double kFMeasureSlackPp = 2.0;
constexpr double kByteRatioSlack = 0.05;

// Results are identical at every thread count; the pool only keeps the
// sanitizer builds quick.
constexpr int kThreads = 4;

void ExpectErrorWithinBand(double measured, double pinned) {
  EXPECT_LE(measured, pinned + kErrorSlackPp) << "pinned " << pinned << "%";
}

// ---- The long stream: objects arrive and leave for 3000 epochs ----

TEST(FidelityTest, LongStreamErrorAndChangeDetection) {
  struct Pin {
    uint64_t seed;
    double error;      // mean containment error over the boundaries, %
    double f_measure;  // change points at tolerance 300, %
  };
  const Pin pins[] = {{5, 9.5966, 56.3380},
                      {6, 7.0536, 70.9677},
                      {7, 7.2284, 56.0000},
                      {35, 7.2644, 74.5763}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed);
    SupplyChainSim sim(LongStreamConfig(pin.seed, /*horizon=*/3000));
    sim.Run();
    const StreamingOptions opts = LongStreamOptions();
    StreamingInference si(&sim.model(), &sim.schedule(), opts);
    SiteExecutor pool(kThreads);
    si.set_pool(&pool);
    OnlineStats error;
    FeedByPeriod(sim, &si, opts.inference_period, [&](Epoch b) {
      const double e = ContainmentErrorPercentOf(
          [&](TagId o) { return si.ContainerOf(o); }, sim.truth(),
          sim.all_items(), b);
      if (std::isfinite(e)) error.Add(e);
    });
    ExpectErrorWithinBand(error.Mean(), pin.error);
    const FMeasure fm =
        ScoreChangeDetection(si.all_changes(), bench::TruthChanges(sim), 300);
    EXPECT_GE(fm.Percent(), pin.f_measure - kFMeasureSlackPp)
        << "pinned " << pin.f_measure << "%";
  }
}

// ---- Figure 5(a): batch error of the three truncation methods ----

// bench_fig5a's single warehouse (bench::SingleWarehouse at scale 1, seed
// 200), with 5 items per case instead of 20.
SupplyChainConfig Fig5aConfig(double read_rate) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 8;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 5;
  cfg.pallet_injection_interval = 60;
  cfg.horizon = 1500;
  cfg.shelf_stay = cfg.horizon;
  cfg.read_rate.main = read_rate;
  cfg.read_rate.overlap = 0.5;
  cfg.seed = 200;
  return cfg;
}

// bench::RunSingleSite's containment error (the whole trace in one feed,
// scored at the horizon over the items resident for 300 epochs), with the
// engine on a pool.
double BatchError(const SupplyChainSim& sim, TruncationMethod method) {
  StreamingOptions opts;
  opts.truncation = method;
  opts.window_size = 1200;
  opts.recent_history = 600;
  opts.inference_period = 300;
  StreamingInference si(&sim.model(), &sim.schedule(), opts);
  SiteExecutor pool(kThreads);
  si.set_pool(&pool);
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  si.AdvanceTo(sim.config().horizon);
  const Epoch at = sim.config().horizon - 1;
  return ContainmentErrorPercentOf(
      [&](TagId o) { return si.ContainerOf(o); }, sim.truth(),
      bench::SteadyStateTags(sim.truth(), sim.all_items(), at), at);
}

TEST(FidelityTest, Fig5aBatchErrorVsReadRate) {
  struct Pin {
    double read_rate;
    double window, all, cr;  // containment error, %
  };
  const Pin pins[] = {{0.6, 21.0, 3.6, 2.0},
                      {0.8, 18.0, 0.0, 0.0},
                      {1.0, 18.4, 0.0, 0.0}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "read rate " << pin.read_rate);
    SupplyChainSim sim(Fig5aConfig(pin.read_rate));
    sim.Run();
    ExpectErrorWithinBand(BatchError(sim, TruncationMethod::kWindow),
                          pin.window);
    ExpectErrorWithinBand(BatchError(sim, TruncationMethod::kAll), pin.all);
    ExpectErrorWithinBand(BatchError(sim, TruncationMethod::kCriticalRegion),
                          pin.cr);
  }
}

// ---- The ten-warehouse DAG: Figure 5(e), Table 5, Appendix A.4 ----

// bench_fig5e's chain (bench::MultiWarehouse at scale 1, read rate 0.8)
// with one pallet every 120 epochs instead of 60, at a horizon just long
// enough for pallets to reach the second layer.
SupplyChainConfig DagConfig(uint64_t seed) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 10;
  cfg.dag_layers = {1, 3, 3, 3};
  cfg.shelves_per_warehouse = 6;
  cfg.cases_per_pallet = 5;
  cfg.items_per_case = 10;
  cfg.pallet_injection_interval = 120;
  cfg.shelf_stay = 1200;
  cfg.transit_time = 60;
  cfg.read_rate.main = 0.8;
  cfg.read_rate.overlap = 0.5;
  cfg.horizon = 1800;
  cfg.seed = seed;
  return cfg;
}

// Every option whose default reads an RFID_* environment variable is
// pinned.
DistributedOptions DagOptions() {
  DistributedOptions opts;
  opts.transport = TransportKind::kInProcess;
  opts.network.faults = FaultModel{};
  opts.durability.dir.clear();
  opts.num_threads = kThreads;
  opts.trace = false;
  return opts;
}

TEST(FidelityTest, Fig5eTable5DistributedVsCentralized) {
  SupplyChainSim sim(DagConfig(5008));
  sim.Run();
  DistributedOptions cr_opts = DagOptions();
  cr_opts.site.migration = MigrationMode::kCollapsed;
  DistributedSystem cr(&sim, cr_opts);
  cr.Run();
  DistributedOptions central_opts = DagOptions();
  central_opts.mode = ProcessingMode::kCentralized;
  DistributedSystem central(&sim, central_opts);
  central.Run();

  ExpectErrorWithinBand(cr.AverageContainmentErrorPercent(600), 5.4524);
  ExpectErrorWithinBand(central.AverageContainmentErrorPercent(600), 5.4524);
  // Table 5's Ratio(Central/CR) of total wire bytes; pinned 11069 / 69769.
  const double pinned_ratio = 11069.0 / 69769.0;
  const double ratio = static_cast<double>(central.network().total_bytes()) /
                       static_cast<double>(cr.network().total_bytes());
  EXPECT_NEAR(ratio, pinned_ratio, pinned_ratio * kByteRatioSlack)
      << central.network().total_bytes() << " / "
      << cr.network().total_bytes();
}

TEST(FidelityTest, HierarchicalPerLevelError) {
  SupplyChainSim sim(DagConfig(8100));
  sim.Run();
  DistributedOptions opts = DagOptions();
  opts.site.migration = MigrationMode::kCollapsed;
  opts.site.hierarchical = true;
  DistributedSystem sys(&sim, opts);
  sys.Run();
  ExpectErrorWithinBand(sys.AverageContainmentErrorPercent(), 4.5271);
  ExpectErrorWithinBand(sys.AverageCaseContainmentErrorPercent(), 30.0);
}

}  // namespace
}  // namespace rfid
