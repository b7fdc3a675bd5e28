// Tests for the streaming inference driver: periodic runs, truncation
// policies, change handling across runs, buffer compaction, and the state
// migration hooks.
#include <gtest/gtest.h>

#include <algorithm>

#include "inference/evaluate.h"
#include "inference/streaming.h"
#include "sim/supply_chain.h"
#include "tests/long_stream.h"

namespace rfid {
namespace {

SupplyChainConfig SmallConfig(Epoch horizon = 900, Epoch anomaly = 0) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 2;
  cfg.items_per_case = 8;
  cfg.shelf_stay = 500;
  cfg.horizon = horizon;
  cfg.anomaly_interval = anomaly;
  cfg.seed = 11;
  return cfg;
}

StreamingOptions FastOptions(TruncationMethod method) {
  StreamingOptions opts;
  opts.inference_period = 300;
  opts.truncation = method;
  opts.recent_history = 400;
  opts.window_size = 600;
  return opts;
}

TEST(StreamingTest, RunsOncePerPeriod) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  StreamingInference si(&sim.model(), &sim.schedule(),
                        FastOptions(TruncationMethod::kAll));
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  int ran = si.AdvanceTo(900);
  EXPECT_EQ(ran, 3);  // t=300, 600, 900
  EXPECT_EQ(si.runs(), 3);
  EXPECT_GT(si.total_inference_seconds(), 0.0);
}

TEST(StreamingTest, AccurateWithAllMethods) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  for (TruncationMethod m :
       {TruncationMethod::kAll, TruncationMethod::kWindow,
        TruncationMethod::kCriticalRegion}) {
    StreamingInference si(&sim.model(), &sim.schedule(), FastOptions(m));
    for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
    si.AdvanceTo(900);
    double err = ContainmentErrorPercentOf(
        [&](TagId o) { return si.ContainerOf(o); }, sim.truth(),
        sim.all_items(), 899);
    EXPECT_LT(err, 25.0) << "method " << static_cast<int>(m);
  }
}

TEST(StreamingTest, CompactionBoundsBuffer) {
  SupplyChainSim sim(SmallConfig(1500));
  sim.Run();
  StreamingInference all(&sim.model(), &sim.schedule(),
                         FastOptions(TruncationMethod::kAll));
  StreamingInference cr(&sim.model(), &sim.schedule(),
                        FastOptions(TruncationMethod::kCriticalRegion));
  for (const RawReading& r : sim.site_trace(0).readings()) {
    all.Observe(r);
    cr.Observe(r);
  }
  all.AdvanceTo(1500);
  cr.AdvanceTo(1500);
  EXPECT_LT(cr.buffered_readings(), all.buffered_readings());
}

TEST(StreamingTest, DetectsInjectedAnomalies) {
  SupplyChainSim sim(SmallConfig(1200, /*anomaly=*/200));
  sim.Run();
  ASSERT_FALSE(sim.anomalies().empty());

  StreamingOptions opts = FastOptions(TruncationMethod::kCriticalRegion);
  opts.detect_changes = true;
  opts.change_threshold = 30.0;
  StreamingInference si(&sim.model(), &sim.schedule(), opts);
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  si.AdvanceTo(1200);

  std::vector<TrueChange> truth;
  for (const AnomalyRecord& a : sim.anomalies()) {
    truth.push_back(TrueChange{a.time, a.item, a.to_case});
  }
  FMeasure fm = ScoreChangeDetection(si.all_changes(), truth, 400);
  EXPECT_GT(fm.Percent(), 40.0)
      << "P=" << fm.Precision() << " R=" << fm.Recall();
}

TEST(StreamingTest, ExportImportContextRoundTrip) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  StreamingInference si(&sim.model(), &sim.schedule(),
                        FastOptions(TruncationMethod::kCriticalRegion));
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  si.AdvanceTo(900);

  TagId item = sim.all_items().front();
  ObjectContext ctx = si.ExportObjectContext(item);
  EXPECT_FALSE(ctx.prior_weights.empty());

  // Import into a fresh driver; the prior steers the initial belief.
  StreamingInference fresh(&sim.model(), &sim.schedule(),
                           FastOptions(TruncationMethod::kCriticalRegion));
  fresh.ImportObjectContext(item, ctx);
  ObjectContext merged = fresh.ExportObjectContext(item);
  EXPECT_EQ(merged.prior_weights.size(), ctx.prior_weights.size());
}

TEST(StreamingTest, ImportMergesWeightsAdditively) {
  auto model = ReadRateModel::Uniform(2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(2);
  sched.Finalize(model);
  StreamingInference si(&model, &sched, {});
  ObjectContext a, b;
  a.prior_weights = {{TagId::Case(1), -10.0}};
  b.prior_weights = {{TagId::Case(1), -5.0}, {TagId::Case(2), -3.0}};
  si.ImportObjectContext(TagId::Item(1), a);
  si.ImportObjectContext(TagId::Item(1), b);
  ObjectContext merged = si.ExportObjectContext(TagId::Item(1));
  ASSERT_EQ(merged.prior_weights.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.prior_weights[0].second, -15.0);
}

TEST(StreamingTest, ExportReadingsCoversCriticalRegionAndRecent) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  StreamingInference si(&sim.model(), &sim.schedule(),
                        FastOptions(TruncationMethod::kCriticalRegion));
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  // Export while the site still holds the item, as Site::ExportTransfer
  // does at departure.
  si.AdvanceTo(600);
  TagId item = sim.all_items().front();
  TagId case_tag = sim.truth().ContainerAt(item, 600);
  auto readings = si.ExportReadings({item, case_tag}, item);
  EXPECT_FALSE(readings.empty());
  for (const RawReading& r : readings) {
    EXPECT_TRUE(r.tag == item || r.tag == case_tag);
  }
  // The item was last read at epoch 528: by the run at 900 it has left,
  // and the site no longer holds anything of it.
  si.AdvanceTo(900);
  EXPECT_TRUE(si.ExportReadings({item, case_tag}, item).empty());
}

// A full-readings export comes out in reading order, (time, reader, tag),
// although the site gathers it tag by tag: here an item and its two
// candidate cases are read by rotating readers at every epoch, so the
// tags interleave within each epoch.
TEST(StreamingTest, ExportReadingsInterleavesTagsAtEqualEpochs) {
  const ReadRateModel model = ReadRateModel::Uniform(4, 0.8);
  InterrogationSchedule schedule = InterrogationSchedule::AlwaysOn(4);
  schedule.Finalize(model);
  StreamingOptions opts;
  opts.inference_period = 60;
  opts.recent_history = 300;
  StreamingInference si(&model, &schedule, opts);

  const TagId tags[3] = {TagId::Item(1), TagId::Case(1), TagId::Case(2)};
  std::vector<RawReading> fed;
  for (Epoch t = 0; t < 60; ++t) {
    for (LocationId r = 0; r < 4; ++r) {
      fed.push_back(RawReading{t, tags[(t + r) % 3], r});
    }
  }
  si.ObserveBatch(fed.data(), fed.size());
  ASSERT_EQ(si.AdvanceTo(60), 1);

  // The recent history of the run at 60 covers every epoch fed.
  std::vector<RawReading> want = fed;
  std::sort(want.begin(), want.end(), RawReadingOrder{});
  const std::vector<RawReading> got =
      si.ExportReadings({tags[0], tags[1], tags[2]}, tags[0]);
  EXPECT_EQ(got, want);
  size_t switches = 0;  // neighbours at one epoch with different tags
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].time == got[i - 1].time && got[i].tag != got[i - 1].tag) {
      ++switches;
    }
  }
  EXPECT_GE(switches, 2 * 60u);
}

// A site forgets an object once its newest reading has fallen out of the
// next run's window, so each run covers the objects present and the buffer
// stops growing with the number of objects the site has ever seen.
TEST(StreamingTest, RunsCoverTheObjectsPresent) {
  SupplyChainSim sim(LongStreamConfig(/*seed=*/5, /*horizon=*/3000));
  sim.Run();
  const Trace& trace = sim.site_trace(0);
  const StreamingOptions opts = LongStreamOptions();
  StreamingInference si(&sim.model(), &sim.schedule(), opts);

  // Imported from another site, never read here.
  const TagId arriving = TagId::Item(1'000'000);
  ObjectContext imported;
  imported.barrier = 1100;
  imported.prior_weights = {{TagId::Case(1'000'000), -4.0}};

  size_t stale = 0;   // object-runs without a reading in the run's window
  size_t missed = 0;  // present, already-read items left out of a run
  size_t buffered_1200 = 0;
  size_t buffered_3000 = 0;
  FeedByPeriod(sim, &si, opts.inference_period, [&](Epoch b) {
    const Epoch window_begin = std::max<Epoch>(0, b - opts.recent_history + 1);
    std::vector<TagId> universe = si.engine().object_tags();
    std::sort(universe.begin(), universe.end());
    for (TagId o : universe) {
      const TagReadSpan h = trace.HistoryOf(o);
      const auto newest = std::upper_bound(
          h.begin(), h.end(), b,
          [](Epoch t, const TagRead& tr) { return t < tr.time; });
      if (newest == h.begin() || (newest - 1)->time < window_begin) ++stale;
    }
    for (TagId item : sim.all_items()) {
      const TagReadSpan h = trace.HistoryOf(item);
      if (!sim.truth().PresentAt(item, b) || h.empty() ||
          h.front().time > b) {
        continue;
      }
      if (!std::binary_search(universe.begin(), universe.end(), item)) {
        ++missed;
      }
    }
    if (b == 1200) {
      buffered_1200 = si.buffered_readings();
      si.ImportObjectContext(arriving, imported);
    }
    if (b == 1320) {
      // Two compactions later the context waits for its first local read.
      const ObjectContext ctx = si.ExportObjectContext(arriving);
      EXPECT_EQ(ctx.barrier, imported.barrier);
      EXPECT_EQ(ctx.prior_weights, imported.prior_weights);
    }
    if (b == 3000) buffered_3000 = si.buffered_readings();
  });
  EXPECT_EQ(stale, 0u);
  EXPECT_EQ(missed, 0u);
  ASSERT_GT(buffered_1200, 0u);
  EXPECT_LE(static_cast<double>(buffered_3000),
            1.2 * static_cast<double>(buffered_1200))
      << buffered_1200 << " readings at b=1200";
}

}  // namespace
}  // namespace rfid
