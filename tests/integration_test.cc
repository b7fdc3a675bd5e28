// End-to-end integration tests: simulator -> inference -> event stream ->
// queries -> migration, plus cross-cutting invariants that only show up
// when the whole pipeline runs together.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dist/distributed.h"
#include "inference/evaluate.h"
#include "inference/streaming.h"
#include "query/queries.h"
#include "sim/sensors.h"
#include "sim/supply_chain.h"

namespace rfid {
namespace {

SupplyChainConfig BaseConfig() {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 3;
  cfg.items_per_case = 6;
  cfg.shelf_stay = 500;
  cfg.horizon = 800;
  cfg.seed = 71;
  return cfg;
}

TEST(IntegrationTest, EventStreamIsConsistentWithBeliefs) {
  SupplyChainSim sim(BaseConfig());
  sim.Run();
  RFInfer engine(&sim.model(), &sim.schedule());
  ASSERT_TRUE(engine.Run(sim.site_trace(0), 0, 800).ok());
  auto events = engine.EmitEvents(engine.window().begin - 1);
  ASSERT_FALSE(events.empty());
  // Every object event's container matches the engine's assignment, and
  // every event's location matches the engine's estimate at that epoch.
  for (const ObjectEvent& e : events) {
    if (e.tag.is_item()) {
      EXPECT_EQ(e.container, engine.ContainerOf(e.tag));
    }
    EXPECT_EQ(e.loc, engine.LocationOf(e.tag, e.time));
  }
}

TEST(IntegrationTest, InferredEventsDriveQueriesLikeTruthEvents) {
  // Feeding the query processor inferred events must produce alerts close
  // to feeding it ground-truth events (high read rate -> near-identical).
  SupplyChainConfig cfg = BaseConfig();
  cfg.read_rate.main = 0.95;
  SupplyChainSim sim(cfg);
  sim.Run();

  ProductCatalog catalog;
  for (TagId item : sim.all_items()) {
    catalog.RegisterProduct(item,
                            ProductInfo{"frozen_food", true, false, false});
  }
  for (TagId c : sim.all_cases()) {
    catalog.RegisterContainer(c, ContainerInfo{ContainerClass::kPlain});
  }

  ExposureQueryConfig qcfg = ExposureQuery::Q1Config(/*duration=*/200);
  qcfg.max_gap = 400;

  RFInfer engine(&sim.model(), &sim.schedule());
  ASSERT_TRUE(engine.Run(sim.site_trace(0), 0, cfg.horizon).ok());

  ExposureQuery inferred_q(&catalog, qcfg);
  ExposureQuery truth_q(&catalog, qcfg);
  for (LocationId loc = 0; loc < sim.layout().num_locations(); ++loc) {
    inferred_q.OnSensor(SensorReading{0, loc, 20.0});
    truth_q.OnSensor(SensorReading{0, loc, 20.0});
  }
  for (const ObjectEvent& e : engine.EmitEvents(engine.window().begin - 1)) {
    if (e.tag.is_item()) inferred_q.OnEvent(e);
  }
  for (Epoch t = 0; t <= cfg.horizon; t += 10) {
    for (TagId item : sim.all_items()) {
      if (!sim.truth().PresentAt(item, t)) continue;
      LocationId loc = sim.truth().LocationAt(item, t);
      if (loc == kNoLocation) continue;
      truth_q.OnEvent(ObjectEvent{t, item, loc,
                                  sim.truth().ContainerAt(item, t)});
    }
  }
  ASSERT_FALSE(truth_q.alerts().empty());
  std::set<TagId> truth_tags, inferred_tags;
  for (const auto& a : truth_q.alerts()) truth_tags.insert(a.tag);
  for (const auto& a : inferred_q.alerts()) inferred_tags.insert(a.tag);
  // Symmetric difference small relative to the alert population.
  int missing = 0;
  for (TagId t : truth_tags) {
    if (!inferred_tags.contains(t)) ++missing;
  }
  EXPECT_LT(static_cast<double>(missing) /
                static_cast<double>(truth_tags.size()),
            0.2);
}

TEST(IntegrationTest, StreamingLocationTrackSurvivesTruncation) {
  SupplyChainConfig cfg = BaseConfig();
  cfg.horizon = 1200;
  SupplyChainSim sim(cfg);
  sim.Run();
  StreamingOptions opts;
  opts.truncation = TruncationMethod::kCriticalRegion;
  opts.recent_history = 400;
  StreamingInference si(&sim.model(), &sim.schedule(), opts);
  for (const RawReading& r : sim.site_trace(0).readings()) si.Observe(r);
  si.AdvanceTo(1200);
  // A case that shelved early: its location at an epoch long before the
  // final window must still be answerable (and correct) via the track.
  TagId case_tag = sim.all_cases().front();
  LocationId est = si.LocationOf(case_tag, 400);
  LocationId truth = sim.truth().LocationAt(case_tag, 400);
  ASSERT_NE(est, kNoLocation);
  EXPECT_EQ(est, truth);
}

TEST(IntegrationTest, ImportedBeliefAnswersBeforeFirstLocalRun) {
  auto model = ReadRateModel::Uniform(2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(2);
  sched.Finalize(model);
  StreamingInference si(&model, &sched, {});
  si.SetImportedBelief(TagId::Item(1), TagId::Case(9));
  EXPECT_EQ(si.ContainerOf(TagId::Item(1)), TagId::Case(9));
  // Invalid imports are ignored.
  si.SetImportedBelief(TagId::Item(2), kNoTag);
  EXPECT_EQ(si.ContainerOf(TagId::Item(2)), kNoTag);
}

TEST(IntegrationTest, HierarchicalContainmentTwoLevels) {
  // Run item->case inference and case->pallet inference on the same trace
  // (Appendix A.4): both levels recover, giving the full nesting.
  SupplyChainConfig cfg = BaseConfig();
  cfg.read_rate.main = 0.9;
  cfg.max_pallets = 3;
  SupplyChainSim sim(cfg);
  sim.Run();
  const Trace& trace = sim.site_trace(0);

  RFInfer item_level(&sim.model(), &sim.schedule());
  ASSERT_TRUE(item_level.Run(trace, 0, cfg.horizon).ok());

  RFInfer case_level(&sim.model(), &sim.schedule());
  case_level.SetUniverseKinds(TagKind::kPallet, TagKind::kCase);
  ASSERT_TRUE(case_level.Run(trace, 0, cfg.horizon).ok());

  // Pallets and cases are co-located only at the entry/exit; expect the
  // majority of cases to resolve to their true pallet.
  int correct = 0, total = 0;
  for (TagId case_tag : sim.all_cases()) {
    TagId inferred = case_level.ContainerOf(case_tag);
    if (!inferred.valid()) continue;
    ++total;
    // True pallet: the case's container at injection time.
    TagId truth = sim.truth().IntervalsOf(case_tag).front().container;
    if (inferred == truth) ++correct;
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(correct) / total, 0.6);
}

TEST(IntegrationTest, MigrationRoundTripPreservesDecision) {
  // Serialize a site's belief about an object, ship it through the real
  // encoder, and confirm the receiving side reconstructs the same belief.
  SupplyChainSim sim(BaseConfig());
  sim.Run();
  StreamingOptions opts;
  opts.truncation = TruncationMethod::kCriticalRegion;
  StreamingInference sender(&sim.model(), &sim.schedule(), opts);
  for (const RawReading& r : sim.site_trace(0).readings()) sender.Observe(r);
  sender.AdvanceTo(800);

  TagId item = sim.all_items().front();
  MigrationBatch batch;
  ObjectMigrationState& state = batch.states.emplace_back();
  state.object = item;
  state.container = sender.ContainerOf(item);
  ObjectContext ctx = sender.ExportObjectContext(item);
  state.weights = ctx.prior_weights;
  state.critical_region = ctx.critical_region;
  state.barrier = ctx.barrier;
  auto bytes = EncodeMigrationBatch(batch);

  auto decoded = DecodeMigrationBatch(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  StreamingInference receiver(&sim.model(), &sim.schedule(), opts);
  const ObjectMigrationState& s = decoded->states[0];
  ObjectContext rctx;
  rctx.prior_weights = s.weights;
  rctx.critical_region = s.critical_region;
  rctx.barrier = s.barrier;
  receiver.ImportObjectContext(item, rctx);
  receiver.SetImportedBelief(s.object, s.container);
  EXPECT_EQ(receiver.ContainerOf(item), sender.ContainerOf(item));
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  // The full pipeline is bit-for-bit reproducible for a fixed seed.
  auto run_once = [] {
    SupplyChainSim sim(BaseConfig());
    sim.Run();
    RFInfer engine(&sim.model(), &sim.schedule());
    RFID_CHECK_OK(engine.Run(sim.site_trace(0), 0, 800));
    std::vector<std::pair<TagId, TagId>> beliefs;
    for (TagId item : sim.all_items()) {
      beliefs.emplace_back(item, engine.ContainerOf(item));
    }
    return beliefs;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Expects two evidence series to match bit for bit.
void ExpectSameSeries(const std::vector<EvidencePoint>& a,
                      const std::vector<EvidencePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].time, b[k].time);
    EXPECT_EQ(a[k].point, b[k].point);
    EXPECT_EQ(a[k].cumulative, b[k].cumulative);
  }
}

/// Expects two engines' last runs to match bit for bit: containment,
/// exported weights and the evidence series of every (object, candidate)
/// pair, and the likelihood history.
void ExpectSameRun(const RFInfer& a, const RFInfer& b) {
  ASSERT_EQ(a.object_tags(), b.object_tags());
  for (TagId object : a.object_tags()) {
    SCOPED_TRACE(object.ToString());
    EXPECT_EQ(a.ContainerOf(object), b.ContainerOf(object));
    EXPECT_EQ(a.ExportWeights(object), b.ExportWeights(object));
    ASSERT_EQ(a.CandidatesOf(object), b.CandidatesOf(object));
    for (TagId container : a.CandidatesOf(object)) {
      ExpectSameSeries(a.EvidenceSeries(object, container),
                       b.EvidenceSeries(object, container));
    }
  }
  EXPECT_EQ(a.likelihood_history(), b.likelihood_history());
}

TEST(IntegrationTest, MemoizationDoesNotChangeResults) {
  SupplyChainSim sim(BaseConfig());
  sim.Run();
  // memoize=false recomputes every container on every iteration, and so
  // re-weights every (object, candidate) pair in every M-step: it is the
  // exact reference for the memoized E-step, the M-step's per-pair skip
  // and the read-adjust dots cached per active epoch and per idle row.
  for (int threads : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::unique_ptr<SiteExecutor> pool;
    if (threads > 0) pool = std::make_unique<SiteExecutor>(threads);
    InferenceOptions with, without;
    with.memoize = true;
    without.memoize = false;
    RFInfer a(&sim.model(), &sim.schedule(), with);
    RFInfer b(&sim.model(), &sim.schedule(), without);
    a.set_pool(pool.get());
    b.set_pool(pool.get());
    ASSERT_TRUE(a.Run(sim.site_trace(0), 0, 800).ok());
    ASSERT_TRUE(b.Run(sim.site_trace(0), 0, 800).ok());
    EXPECT_GT(a.iterations_used(), 1);
    ExpectSameRun(a, b);
    for (TagId item : sim.all_items()) {
      EXPECT_EQ(a.ChangeStatistic(item), b.ChangeStatistic(item))
          << item.ToString();
    }
  }
}

TEST(IntegrationTest, EngineReusedAcrossWindowsMatchesFreshEngines) {
  // Idle rows are kept per group size for the engine's lifetime, so a
  // reused engine serves later windows from rows an earlier run filled.
  // Three warehouses give R = 27, where most reads' dots are not the
  // cached one of their epoch and take the direct path.
  SupplyChainConfig cfg = BaseConfig();
  cfg.num_warehouses = 3;
  cfg.shelves_per_warehouse = 6;
  cfg.shelf_stay = 300;
  cfg.transit_time = 30;
  cfg.horizon = 1500;
  SupplyChainSim sim(cfg);
  sim.Run();
  ASSERT_EQ(sim.model().num_locations(), 27);
  const Trace& trace = sim.site_trace(1);
  RFInfer reused(&sim.model(), &sim.schedule());
  std::set<size_t> seen_sizes;  // final group sizes of earlier windows
  bool size_seen_before = false;
  for (Epoch begin : {0, 500, 1000}) {
    SCOPED_TRACE(testing::Message() << "window from " << begin);
    RFInfer fresh(&sim.model(), &sim.schedule());
    ASSERT_TRUE(reused.Run(trace, begin, begin + 499).ok());
    ASSERT_TRUE(fresh.Run(trace, begin, begin + 499).ok());
    ASSERT_FALSE(fresh.object_tags().empty());
    ExpectSameRun(reused, fresh);
    std::set<size_t> sizes;
    for (TagId container : fresh.container_tags()) {
      sizes.insert(1 + fresh.ObjectsOf(container).size());
    }
    for (size_t size : sizes) {
      size_seen_before = size_seen_before || seen_sizes.count(size) > 0;
    }
    seen_sizes.insert(sizes.begin(), sizes.end());
  }
  EXPECT_TRUE(size_seen_before);
}

TEST(IntegrationTest, CandidatePruningKeepsAccuracy) {
  // Appendix A.3: candidate pruning is a cost optimization that must not
  // change containment results materially.
  SupplyChainSim sim(BaseConfig());
  sim.Run();
  InferenceOptions narrow;
  narrow.max_candidates = 3;
  InferenceOptions wide;
  wide.max_candidates = 12;
  RFInfer a(&sim.model(), &sim.schedule(), narrow);
  RFInfer b(&sim.model(), &sim.schedule(), wide);
  ASSERT_TRUE(a.Run(sim.site_trace(0), 0, 800).ok());
  ASSERT_TRUE(b.Run(sim.site_trace(0), 0, 800).ok());
  int agree = 0, total = 0;
  for (TagId item : sim.all_items()) {
    ++total;
    if (a.ContainerOf(item) == b.ContainerOf(item)) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.95);
}

// Property sweep: the full single-site pipeline across seeds and read
// rates upholds the paper's headline accuracy claim (stable containment).
class PipelineSweep
    : public testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(PipelineSweep, ContainmentErrorWithinPaperBound) {
  auto [seed, rr] = GetParam();
  SupplyChainConfig cfg = BaseConfig();
  cfg.seed = seed;
  cfg.read_rate.main = rr;
  SupplyChainSim sim(cfg);
  sim.Run();
  RFInfer engine(&sim.model(), &sim.schedule());
  ASSERT_TRUE(engine.Run(sim.site_trace(0), 0, cfg.horizon).ok());
  double err = ContainmentErrorPercent(engine, sim.truth(), sim.all_items(),
                                       cfg.horizon - 1);
  // Paper: < 7% containment error at RR 0.6 with stable containment; our
  // exclusivity-weighted init does better, but allow headroom across seeds.
  EXPECT_LT(err, 8.0) << "seed " << seed << " rr " << rr;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRates, PipelineSweep,
    testing::Combine(testing::Values(1u, 2u, 3u),
                     testing::Values(0.6, 0.75, 0.9)));

}  // namespace
}  // namespace rfid
