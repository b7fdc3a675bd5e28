// Property-style parameterized tests: algebraic and structural invariants
// that must hold for every seed, not just hand-picked examples.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/serde.h"
#include "inference/rfinfer.h"
#include "inference/state.h"
#include "model/generative.h"
#include "model/read_rate.h"
#include "model/schedule.h"
#include "query/state_sharing.h"
#include "sim/supply_chain.h"
#include "trace/trace_io.h"

namespace rfid {
namespace {

class SeededTest : public testing::TestWithParam<uint64_t> {};

// --- Serialization: random payloads always round-trip exactly. ---

TEST_P(SeededTest, SerdeRandomRoundTrip) {
  Rng rng(GetParam());
  BufferWriter w;
  std::vector<uint64_t> varints;
  std::vector<int64_t> signeds;
  std::vector<double> doubles;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.NextU64() >> rng.NextBounded(64);
    int64_t s = static_cast<int64_t>(rng.NextU64());
    double d = rng.NextUniform(-1e12, 1e12);
    varints.push_back(v);
    signeds.push_back(s);
    doubles.push_back(d);
    w.PutVarint(v);
    w.PutSignedVarint(s);
    w.PutDouble(d);
  }
  auto bytes = w.Release();
  BufferReader r(bytes);
  for (int i = 0; i < 200; ++i) {
    uint64_t v = 0;
    int64_t s = 0;
    double d = 0;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    ASSERT_TRUE(r.GetSignedVarint(&s).ok());
    ASSERT_TRUE(r.GetDouble(&d).ok());
    EXPECT_EQ(v, varints[static_cast<size_t>(i)]);
    EXPECT_EQ(s, signeds[static_cast<size_t>(i)]);
    EXPECT_DOUBLE_EQ(d, doubles[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST_P(SeededTest, CompactTagRoundTrip) {
  Rng rng(GetParam());
  BufferWriter w;
  std::vector<TagId> tags{kNoTag};
  for (int i = 0; i < 100; ++i) {
    auto kind = static_cast<TagKind>(rng.NextBounded(3));
    tags.push_back(TagId::Make(kind, rng.NextU64() >> 8));
  }
  for (TagId t : tags) w.PutCompactTag(t);
  auto bytes = w.Release();
  BufferReader r(bytes);
  for (TagId expected : tags) {
    TagId t;
    ASSERT_TRUE(r.GetCompactTag(&t).ok());
    EXPECT_EQ(t, expected);
  }
}

TEST_P(SeededTest, TraceEncodingRoundTripsRandomTraces) {
  Rng rng(GetParam());
  Trace trace;
  for (int i = 0; i < 500; ++i) {
    trace.Add(RawReading{static_cast<Epoch>(rng.NextBounded(1000)),
                         TagId::Item(rng.NextBounded(50)),
                         static_cast<LocationId>(rng.NextBounded(12))});
  }
  trace.Seal();
  auto decoded = DecodeTrace(EncodeTrace(trace));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->readings(), trace.readings());
}

// --- Diff codec: arbitrary base/target pairs reconstruct exactly. ---

TEST_P(SeededTest, DiffCodecArbitraryPairs) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::vector<uint8_t> base(rng.NextBounded(200));
    std::vector<uint8_t> target(rng.NextBounded(200));
    for (auto& b : base) b = static_cast<uint8_t>(rng.NextBounded(256));
    for (auto& b : target) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto diff = DiffEncode(base, target);
    auto restored = DiffApply(base, diff);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, target);
  }
}

TEST_P(SeededTest, ShareUnshareArbitraryGroups) {
  Rng rng(GetParam());
  std::vector<std::pair<TagId, std::vector<uint8_t>>> states;
  const int n = 2 + static_cast<int>(rng.NextBounded(10));
  for (int i = 0; i < n; ++i) {
    std::vector<uint8_t> s(20 + rng.NextBounded(100));
    for (auto& b : s) b = static_cast<uint8_t>(rng.NextBounded(8));
    states.emplace_back(TagId::Item(static_cast<uint64_t>(i)), std::move(s));
  }
  auto bundle = ShareStates(states);
  auto restored = UnshareStates(bundle);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ((*restored)[i], states[i]);
  }
}

// --- Schedules: class decomposition always partitions time. ---

TEST_P(SeededTest, ScheduleClassesPartitionEpochs) {
  Rng rng(GetParam());
  const int R = 4 + static_cast<int>(rng.NextBounded(4));
  auto model = ReadRateModel::Uniform(R, 0.8);
  InterrogationSchedule sched(R);
  for (LocationId r = 0; r < R; ++r) {
    if (rng.NextBernoulli(0.5)) {
      Epoch period = 1 + static_cast<Epoch>(rng.NextBounded(12));
      sched.SetPeriodic(r, period, rng.NextBounded(
                                       static_cast<uint64_t>(period)));
    } else {
      Epoch cycle = 2 + static_cast<Epoch>(rng.NextBounded(20));
      Epoch len = 1 + static_cast<Epoch>(
                          rng.NextBounded(static_cast<uint64_t>(cycle)));
      sched.SetWindowed(r, cycle, rng.NextBounded(
                                      static_cast<uint64_t>(cycle)),
                        len);
    }
  }
  sched.Finalize(model);
  // Class counts over any interval sum to its length.
  for (int round = 0; round < 10; ++round) {
    Epoch a = static_cast<Epoch>(rng.NextBounded(500));
    Epoch b = a + static_cast<Epoch>(rng.NextBounded(500));
    int64_t total = 0;
    sched.ForEachClassCount(a, b, [&](int, int64_t n) { total += n; });
    EXPECT_EQ(total, b - a + 1);
  }
  // ActiveAt is periodic with the schedule cycle, and LogMissAllClass
  // reflects exactly the readers active in that class.
  for (Epoch t = 0; t < sched.cycle(); ++t) {
    for (LocationId r = 0; r < R; ++r) {
      EXPECT_EQ(sched.ActiveAt(r, t), sched.ActiveAt(r, t + sched.cycle()));
    }
    double expect = 0;
    for (LocationId r = 0; r < R; ++r) {
      if (sched.ActiveAt(r, t)) expect += model.LogMiss(r, 0);
    }
    EXPECT_NEAR(sched.LogMissAllClass(0, sched.ClassOf(t)), expect, 1e-9);
  }
}

// --- Simulator invariants across seeds. ---

TEST_P(SeededTest, SimulatorInvariants) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 2;
  cfg.shelves_per_warehouse = 3;
  cfg.cases_per_pallet = 2;
  cfg.items_per_case = 4;
  cfg.shelf_stay = 150;
  cfg.horizon = 500;
  cfg.anomaly_interval = 60;
  cfg.seed = GetParam();
  SupplyChainSim sim(cfg);
  sim.Run();

  // (1) Readings only from covered locations.
  for (SiteId s = 0; s < 2; ++s) {
    for (const RawReading& r : sim.site_trace(s).readings()) {
      LocationId truth = sim.truth().LocationAt(r.tag, r.time);
      ASSERT_NE(truth, kNoLocation);
      EXPECT_GT(sim.model().Rate(r.reader, truth), 0.0);
      // Reader belongs to the site whose trace recorded it.
      EXPECT_EQ(sim.layout().SiteOfLocation(r.reader), s);
    }
  }
  // (2) An item is always co-located with its true container.
  for (TagId item : sim.all_items()) {
    for (Epoch t = 0; t <= cfg.horizon; t += 37) {
      if (!sim.truth().PresentAt(item, t)) continue;
      TagId c = sim.truth().ContainerAt(item, t);
      if (!c.valid() || !sim.truth().PresentAt(c, t)) continue;
      EXPECT_EQ(sim.truth().LocationAt(item, t),
                sim.truth().LocationAt(c, t))
          << item.ToString() << " at " << t;
    }
  }
  // (3) Transfers partition: arrival follows departure by transit time.
  for (const ObjectTransfer& tr : sim.transfers()) {
    if (tr.to != kNoSite) {
      EXPECT_EQ(tr.arrive - tr.depart, cfg.transit_time);
      EXPECT_NE(tr.from, tr.to);
    }
    std::set<TagId> unique(tr.items.begin(), tr.items.end());
    EXPECT_EQ(unique.size(), tr.items.size());
  }
  // (4) Anomaly records agree with ground-truth changes.
  for (const AnomalyRecord& a : sim.anomalies()) {
    EXPECT_EQ(sim.truth().ContainerAt(a.item, a.time), a.to_case);
    EXPECT_NE(a.from_case, a.to_case);
  }
}

// --- Inference invariants across seeds. ---

TEST_P(SeededTest, InferenceInvariants) {
  const uint64_t seed = GetParam();
  auto model = ReadRateModel::Uniform(4, 0.75);
  auto sched = InterrogationSchedule::AlwaysOn(4);
  sched.Finalize(model);
  Rng rng(seed);
  Trace trace;
  std::vector<TagId> containers, objects;
  for (int c = 0; c < 3; ++c) {
    GenerativeScenario scenario;
    scenario.container = TagId::Case(static_cast<uint64_t>(c));
    containers.push_back(scenario.container);
    for (int o = 0; o < 4; ++o) {
      TagId obj = TagId::Item(static_cast<uint64_t>(c * 4 + o));
      scenario.objects.push_back(obj);
      objects.push_back(obj);
    }
    scenario.location_path =
        RandomLocationPath(4, 250, /*move_prob=*/0.005, rng);
    SampleReadings(model, scenario, rng, &trace);
  }
  trace.Seal();
  if (trace.empty()) GTEST_SKIP();

  RFInfer engine(&model, &sched);
  ASSERT_TRUE(engine.Run(trace, 0, 249).ok());

  // (1) EM likelihood is monotone non-decreasing.
  const auto& hist = engine.likelihood_history();
  for (size_t i = 1; i < hist.size(); ++i) {
    EXPECT_GE(hist[i], hist[i - 1] - 1e-6);
  }
  // (2) The assignment is the weight argmax among candidates.
  for (TagId o : objects) {
    TagId assigned = engine.ContainerOf(o);
    if (!assigned.valid()) continue;
    double w_assigned = engine.WeightOf(o, assigned);
    for (TagId c : engine.CandidatesOf(o)) {
      EXPECT_LE(engine.WeightOf(o, c), w_assigned + 1e-9);
    }
  }
  // (3) ObjectsOf is the inverse of ContainerOf.
  for (TagId c : containers) {
    for (TagId o : engine.ObjectsOf(c)) {
      EXPECT_EQ(engine.ContainerOf(o), c);
    }
  }
  // (4) Change statistics are non-negative (two-segment fit cannot be
  //     worse than one segment evaluated at the best split).
  for (TagId o : objects) {
    EXPECT_GE(engine.ChangeStatistic(o), -1e-6);
  }
  // (5) Exported weights round-trip through the migration codec.
  MigrationBatch batch;
  for (TagId o : objects) {
    ObjectMigrationState s;
    s.object = o;
    s.container = engine.ContainerOf(o);
    s.weights = engine.ExportWeights(o);
    batch.states.push_back(s);
  }
  const std::vector<uint8_t> bytes = EncodeMigrationBatch(batch);
  auto decoded = DecodeMigrationBatch(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  const std::vector<ObjectMigrationState>& states = batch.states;
  for (size_t i = 0; i < states.size(); ++i) {
    const ObjectMigrationState& out = decoded->states[i];
    EXPECT_EQ(out.object, states[i].object);
    EXPECT_EQ(out.container, states[i].container);
    ASSERT_EQ(out.weights.size(), states[i].weights.size());
    for (size_t j = 0; j < states[i].weights.size(); ++j) {
      EXPECT_EQ(out.weights[j].first, states[i].weights[j].first);
      // float32 on the wire: relative error bounded.
      EXPECT_NEAR(out.weights[j].second, states[i].weights[j].second,
                  std::abs(states[i].weights[j].second) * 1e-6 + 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace rfid
