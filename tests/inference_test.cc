// Tests for the RFINFER core: containment recovery, EM monotonicity,
// location estimates, evidence accounting, change-point detection,
// critical regions, collapsed priors, and the co-location counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "inference/calibration.h"
#include "inference/colocation.h"
#include "inference/evaluate.h"
#include "inference/rfinfer.h"
#include "inference/state.h"
#include "inference/streaming.h"
#include "model/generative.h"
#include "model/read_rate.h"
#include "model/schedule.h"
#include "sim/supply_chain.h"
#include "trace/trace.h"

namespace rfid {
namespace {

// Samples readings of one tag along a location path, honoring the schedule.
void SampleTag(const ReadRateModel& model, const InterrogationSchedule& sched,
               TagId tag, const std::vector<LocationId>& path, Rng& rng,
               Trace* trace) {
  for (Epoch t = 0; t < static_cast<Epoch>(path.size()); ++t) {
    LocationId truth = path[static_cast<size_t>(t)];
    if (truth == kNoLocation) continue;
    for (LocationId r = 0; r < model.num_locations(); ++r) {
      if (!sched.ActiveAt(r, t)) continue;
      if (rng.NextBernoulli(model.Rate(r, truth))) {
        trace->Add(RawReading{t, tag, r});
      }
    }
  }
}

std::vector<LocationId> ConstantPath(Epoch horizon, LocationId loc) {
  return std::vector<LocationId>(static_cast<size_t>(horizon), loc);
}

// A world with two containers at different locations, each with `k` objects.
struct TwoContainerWorld {
  ReadRateModel model = ReadRateModel::Uniform(4, 0.8);
  InterrogationSchedule sched = InterrogationSchedule::AlwaysOn(4);
  Trace trace;
  TagId c1 = TagId::Case(1);
  TagId c2 = TagId::Case(2);
  std::vector<TagId> objs1, objs2;
  Epoch horizon = 200;

  explicit TwoContainerWorld(double rr = 0.8, int k = 3, Epoch T = 200,
                             uint64_t seed = 99) {
    horizon = T;
    model = ReadRateModel::Uniform(4, rr);
    sched = InterrogationSchedule::AlwaysOn(4);
    sched.Finalize(model);
    Rng rng(seed);
    auto p1 = ConstantPath(T, 0);
    auto p2 = ConstantPath(T, 2);
    SampleTag(model, sched, c1, p1, rng, &trace);
    SampleTag(model, sched, c2, p2, rng, &trace);
    for (int i = 0; i < k; ++i) {
      TagId o1 = TagId::Item(100 + static_cast<uint64_t>(i));
      TagId o2 = TagId::Item(200 + static_cast<uint64_t>(i));
      objs1.push_back(o1);
      objs2.push_back(o2);
      SampleTag(model, sched, o1, p1, rng, &trace);
      SampleTag(model, sched, o2, p2, rng, &trace);
    }
    trace.Seal();
  }
};

TEST(RFInferTest, RecoversStableContainment) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  for (TagId o : w.objs1) EXPECT_EQ(engine.ContainerOf(o), w.c1);
  for (TagId o : w.objs2) EXPECT_EQ(engine.ContainerOf(o), w.c2);
}

TEST(RFInferTest, ObjectsOfListsAssignment) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  auto objs = engine.ObjectsOf(w.c1);
  EXPECT_EQ(objs.size(), w.objs1.size());
}

TEST(RFInferTest, TrueContainerHasHigherWeight) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  for (TagId o : w.objs1) {
    double w_true = engine.WeightOf(o, w.c1);
    double w_false = engine.WeightOf(o, w.c2);
    if (std::isfinite(w_false)) {
      EXPECT_GT(w_true, w_false) << o.ToString();
    }
  }
}

TEST(RFInferTest, LikelihoodNonDecreasing) {
  TwoContainerWorld w(0.6, 4, 300);
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  const auto& history = engine.likelihood_history();
  ASSERT_GE(history.size(), 1u);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i], history[i - 1] - 1e-6)
        << "EM likelihood decreased at iteration " << i;
  }
}

TEST(RFInferTest, ConvergesWithinFewIterations) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  EXPECT_LE(engine.iterations_used(), 10);
}

TEST(RFInferTest, LocationEstimatesMatchTruth) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  int correct = 0, total = 0;
  for (Epoch t = 10; t < w.horizon; t += 10) {
    ++total;
    if (engine.LocationOf(w.c1, t) == 0) ++correct;
  }
  EXPECT_GE(correct, total - 1);
  // Objects inherit the container's location ("smoothing over containment").
  EXPECT_EQ(engine.LocationOf(w.objs1[0], w.horizon - 1), 0);
  EXPECT_EQ(engine.LocationOf(w.objs2[0], w.horizon - 1), 2);
}

TEST(RFInferTest, SmoothingOverContainmentLocalizesUnreadObject) {
  // An object read only rarely still gets located through its container.
  auto model = ReadRateModel::Uniform(3, 0.9);
  auto sched = InterrogationSchedule::AlwaysOn(3);
  sched.Finalize(model);
  Rng rng(5);
  Trace trace;
  TagId c = TagId::Case(1);
  TagId o = TagId::Item(1);
  SampleTag(model, sched, c, ConstantPath(100, 1), rng, &trace);
  // Object read just twice, both with the container at location 1.
  trace.Add(RawReading{3, o, 1});
  trace.Add(RawReading{4, o, 1});
  trace.Seal();
  RFInfer engine(&model, &sched);
  ASSERT_TRUE(engine.Run(trace, 0, 99).ok());
  EXPECT_EQ(engine.ContainerOf(o), c);
  // Location known at epoch 90 even though the object was last read at 4.
  EXPECT_EQ(engine.LocationOf(o, 90), 1);
}

TEST(RFInferTest, EmitEventsCoversAssignedObjects) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  auto events = engine.EmitEvents(engine.window().begin - 1);
  ASSERT_FALSE(events.empty());
  bool saw_obj = false;
  for (const ObjectEvent& e : events) {
    EXPECT_GE(e.time, 0);
    EXPECT_LT(e.time, w.horizon);
    if (e.tag == w.objs1[0]) {
      saw_obj = true;
      EXPECT_EQ(e.container, w.c1);
    }
  }
  EXPECT_TRUE(saw_obj);
  // Sorted by time.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
}

TEST(RFInferTest, EmitEventsAfterFiltersTheWholeWindow) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 20, w.horizon - 1).ok());
  const std::vector<ObjectEvent> all =
      engine.EmitEvents(engine.window().begin - 1);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().time, 20);
  // Cuts before, at and inside the window, at its last epoch and past it.
  const Epoch h = w.horizon;
  for (Epoch after : std::vector<Epoch>{-5, 0, 19, 20, 57, 150, h - 2, h - 1,
                                        h + 10}) {
    SCOPED_TRACE(testing::Message() << "after " << after);
    std::vector<ObjectEvent> want;
    for (const ObjectEvent& e : all) {
      if (e.time > after) want.push_back(e);
    }
    EXPECT_EQ(engine.EmitEvents(after), want);
  }
}

TEST(RFInferTest, EvidenceSeriesConsistentWithWeights) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  // The cumulative evidence at the last event plus trailing idle gaps must
  // equal the reported weight (no priors installed here). The series ends
  // at the last event; WeightOf includes the tail, so cumulative <= weight
  // within the tail's idle contribution (which is <= 0).
  for (TagId o : w.objs1) {
    auto series = engine.EvidenceSeries(o, w.c1);
    ASSERT_FALSE(series.empty());
    double weight = engine.WeightOf(o, w.c1);
    EXPECT_GE(series.back().cumulative, weight - 1e-6);
    // Cumulative is the running sum of point evidence plus idle gaps, so it
    // must be non-increasing in expectation; check internal consistency:
    double prev = 0.0;
    for (const auto& pt : series) {
      EXPECT_LE(pt.cumulative, prev + 1e-9 + pt.point - pt.point);
      prev = pt.cumulative;
    }
  }
}

TEST(RFInferTest, RealContainerDominatesEvidence) {
  // Figure 4's qualitative claim: the real container's cumulative evidence
  // stays above a never-co-located container's.
  TwoContainerWorld w(0.8, 3, 300);
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  TagId o = w.objs1[0];
  auto real = engine.EvidenceSeries(o, w.c1);
  auto fake = engine.EvidenceSeries(o, w.c2);
  ASSERT_FALSE(real.empty());
  if (!fake.empty()) {
    EXPECT_GT(real.back().cumulative, fake.back().cumulative);
  }
}

TEST(RFInferTest, DetectsPlantedContainmentChange) {
  // Object follows c1 for 150 epochs, then moves to c2.
  auto model = ReadRateModel::Uniform(4, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(4);
  sched.Finalize(model);
  Rng rng(17);
  Trace trace;
  TagId c1 = TagId::Case(1), c2 = TagId::Case(2);
  TagId mover = TagId::Item(1);
  const Epoch T = 300, change_at = 150;
  SampleTag(model, sched, c1, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, c2, ConstantPath(T, 2), rng, &trace);
  for (int i = 0; i < 3; ++i) {
    SampleTag(model, sched, TagId::Item(10 + static_cast<uint64_t>(i)),
              ConstantPath(T, 0), rng, &trace);
    SampleTag(model, sched, TagId::Item(20 + static_cast<uint64_t>(i)),
              ConstantPath(T, 2), rng, &trace);
  }
  std::vector<LocationId> mover_path = ConstantPath(T, 0);
  for (Epoch t = change_at; t < T; ++t) {
    mover_path[static_cast<size_t>(t)] = 2;
  }
  SampleTag(model, sched, mover, mover_path, rng, &trace);
  trace.Seal();

  RFInfer engine(&model, &sched);
  ASSERT_TRUE(engine.Run(trace, 0, T - 1).ok());
  double delta = engine.ChangeStatistic(mover);
  EXPECT_GT(delta, 20.0);
  // Objects that never moved have much smaller statistics.
  EXPECT_LT(engine.ChangeStatistic(TagId::Item(10)), delta / 2);

  auto changes = engine.DetectChangePoints(delta / 2);
  bool found = false;
  for (const ChangePointResult& cp : changes) {
    if (cp.object == mover) {
      found = true;
      EXPECT_NEAR(static_cast<double>(cp.time), change_at, 30.0);
      EXPECT_EQ(cp.old_container, c1);
      EXPECT_EQ(cp.new_container, c2);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RFInferTest, NoChangeYieldsSmallStatistic) {
  TwoContainerWorld w(0.8, 3, 300);
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  for (TagId o : w.objs1) {
    EXPECT_LT(engine.ChangeStatistic(o), 15.0) << o.ToString();
  }
}

TEST(RFInferTest, CriticalRegionFindsDiscriminativeSpan) {
  // Belt-style scenario: c1 and c2 co-located with the object at location 0
  // (the "door"), then only c1 travels with it through location 1 (the
  // "belt"), then both co-located again at location 2 (the "shelf"). The CR
  // must cover the belt period.
  auto model = ReadRateModel::Uniform(3, 0.9);
  auto sched = InterrogationSchedule::AlwaysOn(3);
  sched.Finalize(model);
  Rng rng(23);
  Trace trace;
  TagId c1 = TagId::Case(1), c2 = TagId::Case(2);
  TagId o = TagId::Item(1);
  const Epoch T = 300;
  std::vector<LocationId> path_with(T), path_other(T);
  for (Epoch t = 0; t < T; ++t) {
    LocationId with = t < 100 ? 0 : (t < 150 ? 1 : 2);
    LocationId other = t < 100 ? 0 : 2;  // skips the belt
    path_with[static_cast<size_t>(t)] = with;
    path_other[static_cast<size_t>(t)] = other;
  }
  SampleTag(model, sched, c1, path_with, rng, &trace);
  SampleTag(model, sched, c2, path_other, rng, &trace);
  SampleTag(model, sched, o, path_with, rng, &trace);
  trace.Seal();

  RFInfer engine(&model, &sched);
  ASSERT_TRUE(engine.Run(trace, 0, T - 1).ok());
  EXPECT_EQ(engine.ContainerOf(o), c1);
  // The gap threshold must exceed co-location noise (both containers read
  // with p<1 produce fluctuating per-epoch evidence differences); the belt
  // span delivers a gap an order of magnitude above it.
  auto crs = engine.FindCriticalRegions(30, 100.0);
  ASSERT_TRUE(crs.contains(o));
  const CriticalRegion& cr = crs.at(o);
  // The discriminative window overlaps the belt period [100, 150).
  EXPECT_LT(cr.window.begin, 150);
  EXPECT_GT(cr.window.end, 100);
  EXPECT_GT(cr.gap, 100.0);
}

TEST(RFInferTest, CollapsedPriorsSteerAssignment) {
  // Locally ambiguous data (object co-located with both containers), but an
  // imported prior strongly favors c2.
  auto model = ReadRateModel::Uniform(2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(2);
  sched.Finalize(model);
  Rng rng(31);
  Trace trace;
  TagId c1 = TagId::Case(1), c2 = TagId::Case(2);
  TagId o = TagId::Item(1);
  const Epoch T = 60;
  // Everything at location 0: perfectly ambiguous co-location.
  SampleTag(model, sched, c1, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, c2, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, o, ConstantPath(T, 0), rng, &trace);
  trace.Seal();

  // The data is symmetric between c1 and c2, so both assignments are local
  // maxima of the likelihood (EM self-reinforces whichever container's
  // posterior is sharpened by the object's reads). The imported collapsed
  // prior decides which optimum the algorithm lands in -- exactly how
  // migrated state seeds inference at a new site (Section 4.1).
  RFInfer engine(&model, &sched);
  ObjectContext ctx;
  ctx.prior_weights = {{c2, 50.0}};
  engine.SetObjectContext(o, ctx);
  ASSERT_TRUE(engine.Run(trace, 0, T - 1).ok());
  EXPECT_EQ(engine.ContainerOf(o), c2);

  RFInfer opposite(&model, &sched);
  ObjectContext ctx1;
  ctx1.prior_weights = {{c1, 50.0}};
  opposite.SetObjectContext(o, ctx1);
  ASSERT_TRUE(opposite.Run(trace, 0, T - 1).ok());
  EXPECT_EQ(opposite.ContainerOf(o), c1);
}

TEST(RFInferTest, BarrierDiscardsOldEvidence) {
  // Object co-located with c1 for [0,150), then c2 for [150,300). With a
  // barrier at 150, only the c2 epochs count.
  auto model = ReadRateModel::Uniform(4, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(4);
  sched.Finalize(model);
  Rng rng(37);
  Trace trace;
  TagId c1 = TagId::Case(1), c2 = TagId::Case(2);
  TagId o = TagId::Item(1);
  const Epoch T = 300;
  SampleTag(model, sched, c1, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, c2, ConstantPath(T, 2), rng, &trace);
  std::vector<LocationId> path(T);
  for (Epoch t = 0; t < T; ++t) {
    path[static_cast<size_t>(t)] = t < 150 ? 0 : 2;
  }
  SampleTag(model, sched, o, path, rng, &trace);
  trace.Seal();

  RFInfer engine(&model, &sched);
  ObjectContext ctx;
  ctx.barrier = 150;
  engine.SetObjectContext(o, ctx);
  ASSERT_TRUE(engine.Run(trace, 0, T - 1).ok());
  EXPECT_EQ(engine.ContainerOf(o), c2);
}

TEST(RFInferTest, ExplicitUniverseHierarchical) {
  // Cases inside pallets: treat pallets as containers and cases as objects
  // (Appendix A.4 hierarchical containment via a second instance).
  auto model = ReadRateModel::Uniform(4, 0.85);
  auto sched = InterrogationSchedule::AlwaysOn(4);
  sched.Finalize(model);
  Rng rng(41);
  Trace trace;
  TagId p1 = TagId::Pallet(1), p2 = TagId::Pallet(2);
  TagId k1 = TagId::Case(1), k2 = TagId::Case(2);
  const Epoch T = 150;
  SampleTag(model, sched, p1, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, p2, ConstantPath(T, 3), rng, &trace);
  SampleTag(model, sched, k1, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, k2, ConstantPath(T, 3), rng, &trace);
  trace.Seal();

  RFInfer engine(&model, &sched);
  engine.SetUniverseKinds(TagKind::kPallet, TagKind::kCase);
  ASSERT_TRUE(engine.Run(trace, 0, T - 1).ok());
  EXPECT_EQ(engine.ContainerOf(k1), p1);
  EXPECT_EQ(engine.ContainerOf(k2), p2);
}

TEST(RFInferTest, RejectsUnsealedTraceAndBadWindow) {
  auto model = ReadRateModel::Uniform(2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(2);
  sched.Finalize(model);
  RFInfer engine(&model, &sched);
  Trace unsealed;
  unsealed.Add(RawReading{0, TagId::Item(1), 0});
  EXPECT_TRUE(engine.Run(unsealed, 0, 10).IsInvalidArgument());
  Trace sealed;
  sealed.Seal();
  EXPECT_TRUE(engine.Run(sealed, 10, 0).IsInvalidArgument());
}

TEST(RFInferTest, EmptyTraceYieldsNoAssignments) {
  auto model = ReadRateModel::Uniform(2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(2);
  sched.Finalize(model);
  RFInfer engine(&model, &sched);
  Trace empty;
  empty.Seal();
  ASSERT_TRUE(engine.Run(empty, 0, 10).ok());
  EXPECT_EQ(engine.ContainerOf(TagId::Item(1)), kNoTag);
  EXPECT_TRUE(engine.object_tags().empty());
}

TEST(RFInferTest, UnknownTagQueriesAreSafe) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  EXPECT_EQ(engine.ContainerOf(TagId::Item(9999)), kNoTag);
  EXPECT_EQ(engine.LocationOf(TagId::Item(9999), 10), kNoLocation);
  EXPECT_TRUE(engine.CandidatesOf(TagId::Item(9999)).empty());
  EXPECT_TRUE(engine.EvidenceSeries(TagId::Item(9999), w.c1).empty());
  EXPECT_TRUE(std::isinf(engine.WeightOf(TagId::Item(9999), w.c1)));
}

TEST(RFInferTest, PeriodicScheduleStillRecovers) {
  // Shelf-style schedule: readers scan every 10 epochs; containment must
  // still be recovered from the sparser evidence.
  auto model = ReadRateModel::Uniform(4, 0.9);
  InterrogationSchedule sched(4);
  for (LocationId r = 0; r < 4; ++r) sched.SetPeriodic(r, 10, 0);
  sched.Finalize(model);
  Rng rng(43);
  Trace trace;
  TagId c1 = TagId::Case(1), c2 = TagId::Case(2);
  const Epoch T = 600;
  SampleTag(model, sched, c1, ConstantPath(T, 0), rng, &trace);
  SampleTag(model, sched, c2, ConstantPath(T, 2), rng, &trace);
  std::vector<TagId> objs1, objs2;
  for (int i = 0; i < 3; ++i) {
    TagId o1 = TagId::Item(10 + static_cast<uint64_t>(i));
    TagId o2 = TagId::Item(20 + static_cast<uint64_t>(i));
    objs1.push_back(o1);
    objs2.push_back(o2);
    SampleTag(model, sched, o1, ConstantPath(T, 0), rng, &trace);
    SampleTag(model, sched, o2, ConstantPath(T, 2), rng, &trace);
  }
  trace.Seal();
  RFInfer engine(&model, &sched);
  ASSERT_TRUE(engine.Run(trace, 0, T - 1).ok());
  for (TagId o : objs1) EXPECT_EQ(engine.ContainerOf(o), c1);
  for (TagId o : objs2) EXPECT_EQ(engine.ContainerOf(o), c2);
}

// A container tag and its co-location score.
using RankedScores = std::vector<std::pair<TagId, double>>;

// Ranks the containers co-located with `object` in each of `ranges` with
// one scan of the ranges' union and one Rank call. The containers default
// to the trace's case tags, RFInfer's kind-derived roles.
std::vector<RankedScores> RankCoLocation(const Trace& t, TagId object,
                                         std::vector<EpochInterval> ranges,
                                         int k = 0, bool weighted = true,
                                         std::vector<TagId> containers = {}) {
  if (containers.empty()) {
    for (TagId tag : t.Tags()) {
      if (tag.is_case()) containers.push_back(tag);
    }
  }
  EpochInterval span = ranges.front();
  for (const EpochInterval& iv : ranges) {
    span.begin = std::min(span.begin, iv.begin);
    span.end = std::max(span.end, iv.end);
  }
  CoLocationCounter counter;
  counter.Scan(t, span, containers, weighted);
  CoLocationCounter::Scratch scratch;
  counter.Rank(t.HistoryOf(object), ranges, k, &scratch);
  std::vector<RankedScores> out(ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    for (const ScoredContainer& sc : scratch.ranked[r]) {
      out[r].emplace_back(containers[sc.container], sc.score);
    }
  }
  return out;
}

// Score of (object, container) over epochs [begin, end]; 0 when the pair
// was never co-located there.
double CountOf(const Trace& t, TagId object, TagId container, Epoch begin,
               Epoch end, bool weighted = true) {
  const std::vector<RankedScores> ranked =
      RankCoLocation(t, object, {{begin, end}}, 0, weighted);
  for (const auto& [tag, score] : ranked[0]) {
    if (tag == container) return score;
  }
  return 0.0;
}

TEST(CoLocationTest, CountsSameReaderSameEpoch) {
  Trace t;
  t.Add(RawReading{1, TagId::Item(1), 0});
  t.Add(RawReading{1, TagId::Case(1), 0});
  t.Add(RawReading{1, TagId::Case(2), 1});  // different reader
  t.Add(RawReading{2, TagId::Item(1), 0});
  t.Add(RawReading{2, TagId::Case(1), 0});
  t.Seal();
  EXPECT_EQ(CountOf(t, TagId::Item(1), TagId::Case(1), 0, 10), 2);
  EXPECT_EQ(CountOf(t, TagId::Item(1), TagId::Case(2), 0, 10), 0);
}

TEST(CoLocationTest, TopCandidatesOrdered) {
  Trace t;
  for (int i = 0; i < 5; ++i) {
    t.Add(RawReading{i, TagId::Item(1), 0});
    t.Add(RawReading{i, TagId::Case(1), 0});
    if (i < 2) t.Add(RawReading{i, TagId::Case(2), 0});
  }
  t.Seal();
  const RankedScores top = RankCoLocation(t, TagId::Item(1), {{0, 10}}, 2)[0];
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, TagId::Case(1));
  // Exclusivity weighting: 3 exclusive epochs at weight 1 plus 2 shared
  // epochs at weight 1/2.
  EXPECT_DOUBLE_EQ(top[0].second, 4.0);
  EXPECT_EQ(top[1].first, TagId::Case(2));
  EXPECT_DOUBLE_EQ(top[1].second, 1.0);
  EXPECT_EQ(RankCoLocation(t, TagId::Item(1), {{0, 10}}, 1)[0].size(), 1u);
}

TEST(CoLocationTest, UnweightedCountsMatchPaper) {
  Trace t;
  for (int i = 0; i < 5; ++i) {
    t.Add(RawReading{i, TagId::Item(1), 0});
    t.Add(RawReading{i, TagId::Case(1), 0});
    if (i < 2) t.Add(RawReading{i, TagId::Case(2), 0});
  }
  t.Seal();
  EXPECT_DOUBLE_EQ(CountOf(t, TagId::Item(1), TagId::Case(1), 0, 10,
                           /*weighted=*/false),
                   5.0);
  EXPECT_DOUBLE_EQ(CountOf(t, TagId::Item(1), TagId::Case(2), 0, 10,
                           /*weighted=*/false),
                   2.0);
}

TEST(CoLocationTest, WindowRestricts) {
  Trace t;
  for (int i = 0; i < 10; ++i) {
    t.Add(RawReading{i, TagId::Item(1), 0});
    t.Add(RawReading{i, TagId::Case(1), 0});
  }
  // A second reader pairs Item(2) with Case(2) before, inside, at the
  // edges of, and after the windows below.
  for (Epoch e : {1, 2, 4, 6, 8}) {
    t.Add(RawReading{e, TagId::Item(2), 1});
    t.Add(RawReading{e, TagId::Case(2), 1});
  }
  t.Seal();
  const TagId i1 = TagId::Item(1), c1 = TagId::Case(1);
  const TagId i2 = TagId::Item(2), c2 = TagId::Case(2);
  EXPECT_EQ(CountOf(t, i1, c1, 3, 5), 3);
  EXPECT_EQ(CountOf(t, i2, c2, 3, 5), 1);
  // Both window edges are inclusive.
  EXPECT_EQ(CountOf(t, i1, c1, 2, 6), 5);
  EXPECT_EQ(CountOf(t, i2, c2, 2, 6), 3);
  // Windows reaching past either end of the trace.
  EXPECT_EQ(CountOf(t, i1, c1, 9, 20), 1);
  EXPECT_EQ(CountOf(t, i2, c2, 9, 20), 0);
  EXPECT_EQ(CountOf(t, i1, c1, -5, 0), 1);
  EXPECT_EQ(CountOf(t, i2, c2, -5, 0), 0);
}

TEST(CoLocationTest, NestedRangesInOneCallMatchOneRangeCalls) {
  // Every epoch of [0, 24] has a burst at reader 0 with the object and one
  // to three of four containers, so every range edge below falls on one.
  Trace t;
  const TagId object = TagId::Item(1);
  for (Epoch e = 0; e <= 24; ++e) {
    t.Add(RawReading{e, object, 0});
    for (uint64_t c = 0; c < 4; ++c) {
      if ((static_cast<uint64_t>(e) + c) % 3 != 0 || c == 0) {
        t.Add(RawReading{e, TagId::Case(c + static_cast<uint64_t>(e % 2)),
                         0});
      }
    }
    // A burst at another reader without the object.
    t.Add(RawReading{e, TagId::Case(9), 1});
  }
  t.Seal();
  const std::vector<EpochInterval> ranges = {{2, 20}, {2, 9}, {9, 20}};
  const std::vector<RankedScores> together =
      RankCoLocation(t, object, ranges);
  for (size_t r = 0; r < ranges.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "range " << r);
    EXPECT_EQ(together[r], RankCoLocation(t, object, {ranges[r]})[0]);
    // From scratch: each burst with the object adds 1/k to each of its k
    // containers, in burst order.
    std::map<TagId, double> want;
    for (Epoch e = ranges[r].begin; e <= ranges[r].end; ++e) {
      std::vector<TagId> burst;
      for (const RawReading& rd : t.readings()) {
        if (rd.time == e && rd.reader == 0 && rd.tag.is_case()) {
          burst.push_back(rd.tag);
        }
      }
      for (TagId c : burst) {
        want[c] += 1.0 / static_cast<double>(burst.size());
      }
    }
    ASSERT_EQ(together[r].size(), want.size());
    for (const auto& [tag, score] : together[r]) {
      EXPECT_EQ(score, want[tag]) << tag.ToString();
    }
  }
}

TEST(CoLocationTest, ExplicitRolesIgnoreTagsInNeitherRole) {
  // The pallet level's roles: pallets contain cases. Case(9) and Item(5)
  // are read with the object but are in neither role.
  Trace t;
  const TagId object = TagId::Case(2);
  for (TagId tag : {object, TagId::Pallet(1), TagId::Case(9), TagId::Item(5)}) {
    t.Add(RawReading{1, tag, 0});
  }
  for (TagId tag : {object, TagId::Pallet(1), TagId::Pallet(2)}) {
    t.Add(RawReading{2, tag, 0});
  }
  t.Seal();
  const RankedScores ranked =
      RankCoLocation(t, object, {{0, 5}}, 0, true,
                     {TagId::Pallet(1), TagId::Pallet(2)})[0];
  // Only containers count toward the 1/k weight: epoch 1 has one.
  const RankedScores want = {{TagId::Pallet(1), 1.5},
                             {TagId::Pallet(2), 0.5}};
  EXPECT_EQ(ranked, want);
}

TEST(CoLocationTest, EqualScoresRankByTag) {
  Trace t;
  const TagId object = TagId::Item(1);
  // One exclusive burst each with Case(7), Case(3) and Case(5); two with
  // Case(9).
  Epoch e = 0;
  for (uint64_t c : {7, 3, 9, 5, 9}) {
    t.Add(RawReading{e, object, 0});
    t.Add(RawReading{e, TagId::Case(c), 0});
    ++e;
  }
  t.Seal();
  const RankedScores all = RankCoLocation(t, object, {{0, e}})[0];
  const RankedScores want = {{TagId::Case(9), 2.0},
                             {TagId::Case(3), 1.0},
                             {TagId::Case(5), 1.0},
                             {TagId::Case(7), 1.0}};
  EXPECT_EQ(all, want);
  const RankedScores top2 = RankCoLocation(t, object, {{0, e}}, 2)[0];
  EXPECT_EQ(top2, RankedScores(want.begin(), want.begin() + 2));
}

TEST(CalibrationTest, ThresholdIsPositiveAndSuppressesFalsePositives) {
  auto model = ReadRateModel::Uniform(4, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(4);
  sched.Finalize(model);
  CalibrationConfig cfg;
  cfg.num_samples = 6;
  cfg.horizon = 200;
  Rng rng(47);
  double delta = CalibrateChangeThreshold(model, sched, cfg, rng);
  EXPECT_GT(delta, 0.0);

  // A fresh no-change world should produce no detections at this threshold.
  TwoContainerWorld w(0.8, 3, 200, /*seed=*/51);
  RFInfer engine(&model, &sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  auto changes = engine.DetectChangePoints(delta);
  EXPECT_LE(changes.size(), 1u);  // at most a rare straggler
}

TEST(MigrationStateTest, EncodeDecodeRoundTrip) {
  std::vector<ObjectMigrationState> states(2);
  states[0].object = TagId::Item(1);
  states[0].container = TagId::Case(1);
  states[0].barrier = 42;
  states[0].critical_region = EpochInterval{10, 40};
  states[0].weights = {{TagId::Case(1), -12.5}, {TagId::Case(2), -99.25}};
  states[0].readings = {RawReading{5, TagId::Item(1), 3},
                        RawReading{7, TagId::Case(1), 3}};
  states[1].object = TagId::Item(2);
  states[1].container = kNoTag;
  auto bytes = EncodeMigrationStates(states);
  auto decoded = DecodeMigrationStates(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  const auto& s0 = (*decoded)[0];
  EXPECT_EQ(s0.object, TagId::Item(1));
  EXPECT_EQ(s0.container, TagId::Case(1));
  EXPECT_EQ(s0.barrier, 42);
  ASSERT_TRUE(s0.critical_region.has_value());
  EXPECT_EQ(s0.critical_region->begin, 10);
  EXPECT_EQ(s0.critical_region->end, 40);
  ASSERT_EQ(s0.weights.size(), 2u);
  EXPECT_EQ(s0.weights[1].first, TagId::Case(2));
  EXPECT_DOUBLE_EQ(s0.weights[1].second, -99.25);
  EXPECT_EQ(s0.readings.size(), 2u);
  EXPECT_EQ(s0.readings[1].tag, TagId::Case(1));
  EXPECT_FALSE((*decoded)[1].critical_region.has_value());
  EXPECT_EQ((*decoded)[1].container, kNoTag);
}

TEST(MigrationStateTest, CorruptBytesRejected) {
  std::vector<uint8_t> garbage{9, 9, 9};
  EXPECT_FALSE(DecodeMigrationStates(garbage).ok());
}

TEST(EvaluateTest, ContainmentErrorAgainstTruth) {
  TwoContainerWorld w;
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  GroundTruth truth;
  for (TagId o : w.objs1) truth.Set(o, 0, 0, w.c1);
  for (TagId o : w.objs2) truth.Set(o, 0, 2, w.c2);
  truth.Finish(w.horizon);
  std::vector<TagId> objects = w.objs1;
  objects.insert(objects.end(), w.objs2.begin(), w.objs2.end());
  EXPECT_DOUBLE_EQ(
      ContainmentErrorPercent(engine, truth, objects, w.horizon - 1), 0.0);
}

TEST(EvaluateTest, ChangeDetectionFMeasure) {
  std::vector<ChangePointResult> reported(2);
  reported[0] = {TagId::Item(1), 100, TagId::Case(1), TagId::Case(2), 50.0};
  reported[1] = {TagId::Item(9), 100, TagId::Case(1), TagId::Case(2), 50.0};
  std::vector<TrueChange> truth = {
      {105, TagId::Item(1), TagId::Case(2)},
      {200, TagId::Item(2), TagId::Case(3)},
  };
  FMeasure fm = ScoreChangeDetection(reported, truth, 30);
  EXPECT_EQ(fm.tp(), 1);
  EXPECT_EQ(fm.fp(), 1);
  EXPECT_EQ(fm.fn(), 1);
  EXPECT_DOUBLE_EQ(fm.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(fm.Recall(), 0.5);
}

TEST(EvaluateTest, ToleranceMatters) {
  std::vector<ChangePointResult> reported(1);
  reported[0] = {TagId::Item(1), 100, TagId::Case(1), TagId::Case(2), 50.0};
  std::vector<TrueChange> truth = {{160, TagId::Item(1), TagId::Case(2)}};
  EXPECT_EQ(ScoreChangeDetection(reported, truth, 30).tp(), 0);
  EXPECT_EQ(ScoreChangeDetection(reported, truth, 100).tp(), 1);
}

// Parameterized read-rate sweep: containment recovery must hold across the
// paper's RR range with stable containment (Figure 6(a) qualitatively).
class ReadRateSweepTest : public testing::TestWithParam<double> {};

TEST_P(ReadRateSweepTest, RecoversAcrossReadRates) {
  const double rr = GetParam();
  TwoContainerWorld w(rr, 4, 400, /*seed=*/1000 + static_cast<uint64_t>(
                                              rr * 100));
  RFInfer engine(&w.model, &w.sched);
  ASSERT_TRUE(engine.Run(w.trace, 0, w.horizon - 1).ok());
  int errors = 0;
  for (TagId o : w.objs1) {
    if (engine.ContainerOf(o) != w.c1) ++errors;
  }
  for (TagId o : w.objs2) {
    if (engine.ContainerOf(o) != w.c2) ++errors;
  }
  EXPECT_EQ(errors, 0) << "read rate " << rr;
}

INSTANTIATE_TEST_SUITE_P(ReadRates, ReadRateSweepTest,
                         testing::Values(0.6, 0.7, 0.8, 0.9, 1.0));

// FNV-1a over 64-bit words: doubles enter as their raw bit patterns, so
// the digest moves if any result moves by even one ulp.
struct BitDigest {
  uint64_t h = 1469598103934665603ULL;
  void Word(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void Int(int64_t x) { Word(static_cast<uint64_t>(x)); }
  void Double(double x) { Word(std::bit_cast<uint64_t>(x)); }
  void Tag(TagId t) { Word(t.raw()); }
};

// Pins the exact output of the streaming inference loop -- change points,
// stored critical regions and gaps, exported weights, and the per-iteration
// likelihood -- over 25 boundaries with change detection and critical-region
// truncation. Any kernel rewrite must reproduce it bit for bit, serially and
// with the engine's loops split across a 4-thread pool. The constant was
// re-pinned when StreamingInference began forgetting objects that left the
// site: each run's objects are then only those read in its window, and an
// object forgotten at the end of a run exports no stored context and
// answers ContainerOf without its change override.
TEST(InferenceIntegrationTest, StreamingOutputIsBitIdenticalToPinnedDigest) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 3;
  cfg.items_per_case = 6;
  cfg.shelf_stay = 500;
  cfg.anomaly_interval = 120;
  cfg.horizon = 1500;
  cfg.seed = 5;
  SupplyChainSim sim(cfg);
  sim.Run();

  StreamingOptions opts;
  opts.inference_period = 60;
  opts.truncation = TruncationMethod::kCriticalRegion;
  opts.recent_history = 300;
  opts.detect_changes = true;

  for (int threads : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::unique_ptr<SiteExecutor> pool;
    if (threads > 0) pool = std::make_unique<SiteExecutor>(threads);
    StreamingInference si(&sim.model(), &sim.schedule(), opts);
    si.set_pool(pool.get());

    BitDigest d;
    size_t regions = 0;
    const std::vector<RawReading>& rs = sim.site_trace(0).readings();
    size_t cursor = 0;
    for (Epoch b = opts.inference_period; b <= cfg.horizon;
         b += opts.inference_period) {
      const size_t begin = cursor;
      while (cursor < rs.size() && rs[cursor].time <= b) ++cursor;
      si.ObserveBatch(rs.data() + begin, cursor - begin);
      ASSERT_EQ(si.AdvanceTo(b), 1);
      for (double ll : si.engine().likelihood_history()) d.Double(ll);
      for (TagId o : si.engine().object_tags()) {
        const ObjectContext ctx = si.ExportObjectContext(o);
        d.Tag(o);
        d.Int(ctx.barrier);
        d.Int(ctx.critical_region.has_value() ? 1 : 0);
        if (ctx.critical_region.has_value()) {
          ++regions;
          d.Int(ctx.critical_region->begin);
          d.Int(ctx.critical_region->end);
        }
        d.Double(ctx.critical_region_gap);
        for (const auto& [c, w] : si.engine().ExportWeights(o)) {
          d.Tag(c);
          d.Double(w);
        }
        d.Tag(si.ContainerOf(o));
      }
    }
    for (const ChangePointResult& cp : si.all_changes()) {
      d.Tag(cp.object);
      d.Int(cp.time);
      d.Tag(cp.old_container);
      d.Tag(cp.new_container);
      d.Double(cp.delta);
    }
    EXPECT_EQ(si.runs(), 25);
    EXPECT_FALSE(si.all_changes().empty());
    EXPECT_GT(regions, 0u);
    EXPECT_EQ(d.h, 0x2c7ea6d2a940bea3ULL) << std::hex << "digest 0x" << d.h;
  }
}

// What a test can see of one container's epoch universe in a run: the
// universe is the window plus the part of each candidate object's critical
// region that survives the object's barrier and first reading, so it lies
// inside `hull` (the window and the installed regions of the objects that
// list the container), and it holds `held` (the window's first epoch and
// the evidence events of those objects).
struct UniverseBound {
  std::vector<EpochInterval> hull;
  std::vector<Epoch> held;

  // A lower bound on the universe's interval count: each interval of the
  // hull that holds a held epoch holds at least one interval of it.
  int IntervalsAtLeast() {
    std::sort(hull.begin(), hull.end(),
              [](const EpochInterval& a, const EpochInterval& b) {
                return a.begin < b.begin;
              });
    std::vector<EpochInterval> merged;
    for (const EpochInterval& iv : hull) {
      if (!merged.empty() && iv.begin <= merged.back().end + 1) {
        merged.back().end = std::max(merged.back().end, iv.end);
      } else {
        merged.push_back(iv);
      }
    }
    int n = 0;
    for (const EpochInterval& iv : merged) {
      n += std::any_of(held.begin(), held.end(),
                       [&](Epoch t) { return iv.Contains(t); })
               ? 1
               : 0;
    }
    return n;
  }
};

// Pins what the M-step and the evidence pass read from the E-step's
// posteriors: every object's exported weights, the point and cumulative
// evidence series of every (object, candidate) pair, every object's change
// statistic, the critical-region search's windows and gaps, and the
// per-iteration likelihood. The stream keeps critical regions behind the
// window and installs change-point barriers, so some container universes
// have holes and posterior lookups cross them. Serial and on a 4-thread
// pool.
TEST(InferenceIntegrationTest,
     EvidenceOverHoledUniversesIsBitIdenticalToPinnedDigest) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 3;
  cfg.items_per_case = 6;
  cfg.shelf_stay = 500;
  cfg.anomaly_interval = 120;
  cfg.horizon = 1500;
  cfg.seed = 5;
  SupplyChainSim sim(cfg);
  sim.Run();

  StreamingOptions opts;
  opts.inference_period = 60;
  opts.truncation = TruncationMethod::kCriticalRegion;
  opts.recent_history = 300;
  opts.detect_changes = true;

  for (int threads : {0, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::unique_ptr<SiteExecutor> pool;
    if (threads > 0) pool = std::make_unique<SiteExecutor>(threads);
    StreamingInference si(&sim.model(), &sim.schedule(), opts);
    si.set_pool(pool.get());

    BitDigest d;
    int most_intervals = 0;
    size_t barrier_installs = 0;
    const std::vector<RawReading>& rs = sim.site_trace(0).readings();
    size_t cursor = 0;
    for (Epoch b = opts.inference_period; b <= cfg.horizon;
         b += opts.inference_period) {
      // The critical regions this run's universes are built from.
      std::map<TagId, std::optional<EpochInterval>> installed;
      for (TagId o : sim.all_items()) {
        const ObjectContext ctx = si.ExportObjectContext(o);
        installed[o] = ctx.critical_region;
        if (ctx.barrier >= 0) ++barrier_installs;
      }
      const size_t begin = cursor;
      while (cursor < rs.size() && rs[cursor].time <= b) ++cursor;
      si.ObserveBatch(rs.data() + begin, cursor - begin);
      ASSERT_EQ(si.AdvanceTo(b), 1);

      const RFInfer& engine = si.engine();
      for (double ll : engine.likelihood_history()) d.Double(ll);
      const std::unordered_map<TagId, CriticalRegion> regions =
          engine.FindCriticalRegions(60, 25.0);
      std::map<TagId, UniverseBound> bounds;
      for (TagId c : engine.container_tags()) {
        bounds[c].hull.push_back(engine.window());
        bounds[c].held.push_back(engine.window().begin);
      }
      for (TagId o : engine.object_tags()) {
        d.Tag(o);
        d.Double(engine.ChangeStatistic(o));
        auto cr = regions.find(o);
        d.Int(cr != regions.end() ? 1 : 0);
        if (cr != regions.end()) {
          d.Int(cr->second.window.begin);
          d.Int(cr->second.window.end);
          d.Double(cr->second.gap);
        }
        for (const auto& [c, w] : engine.ExportWeights(o)) {
          d.Tag(c);
          d.Double(w);
          UniverseBound& bound = bounds[c];
          if (installed[o].has_value()) bound.hull.push_back(*installed[o]);
          for (const EvidencePoint& p : engine.EvidenceSeries(o, c)) {
            d.Int(p.time);
            d.Double(p.point);
            d.Double(p.cumulative);
            bound.held.push_back(p.time);
          }
        }
      }
      for (auto& [c, bound] : bounds) {
        most_intervals = std::max(most_intervals, bound.IntervalsAtLeast());
      }
    }
    EXPECT_EQ(si.runs(), 25);
    EXPECT_GT(barrier_installs, 0u);
    EXPECT_GE(most_intervals, 3);
    EXPECT_EQ(d.h, 0xdbfdc25dd8198a76ULL) << std::hex << "digest 0x" << d.h;
  }
}

// Integration: full supply-chain trace, stable containment.
TEST(InferenceIntegrationTest, SupplyChainStableContainment) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 1;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 3;
  cfg.items_per_case = 10;
  cfg.shelf_stay = 400;
  cfg.horizon = 800;
  cfg.seed = 7;
  SupplyChainSim sim(cfg);
  sim.Run();
  auto trace = sim.site_trace(0);

  RFInfer engine(&sim.model(), &sim.schedule());
  ASSERT_TRUE(engine.Run(trace, 0, cfg.horizon).ok());
  double err = ContainmentErrorPercent(engine, sim.truth(), sim.all_items(),
                                       cfg.horizon - 1);
  EXPECT_LT(err, 10.0);
  double loc_err = LocationErrorPercent(engine, sim.truth(), sim.all_items(),
                                        cfg.horizon / 2, cfg.horizon - 1);
  EXPECT_LT(loc_err, 10.0);
}

}  // namespace
}  // namespace rfid
