// Unit tests for the probabilistic model: read-rate tables, log kernels,
// interrogation schedules, and generative sampling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/log_space.h"
#include "common/rng.h"
#include "model/generative.h"
#include "model/read_rate.h"
#include "model/schedule.h"
#include "trace/trace.h"

namespace rfid {
namespace {

TEST(ReadRateModelTest, UniformDiagonal) {
  auto m = ReadRateModel::Uniform(4, 0.8);
  for (LocationId r = 0; r < 4; ++r) {
    for (LocationId a = 0; a < 4; ++a) {
      if (r == a) {
        EXPECT_DOUBLE_EQ(m.Rate(r, a), 0.8);
      } else {
        EXPECT_DOUBLE_EQ(m.Rate(r, a), 0.0);
      }
    }
  }
}

TEST(ReadRateModelTest, LogKernelsConsistent) {
  auto m = ReadRateModel::Uniform(3, 0.7);
  EXPECT_NEAR(m.LogRead(0, 0), std::log(0.7), 1e-12);
  EXPECT_NEAR(m.LogMiss(0, 0), std::log(0.3), 1e-12);
  EXPECT_NEAR(m.LogReadAdjust(0, 0), std::log(0.7) - std::log(0.3), 1e-12);
  // Off-diagonal rates are floored, not exactly zero, in log space.
  EXPECT_NEAR(m.LogRead(0, 1), std::log(kProbFloor), 1e-9);
}

TEST(ReadRateModelTest, LogMissAllSumsOverReaders) {
  auto m = ReadRateModel::Uniform(3, 0.7);
  double expected = std::log(0.3) + 2 * std::log1p(-kProbFloor);
  EXPECT_NEAR(m.LogMissAll(0), expected, 1e-9);
}

TEST(ReadRateModelTest, FromTableValidates) {
  EXPECT_FALSE(ReadRateModel::FromTable({}).ok());
  EXPECT_FALSE(ReadRateModel::FromTable({{0.5, 0.5}, {0.5}}).ok());
  EXPECT_FALSE(ReadRateModel::FromTable({{1.5}}).ok());
  auto ok = ReadRateModel::FromTable({{0.9, 0.1}, {0.0, 0.8}});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->Rate(0, 1), 0.1);
}

TEST(ReadRateModelTest, SetRateRequiresRefinalize) {
  auto m = ReadRateModel::Uniform(2, 0.5);
  EXPECT_TRUE(m.finalized());
  m.SetRate(0, 1, 0.3);
  EXPECT_FALSE(m.finalized());
  m.FinalizeLogTables();
  EXPECT_TRUE(m.finalized());
  EXPECT_NEAR(m.LogRead(0, 1), std::log(0.3), 1e-12);
}

TEST(ScheduleTest, AlwaysOnHasOneClass) {
  auto m = ReadRateModel::Uniform(3, 0.8);
  auto s = InterrogationSchedule::AlwaysOn(3);
  s.Finalize(m);
  EXPECT_EQ(s.num_classes(), 1);
  EXPECT_TRUE(s.ActiveAt(0, 0));
  EXPECT_TRUE(s.ActiveAt(2, 12345));
  EXPECT_NEAR(s.LogMissAllClass(0, 0), m.LogMissAll(0), 1e-12);
}

TEST(ScheduleTest, PeriodicActivePattern) {
  auto m = ReadRateModel::Uniform(2, 0.8);
  InterrogationSchedule s(2);
  s.SetPeriodic(0, 1, 0);
  s.SetPeriodic(1, 10, 0);
  s.Finalize(m);
  EXPECT_EQ(s.cycle(), 10);
  EXPECT_TRUE(s.ActiveAt(1, 0));
  EXPECT_FALSE(s.ActiveAt(1, 1));
  EXPECT_TRUE(s.ActiveAt(1, 10));
  EXPECT_TRUE(s.ActiveAt(0, 7));
}

TEST(ScheduleTest, LogMissAllExcludesInactiveReaders) {
  auto m = ReadRateModel::Uniform(2, 0.8);
  InterrogationSchedule s(2);
  s.SetPeriodic(0, 1, 0);
  s.SetPeriodic(1, 10, 0);
  s.Finalize(m);
  // At class 0 both readers scan; location 1's miss-all includes log(0.2).
  // At class 1 only reader 0 scans; location 1 sees only the floor term.
  double cls0 = s.LogMissAllClass(1, 0);
  double cls1 = s.LogMissAllClass(1, 1);
  EXPECT_LT(cls0, cls1);
  EXPECT_NEAR(cls1, std::log1p(-kProbFloor), 1e-9);
}

TEST(ScheduleTest, WindowedMobilePattern) {
  auto m = ReadRateModel::Uniform(3, 0.8);
  InterrogationSchedule s(3);
  // Mobile reader: 2 shelves, 5-epoch dwell each, 10-epoch sweep.
  s.SetWindowed(0, 10, 0, 5);
  s.SetWindowed(1, 10, 5, 5);
  s.SetPeriodic(2, 1, 0);
  s.Finalize(m);
  EXPECT_EQ(s.cycle(), 10);
  EXPECT_TRUE(s.ActiveAt(0, 3));
  EXPECT_FALSE(s.ActiveAt(0, 5));
  EXPECT_TRUE(s.ActiveAt(1, 5));
  EXPECT_FALSE(s.ActiveAt(1, 14));
  EXPECT_TRUE(s.ActiveAt(1, 15));
}

TEST(ScheduleTest, ForEachClassCount) {
  auto m = ReadRateModel::Uniform(1, 0.8);
  InterrogationSchedule s(1);
  s.SetPeriodic(0, 10, 0);
  s.Finalize(m);
  auto count = [&](int cls, Epoch begin, Epoch end) {
    int64_t n = 0;
    s.ForEachClassCount(begin, end, [&](int c, int64_t k) {
      EXPECT_GT(k, 0);
      if (c == cls) n = k;
    });
    return n;
  };
  // Class 3 epochs in [0, 99]: 3, 13, ..., 93 -> 10 epochs.
  EXPECT_EQ(count(3, 0, 99), 10);
  EXPECT_EQ(count(3, 4, 12), 0);
  EXPECT_EQ(count(3, 3, 3), 1);
  EXPECT_EQ(count(3, 5, 3), 0);
  EXPECT_EQ(count(9, 18, 38), 2);  // 19 and 29; the range starts mid-cycle
  EXPECT_EQ(count(3, -20, 5), 1);  // epochs before 0 are not counted
  // All classes partition the range, visited in ascending order.
  int64_t total = 0;
  int last = -1;
  s.ForEachClassCount(17, 473, [&](int c, int64_t k) {
    EXPECT_GT(c, last);
    last = c;
    total += k;
  });
  EXPECT_EQ(total, 473 - 17 + 1);
}

TEST(GenerativeTest, ReadFrequencyMatchesRate) {
  auto m = ReadRateModel::Uniform(2, 0.6);
  GenerativeScenario scenario;
  scenario.container = TagId::Case(0);
  scenario.objects = {TagId::Item(0)};
  scenario.location_path.assign(2000, 1);  // parked at location 1
  Rng rng(5);
  Trace trace;
  SampleReadings(m, scenario, rng, &trace);
  trace.Seal();
  // Expected reads of the container by reader 1: ~0.6 * 2000.
  int64_t hits = 0;
  for (const TagRead& tr : trace.HistoryOf(scenario.container)) {
    EXPECT_EQ(tr.reader, 1);  // only reader 1 covers location 1
    ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 2000.0, 0.6, 0.05);
}

TEST(GenerativeTest, NoLocationEpochsProduceNothing) {
  auto m = ReadRateModel::Uniform(2, 1.0);
  GenerativeScenario scenario;
  scenario.container = TagId::Case(0);
  scenario.location_path.assign(10, kNoLocation);
  Rng rng(5);
  Trace trace;
  SampleReadings(m, scenario, rng, &trace);
  trace.Seal();
  EXPECT_TRUE(trace.empty());
}

TEST(GenerativeTest, RandomPathStaysInRange) {
  Rng rng(5);
  auto path = RandomLocationPath(5, 500, 0.1, rng);
  ASSERT_EQ(path.size(), 500u);
  int moves = 0;
  for (size_t i = 0; i < path.size(); ++i) {
    EXPECT_GE(path[i], 0);
    EXPECT_LT(path[i], 5);
    if (i > 0 && path[i] != path[i - 1]) ++moves;
  }
  EXPECT_GT(moves, 10);  // move_prob 0.1 over 500 epochs
}

}  // namespace
}  // namespace rfid
