// Tests for the example continuous queries (Q1/Q2), sensor simulation, and
// centroid-based query-state sharing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/queries.h"
#include "query/state_sharing.h"
#include "sim/sensors.h"

namespace rfid {
namespace {

ProductCatalog MakeCatalog() {
  ProductCatalog catalog;
  catalog.RegisterProduct(TagId::Item(1),
                          ProductInfo{"frozen_food", true, false, false});
  catalog.RegisterProduct(TagId::Item(2),
                          ProductInfo{"screwdriver", false, false, false});
  catalog.RegisterProduct(TagId::Item(3),
                          ProductInfo{"frozen_peas", true, false, false});
  catalog.RegisterContainer(TagId::Case(1),
                            ContainerInfo{ContainerClass::kFreezer});
  catalog.RegisterContainer(TagId::Case(2),
                            ContainerInfo{ContainerClass::kPlain});
  return catalog;
}

ExposureQueryConfig ShortQ1() {
  ExposureQueryConfig cfg = ExposureQuery::Q1Config(/*duration=*/100);
  cfg.max_gap = 50;
  return cfg;
}

void WarmSensors(ExposureQuery& q, double temp, int n_locs = 4) {
  for (LocationId loc = 0; loc < n_locs; ++loc) {
    q.OnSensor(SensorReading{0, loc, temp});
  }
}

TEST(ExposureQueryTest, AlertsOnExposedFrozenProduct) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);
  // Frozen item in a PLAIN case at 20 C for >100 epochs.
  for (Epoch t = 10; t <= 130; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  ASSERT_EQ(q.alerts().size(), 1u);
  EXPECT_EQ(q.alerts()[0].tag, TagId::Item(1));
  EXPECT_EQ(q.alerts()[0].first_time, 10);
}

TEST(ExposureQueryTest, FreezerContainerSuppressesAlert) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);
  for (Epoch t = 10; t <= 200; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(1)});
  }
  EXPECT_TRUE(q.alerts().empty());
}

TEST(ExposureQueryTest, NullContainerCountsAsExposed) {
  // Q1's "or R.container = NULL" branch.
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);
  for (Epoch t = 10; t <= 130; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, kNoTag});
  }
  EXPECT_EQ(q.alerts().size(), 1u);
}

TEST(ExposureQueryTest, ColdLocationSuppressesAlert) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, -15.0);  // everything is refrigerated
  for (Epoch t = 10; t <= 200; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  EXPECT_TRUE(q.alerts().empty());
}

TEST(ExposureQueryTest, NonFrozenProductIgnored) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);
  for (Epoch t = 10; t <= 200; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(2), 2, TagId::Case(2)});
  }
  EXPECT_TRUE(q.alerts().empty());
}

TEST(ExposureQueryTest, Q2IgnoresContainment) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQueryConfig cfg = ExposureQuery::Q2Config(/*duration=*/100);
  cfg.max_gap = 50;
  ExposureQuery q(&catalog, cfg);
  WarmSensors(q, 20.0);  // above Q2's 10-degree threshold
  // Even inside a freezer-class case, Q2 only checks location temperature.
  for (Epoch t = 10; t <= 130; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(1)});
  }
  EXPECT_EQ(q.alerts().size(), 1u);
}

TEST(ExposureQueryTest, Q2TemperatureThreshold) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQueryConfig cfg = ExposureQuery::Q2Config(/*duration=*/100);
  cfg.max_gap = 50;
  ExposureQuery q(&catalog, cfg);
  WarmSensors(q, 5.0);  // above freezing but below Q2's 10 degrees
  for (Epoch t = 10; t <= 200; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  EXPECT_TRUE(q.alerts().empty());
}

TEST(ExposureQueryTest, SensorUpdateChangesJoin) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);
  for (Epoch t = 10; t <= 60; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  // The room cools below freezing: run lapses (no events pass the filter),
  // so no alert ever fires.
  q.OnSensor(SensorReading{65, 2, -5.0});
  for (Epoch t = 70; t <= 300; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  EXPECT_TRUE(q.alerts().empty());
}

TEST(ExposureQueryTest, StateExportImportAcrossInstances) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery site_a(&catalog, ShortQ1());
  WarmSensors(site_a, 20.0);
  for (Epoch t = 10; t <= 60; t += 10) {
    site_a.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  // The migration payload, byte for byte: phase, zigzag first/last time,
  // log size, then (zigzag time delta, little-endian double) per event.
  const std::vector<uint8_t> kEntry{0x14, 0, 0, 0, 0, 0, 0, 0x34, 0x40};
  std::vector<uint8_t> expected{0x01, 0x14, 0x78, 0x06};
  for (int i = 0; i < 6; ++i) {
    expected.insert(expected.end(), kEntry.begin(), kEntry.end());
  }
  EXPECT_EQ(site_a.ExportState(TagId::Item(1)), expected);
  auto bytes = site_a.TakeState(TagId::Item(1));
  EXPECT_EQ(bytes, expected);
  EXPECT_TRUE(site_a.StatefulObjects().empty());

  ExposureQuery site_b(&catalog, ShortQ1());
  WarmSensors(site_b, 20.0);
  ASSERT_TRUE(site_b.ImportState(TagId::Item(1), bytes).ok());
  for (Epoch t = 70; t <= 120; t += 10) {
    site_b.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  ASSERT_EQ(site_b.alerts().size(), 1u);
  EXPECT_EQ(site_b.alerts()[0].first_time, 10);  // run began on site A
}

TEST(ExposureQueryTest, EventAtUnsampledLocationStartsNoRun) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);  // locations 0-3 only
  for (Epoch t = 10; t <= 200; t += 10) {
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 7, TagId::Case(2)});
  }
  EXPECT_TRUE(q.alerts().empty());
  EXPECT_TRUE(q.StatefulObjects().empty());
}

TEST(ExposureQueryTest, SampleLeavesOtherLocationsJoinUnchanged) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  WarmSensors(q, 20.0);
  for (Epoch t = 10; t <= 130; t += 10) {
    // Location 3 cools below freezing; location 2 stays warm.
    if (t == 50) q.OnSensor(SensorReading{t, 3, -5.0});
    q.OnEvent(ObjectEvent{t, TagId::Item(1), 2, TagId::Case(2)});
  }
  ASSERT_EQ(q.alerts().size(), 1u);
  EXPECT_EQ(q.alerts()[0].first_time, 10);
}

// The SEQ(A+) automaton alone: Q2 with a 100-epoch span and a 30-epoch gap
// bound, every location at 20 degrees, so each frozen-item event matches.
ExposureQuery SeqQuery(const ProductCatalog* catalog) {
  ExposureQueryConfig cfg = ExposureQuery::Q2Config(/*duration=*/100);
  cfg.max_gap = 30;
  ExposureQuery q(catalog, cfg);
  WarmSensors(q, 20.0);
  return q;
}

void Match(ExposureQuery& q, Epoch t, TagId tag) {
  q.OnEvent(ObjectEvent{t, tag, 2, kNoTag});
}

PatternState StateOf(const ExposureQuery& q, TagId tag) {
  Result<PatternState> s = PatternState::Decode(q.ExportState(tag));
  EXPECT_TRUE(s.ok());
  return s.ok() ? *s : PatternState{};
}

TEST(ExposureQueryTest, FiresAfterDuration) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q = SeqQuery(&catalog);
  const TagId tag = TagId::Item(1);
  for (Epoch t = 0; t <= 120; t += 10) Match(q, t, tag);
  ASSERT_EQ(q.alerts().size(), 1u);
  EXPECT_EQ(q.alerts()[0].tag, tag);
  EXPECT_EQ(q.alerts()[0].first_time, 0);
  EXPECT_EQ(q.alerts()[0].last_time, 110);  // first span over 100
  EXPECT_EQ(q.alerts()[0].n_events, 12);    // epochs 0, 10, ..., 110
}

TEST(ExposureQueryTest, EmitsOncePerRun) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q = SeqQuery(&catalog);
  for (Epoch t = 0; t <= 300; t += 10) Match(q, t, TagId::Item(1));
  EXPECT_EQ(q.alerts().size(), 1u);
  EXPECT_EQ(StateOf(q, TagId::Item(1)).phase, RunPhase::kAlerted);
}

TEST(ExposureQueryTest, GapLapsesRun) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q = SeqQuery(&catalog);
  const TagId tag = TagId::Item(1);
  // Two 60-epoch runs separated by a 100-epoch gap: neither reaches the
  // 100-epoch duration, so no alert fires.
  for (Epoch t = 0; t <= 60; t += 10) Match(q, t, tag);
  for (Epoch t = 160; t <= 220; t += 10) Match(q, t, tag);
  EXPECT_TRUE(q.alerts().empty());
  // The lapsed run restarted: state shows the second run's origin and log.
  const PatternState s = StateOf(q, tag);
  EXPECT_EQ(s.first_time, 160);
  EXPECT_EQ(s.value_log.size(), 7u);
}

TEST(ExposureQueryTest, PartitionsIndependent) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q = SeqQuery(&catalog);
  for (Epoch t = 0; t <= 120; t += 10) {
    Match(q, t, TagId::Item(1));
    if (t <= 50) Match(q, t, TagId::Item(3));
  }
  ASSERT_EQ(q.alerts().size(), 1u);
  EXPECT_EQ(q.alerts()[0].tag, TagId::Item(1));
  EXPECT_EQ(q.StatefulObjects(),
            (std::vector<TagId>{TagId::Item(1), TagId::Item(3)}));
}

TEST(ExposureQueryTest, ValueLogAccumulates) {
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q = SeqQuery(&catalog);
  const TagId tag = TagId::Item(1);
  Match(q, 0, tag);
  q.OnSensor(SensorReading{5, 2, 21.0});
  Match(q, 10, tag);
  const PatternState s = StateOf(q, tag);
  EXPECT_EQ(s.phase, RunPhase::kAccumulating);
  ASSERT_EQ(s.value_log.size(), 2u);
  EXPECT_EQ(s.value_log[1].first, 10);
  EXPECT_DOUBLE_EQ(s.value_log[1].second, 21.0);
}

TEST(PatternStateTest, EncodeDecodeRoundTrip) {
  PatternState s;
  s.phase = RunPhase::kAccumulating;
  s.first_time = 100;
  s.last_time = 250;
  s.value_log = {{100, 20.5}, {150, 21.0}, {250, 19.0}};
  auto back = PatternState::Decode(s.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

TEST(PatternStateTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(PatternState::Decode({0x7f, 0x01}).ok());
  EXPECT_FALSE(PatternState::Decode({}).ok());
  // A valid phase with a truncated body.
  EXPECT_FALSE(PatternState::Decode({0x01, 0x14}).ok());
  // A well-formed state whose phase byte is one past kAlerted.
  std::vector<uint8_t> bad_phase = PatternState{}.Encode();
  bad_phase[0] = static_cast<uint8_t>(RunPhase::kAlerted) + 1;
  EXPECT_FALSE(PatternState::Decode(bad_phase).ok());
  // A query refuses it and installs nothing.
  ProductCatalog catalog = MakeCatalog();
  ExposureQuery q(&catalog, ShortQ1());
  EXPECT_FALSE(q.ImportState(TagId::Item(1), bad_phase).ok());
  EXPECT_TRUE(q.StatefulObjects().empty());
}

TEST(SensorSimTest, ColdAndAmbientLocations) {
  SensorConfig cfg;
  cfg.period = 10;
  cfg.cold_locations = {1};
  cfg.noise = 0.0;
  Rng rng(3);
  auto stream = GenerateSensorStream(cfg, 3, 100, rng);
  ASSERT_FALSE(stream.empty());
  for (const SensorReading& s : stream) {
    if (s.loc == 1) {
      EXPECT_DOUBLE_EQ(s.value, cfg.cold_temp);
    } else {
      EXPECT_DOUBLE_EQ(s.value, cfg.ambient);
    }
  }
  // One sample per location per period.
  EXPECT_EQ(stream.size(), static_cast<size_t>(3 * 11));
}

TEST(StateSharingTest, ByteDistance) {
  std::vector<uint8_t> a{1, 2, 3, 4};
  std::vector<uint8_t> b{1, 9, 3};
  EXPECT_EQ(ByteDistance(a, b), 2u);  // differing byte + length excess
  EXPECT_EQ(ByteDistance(a, a), 0u);
  EXPECT_EQ(ByteDistance({}, a), 4u);
}

TEST(StateSharingTest, DiffRoundTrip) {
  std::vector<uint8_t> base{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> target{1, 2, 9, 4, 5, 6, 7, 8, 10, 11};
  auto diff = DiffEncode(base, target);
  auto restored = DiffApply(base, diff);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, target);
}

TEST(StateSharingTest, DiffOfIdenticalIsTiny) {
  std::vector<uint8_t> base(200, 7);
  auto diff = DiffEncode(base, base);
  EXPECT_LE(diff.size(), 3u);  // just the length header
  auto restored = DiffApply(base, diff);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, base);
}

TEST(StateSharingTest, DiffHandlesShrink) {
  std::vector<uint8_t> base{1, 2, 3, 4, 5};
  std::vector<uint8_t> target{1, 2};
  auto diff = DiffEncode(base, target);
  auto restored = DiffApply(base, diff);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, target);
}

TEST(StateSharingTest, ShareUnshareRoundTrip) {
  std::vector<std::pair<TagId, std::vector<uint8_t>>> states;
  std::vector<uint8_t> common(100, 42);
  for (uint64_t i = 0; i < 10; ++i) {
    auto s = common;
    s[5] = static_cast<uint8_t>(i);  // small per-object difference
    states.emplace_back(TagId::Item(i), s);
  }
  SharedStateBundle bundle = ShareStates(states);
  auto restored = UnshareStates(bundle);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ((*restored)[i].first, states[i].first);
    EXPECT_EQ((*restored)[i].second, states[i].second);
  }
}

TEST(StateSharingTest, SharingCompressesSimilarStates) {
  // The paper reports ~10x reduction for similar query states (Sec 5.4).
  std::vector<std::pair<TagId, std::vector<uint8_t>>> states;
  std::vector<uint8_t> common(200, 9);
  size_t raw = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    auto s = common;
    s[3] = static_cast<uint8_t>(i);
    s[100] = static_cast<uint8_t>(i * 3);
    raw += s.size();
    states.emplace_back(TagId::Item(i), s);
  }
  SharedStateBundle bundle = ShareStates(states);
  EXPECT_LT(bundle.TotalBytes(), raw / 2);
}

TEST(StateSharingTest, SingleStateBundle) {
  std::vector<std::pair<TagId, std::vector<uint8_t>>> states;
  states.emplace_back(TagId::Item(1), std::vector<uint8_t>{1, 2, 3});
  SharedStateBundle bundle = ShareStates(states);
  auto restored = UnshareStates(bundle);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)[0].second, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(StateSharingTest, CentroidMinimizesDistance) {
  // Three similar states and one outlier: a similar one must be medoid.
  std::vector<std::pair<TagId, std::vector<uint8_t>>> states;
  std::vector<uint8_t> common(50, 1);
  for (uint64_t i = 0; i < 3; ++i) {
    auto s = common;
    s[i] = 99;
    states.emplace_back(TagId::Item(i), s);
  }
  states.emplace_back(TagId::Item(9), std::vector<uint8_t>(50, 200));
  SharedStateBundle bundle = ShareStates(states);
  EXPECT_LT(bundle.centroid_index, 3u);
}

}  // namespace
}  // namespace rfid
