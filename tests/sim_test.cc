// Tests for the simulator substrate: the DES engine, world state, layout,
// reader simulation, the supply-chain workload, and the lab emulation.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/des.h"
#include "sim/lab.h"
#include "sim/layout.h"
#include "sim/reader_sim.h"
#include "sim/supply_chain.h"
#include "sim/world.h"

namespace rfid {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(5, [&] { order.push_back(5); });
  q.Schedule(1, [&] { order.push_back(1); });
  q.Schedule(3, [&] { order.push_back(3); });
  q.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(2, [&] { order.push_back(1); });
  q.Schedule(2, [&] { order.push_back(2); });
  q.Schedule(2, [&] { order.push_back(3); });
  q.RunUntil(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CallbacksCanScheduleMore) {
  EventQueue q;
  std::vector<Epoch> fired;
  std::function<void()> recur = [&] {
    fired.push_back(q.now());
    if (q.now() < 30) q.ScheduleAfter(10, recur);
  };
  q.Schedule(0, recur);
  q.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<Epoch>{0, 10, 20, 30}));
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.Schedule(5, [&] { ++fired; });
  q.Schedule(15, [&] { ++fired; });
  q.RunUntil(10);
  EXPECT_EQ(fired, 1);
  q.RunUntil(20);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  Epoch fired_at = -1;
  q.Schedule(10, [&] {
    q.Schedule(3, [&] { fired_at = q.now(); });  // in the past
  });
  q.RunUntil(20);
  EXPECT_EQ(fired_at, 10);
}

TEST(WorldTest, PlaceGroupMovesContents) {
  World w;
  TagId c = w.NewCase();
  TagId i1 = w.NewItem();
  TagId i2 = w.NewItem();
  w.SetContainer(i1, c, 0);
  w.SetContainer(i2, c, 0);
  w.PlaceGroup(c, 3, 0);
  EXPECT_EQ(w.LocationOf(c), 3);
  EXPECT_EQ(w.LocationOf(i1), 3);
  EXPECT_EQ(w.LocationOf(i2), 3);
  EXPECT_EQ(w.TagsAt(3).size(), 3u);
}

TEST(WorldTest, SetContainerReparents) {
  World w;
  TagId a = w.NewCase();
  TagId b = w.NewCase();
  TagId item = w.NewItem();
  w.SetContainer(item, a, 0);
  EXPECT_EQ(w.ContainerOf(item), a);
  EXPECT_EQ(w.ContentsOf(a).size(), 1u);
  w.SetContainer(item, b, 5);
  EXPECT_EQ(w.ContainerOf(item), b);
  EXPECT_TRUE(w.ContentsOf(a).empty());
  EXPECT_EQ(w.ContentsOf(b).size(), 1u);
}

TEST(WorldTest, RemoveGroupClosesTruth) {
  World w;
  TagId c = w.NewCase();
  TagId item = w.NewItem();
  w.SetContainer(item, c, 0);
  w.PlaceGroup(c, 1, 0);
  w.RemoveGroup(c, 10);
  EXPECT_FALSE(w.Exists(c));
  EXPECT_FALSE(w.Exists(item));
  EXPECT_TRUE(w.TagsAt(1).empty());
  w.Finish(20);
  EXPECT_EQ(w.truth().LocationAt(item, 5), 1);
}

TEST(WorldTest, TruthTracksMoves) {
  World w;
  TagId c = w.NewCase();
  w.Place(c, 0, 0);
  w.Place(c, 1, 10);
  w.Place(c, 2, 20);
  w.Finish(30);
  EXPECT_EQ(w.truth().LocationAt(c, 0), 0);
  EXPECT_EQ(w.truth().LocationAt(c, 9), 0);
  EXPECT_EQ(w.truth().LocationAt(c, 10), 1);
  EXPECT_EQ(w.truth().LocationAt(c, 25), 2);
}

TEST(LayoutTest, LocationNumberingContiguous) {
  Layout layout(3, 4);
  EXPECT_EQ(layout.num_sites(), 3);
  EXPECT_EQ(layout.num_locations(), 3 * (4 + 3));
  std::set<LocationId> all;
  for (SiteId s = 0; s < 3; ++s) {
    for (LocationId loc : layout.site(s).AllLocations()) {
      EXPECT_EQ(layout.SiteOfLocation(loc), s);
      all.insert(loc);
    }
  }
  EXPECT_EQ(static_cast<int>(all.size()), layout.num_locations());
}

TEST(LayoutTest, RolesAssigned) {
  Layout layout(1, 2);
  const SiteLayout& s = layout.site(0);
  EXPECT_EQ(layout.RoleOfLocation(s.entry), ReaderRole::kEntry);
  EXPECT_EQ(layout.RoleOfLocation(s.belt), ReaderRole::kBelt);
  EXPECT_EQ(layout.RoleOfLocation(s.exit), ReaderRole::kExit);
  for (LocationId sh : s.shelves) {
    EXPECT_EQ(layout.RoleOfLocation(sh), ReaderRole::kShelf);
  }
}

TEST(LayoutTest, ReadRateModelHasOverlapOnAdjacentShelves) {
  Layout layout(1, 4);
  ReadRateParams p;
  p.main = 0.8;
  p.overlap = 0.5;
  Rng rng(1);
  auto m = layout.BuildReadRateModel(p, rng);
  const SiteLayout& s = layout.site(0);
  EXPECT_DOUBLE_EQ(m.Rate(s.shelves[0], s.shelves[1]), 0.5);
  EXPECT_DOUBLE_EQ(m.Rate(s.shelves[1], s.shelves[0]), 0.5);
  EXPECT_DOUBLE_EQ(m.Rate(s.shelves[0], s.shelves[2]), 0.0);
  EXPECT_DOUBLE_EQ(m.Rate(s.entry, s.belt), 0.0);
  EXPECT_DOUBLE_EQ(m.Rate(s.entry, s.entry), 0.8);
}

TEST(LayoutTest, SampledRatesWithinBounds) {
  Layout layout(1, 4);
  ReadRateParams p;
  p.sample_main = true;
  p.main_lo = 0.6;
  p.main_hi = 1.0;
  Rng rng(2);
  auto m = layout.BuildReadRateModel(p, rng);
  for (LocationId loc : layout.site(0).AllLocations()) {
    EXPECT_GE(m.Rate(loc, loc), 0.6);
    EXPECT_LE(m.Rate(loc, loc), 1.0);
  }
}

TEST(LayoutTest, ScheduleRoles) {
  Layout layout(1, 3);
  ReadRateParams p;
  Rng rng(3);
  auto m = layout.BuildReadRateModel(p, rng);
  ScheduleParams sp;
  auto sched = layout.BuildSchedule(sp, m);
  const SiteLayout& s = layout.site(0);
  EXPECT_TRUE(sched.ActiveAt(s.entry, 7));      // non-shelf: every epoch
  EXPECT_TRUE(sched.ActiveAt(s.shelves[0], 0));  // shelf: every 10
  EXPECT_FALSE(sched.ActiveAt(s.shelves[0], 7));
}

TEST(LayoutTest, MobileScheduleSweepsShelves) {
  Layout layout(1, 3);
  ReadRateParams p;
  Rng rng(3);
  auto m = layout.BuildReadRateModel(p, rng);
  ScheduleParams sp;
  sp.mobile_dwell = 10;
  auto sched = layout.BuildSchedule(sp, m);
  const SiteLayout& s = layout.site(0);
  // Sweep cycle = 3 shelves * 10 epochs.
  EXPECT_TRUE(sched.ActiveAt(s.shelves[0], 5));
  EXPECT_FALSE(sched.ActiveAt(s.shelves[0], 15));
  EXPECT_TRUE(sched.ActiveAt(s.shelves[1], 15));
  EXPECT_TRUE(sched.ActiveAt(s.shelves[2], 25));
  EXPECT_TRUE(sched.ActiveAt(s.shelves[0], 35));  // next sweep
}

TEST(ReaderSimTest, GeneratesOnlyScheduledReads) {
  Layout layout(1, 2);
  ReadRateParams p;
  p.main = 1.0;  // deterministic reads
  p.overlap = 0.0;
  Rng rng(5);
  auto m = layout.BuildReadRateModel(p, rng);
  ScheduleParams sp;
  auto sched = layout.BuildSchedule(sp, m);
  World w;
  TagId c = w.NewCase();
  w.Place(c, layout.site(0).shelves[0], 0);
  ReaderSim sim(&m, &sched, 6);
  Trace trace;
  CallbackSink sink([&](const RawReading& r) { trace.Add(r); });
  for (Epoch t = 0; t < 20; ++t) sim.ScanEpoch(w, t, &sink);
  trace.Seal();
  // Shelf reader scans at t=0 and t=10 only; read rate 1 -> 2 readings.
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.readings()[0].time, 0);
  EXPECT_EQ(trace.readings()[1].time, 10);
}

class SupplyChainTest : public testing::Test {
 protected:
  SupplyChainConfig SmallConfig() {
    SupplyChainConfig cfg;
    cfg.num_warehouses = 1;
    cfg.shelves_per_warehouse = 4;
    cfg.cases_per_pallet = 2;
    cfg.items_per_case = 5;
    cfg.pallet_injection_interval = 60;
    cfg.shelf_stay = 120;
    cfg.horizon = 600;
    cfg.seed = 42;
    return cfg;
  }
};

TEST_F(SupplyChainTest, ProducesReadingsAndTruth) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  EXPECT_GT(sim.total_readings(), 0);
  EXPECT_FALSE(sim.all_cases().empty());
  EXPECT_FALSE(sim.all_items().empty());
  EXPECT_EQ(sim.all_items().size(),
            sim.all_cases().size() * 5u);  // items_per_case
  const Trace& trace = sim.site_trace(0);
  EXPECT_EQ(static_cast<int64_t>(trace.size()), sim.total_readings());
  EXPECT_LE(trace.MaxEpoch(), 600);
}

TEST_F(SupplyChainTest, GroundTruthConsistentWithReadings) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  // Every reading must come from a reader that covers the tag's true
  // location (same location or adjacent-shelf overlap).
  for (const RawReading& r : sim.site_trace(0).readings()) {
    LocationId truth = sim.truth().LocationAt(r.tag, r.time);
    ASSERT_NE(truth, kNoLocation)
        << "reading of " << r.tag.ToString() << " at " << r.time;
    EXPECT_GT(sim.model().Rate(r.reader, truth), 0.0);
  }
}

TEST_F(SupplyChainTest, ItemsStayWithCasesWithoutAnomalies) {
  SupplyChainSim sim(SmallConfig());
  sim.Run();
  EXPECT_TRUE(sim.anomalies().empty());
  // The only item-level containment changes are departure tombstones
  // (container -> none) when a group leaves the supply chain.
  for (const TruthChange& ch : sim.truth().changes()) {
    if (ch.tag.is_item()) {
      EXPECT_EQ(ch.to, kNoTag) << ch.tag.ToString() << " at " << ch.time;
    }
  }
  // While resident, every item has exactly one case container.
  for (TagId item : sim.all_items()) {
    TagId seen = kNoTag;
    for (const TruthInterval& iv : sim.truth().IntervalsOf(item)) {
      if (!iv.container.valid()) continue;
      if (!seen.valid()) seen = iv.container;
      EXPECT_EQ(iv.container, seen);
      EXPECT_TRUE(iv.container.is_case());
    }
    EXPECT_TRUE(seen.valid());
  }
}

TEST_F(SupplyChainTest, AnomaliesChangeContainment) {
  auto cfg = SmallConfig();
  cfg.anomaly_interval = 50;
  cfg.horizon = 500;
  SupplyChainSim sim(cfg);
  sim.Run();
  EXPECT_FALSE(sim.anomalies().empty());
  for (const AnomalyRecord& a : sim.anomalies()) {
    EXPECT_NE(a.from_case, a.to_case);
    EXPECT_EQ(sim.truth().ContainerAt(a.item, a.time), a.to_case);
    // The item physically moved to the destination case's location.
    EXPECT_EQ(sim.truth().LocationAt(a.item, a.time),
              sim.truth().LocationAt(a.to_case, a.time));
  }
  // Anomalies are recorded as ground-truth containment changes too.
  EXPECT_GE(sim.truth().changes().size(), sim.anomalies().size());
}

TEST_F(SupplyChainTest, MultiWarehouseTransfers) {
  auto cfg = SmallConfig();
  cfg.num_warehouses = 3;
  cfg.shelf_stay = 60;
  cfg.horizon = 900;
  cfg.max_pallets = 3;
  SupplyChainSim sim(cfg);
  sim.Run();
  ASSERT_FALSE(sim.transfers().empty());
  bool cross_site = false;
  for (const ObjectTransfer& tr : sim.transfers()) {
    if (tr.to != kNoSite) {
      EXPECT_EQ(tr.to, tr.from + 1);  // linear chain
      EXPECT_EQ(tr.arrive, tr.depart + cfg.transit_time);
      cross_site = true;
      EXPECT_FALSE(tr.cases.empty());
      EXPECT_FALSE(tr.items.empty());
    }
  }
  EXPECT_TRUE(cross_site);
  // Site 1 must have observed readings after transfers arrive.
  EXPECT_GT(sim.site_trace(1).size(), 0u);
}

TEST_F(SupplyChainTest, DagLayersRoundRobin) {
  auto cfg = SmallConfig();
  cfg.num_warehouses = 4;
  cfg.dag_layers = {1, 3};
  cfg.shelf_stay = 60;
  cfg.horizon = 900;
  cfg.max_pallets = 6;
  SupplyChainSim sim(cfg);
  sim.Run();
  std::set<SiteId> destinations;
  for (const ObjectTransfer& tr : sim.transfers()) {
    if (tr.from == 0 && tr.to != kNoSite) destinations.insert(tr.to);
  }
  // Round-robin over the 3 second-layer warehouses.
  EXPECT_EQ(destinations.size(), 3u);
}

TEST_F(SupplyChainTest, DeterministicForSameSeed) {
  SupplyChainSim a(SmallConfig());
  SupplyChainSim b(SmallConfig());
  a.Run();
  b.Run();
  EXPECT_EQ(a.site_trace(0).readings(), b.site_trace(0).readings());
}

TEST_F(SupplyChainTest, SeedChangesTrace) {
  auto cfg = SmallConfig();
  SupplyChainSim a(cfg);
  cfg.seed = 43;
  SupplyChainSim b(cfg);
  a.Run();
  b.Run();
  EXPECT_NE(a.site_trace(0).readings(), b.site_trace(0).readings());
}

TEST_F(SupplyChainTest, ExternalSinkReceivesEverything) {
  int64_t count = 0;
  CallbackSink sink([&](const RawReading&) { ++count; });
  SupplyChainSim sim(SmallConfig());
  sim.Run(&sink);
  EXPECT_EQ(count, sim.total_readings());
  EXPECT_TRUE(sim.site_trace(0).empty());  // not materialized
}

TEST(LabTest, SpecGrid) {
  EXPECT_DOUBLE_EQ(LabSpecFor(1).read_rate, 0.85);
  EXPECT_DOUBLE_EQ(LabSpecFor(1).overlap, 0.25);
  EXPECT_FALSE(LabSpecFor(1).with_changes);
  EXPECT_DOUBLE_EQ(LabSpecFor(4).read_rate, 0.70);
  EXPECT_DOUBLE_EQ(LabSpecFor(4).overlap, 0.50);
  EXPECT_TRUE(LabSpecFor(5).with_changes);
  EXPECT_DOUBLE_EQ(LabSpecFor(8).read_rate, 0.70);
  EXPECT_DOUBLE_EQ(LabSpecFor(8).overlap, 0.50);
}

TEST(LabTest, StableTraceHasNoChanges) {
  LabConfig cfg;
  cfg.spec = LabSpecFor(1);
  cfg.horizon = 900;
  LabDeployment lab(cfg);
  lab.Run();
  EXPECT_TRUE(lab.changes().empty());
  EXPECT_EQ(lab.cases().size(), 20u);
  EXPECT_EQ(lab.items().size(), 100u);
  EXPECT_GT(lab.trace().size(), 0u);
}

TEST(LabTest, ChangeTraceMovesThreeAndRemovesOne) {
  LabConfig cfg;
  cfg.spec = LabSpecFor(5);
  cfg.horizon = 900;
  LabDeployment lab(cfg);
  lab.Run();
  ASSERT_EQ(lab.changes().size(), 4u);
  int moved = 0, removed = 0;
  for (const LabChange& ch : lab.changes()) {
    if (ch.to_case.valid()) {
      ++moved;
      EXPECT_EQ(lab.truth().ContainerAt(ch.item, ch.time), ch.to_case);
    } else {
      ++removed;
      EXPECT_FALSE(lab.truth().PresentAt(ch.item, cfg.horizon));
    }
  }
  EXPECT_EQ(moved, 3);
  EXPECT_EQ(removed, 1);
}

TEST(LabTest, SevenReaderLayout) {
  LabConfig cfg;
  cfg.spec = LabSpecFor(2);
  LabDeployment lab(cfg);
  EXPECT_EQ(lab.layout().num_locations(), 7);  // entry, belt, 4 shelf, exit
}

}  // namespace
}  // namespace rfid
