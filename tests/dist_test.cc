// Tests for the distributed layer: network accounting, ONS, site-to-site
// state migration, and the distributed-vs-centralized drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dist/distributed.h"
#include "dist/frame.h"
#include "dist/network.h"
#include "dist/ons.h"
#include "dist/site.h"
#include "sim/sensors.h"
#include "sim/supply_chain.h"
#include "tests/fnv_digest.h"
#include "trace/reading.h"
#include "trace/trace.h"

namespace rfid {
namespace {

TEST(NetworkTest, AccountsFramedBytesPerLinkAndKind) {
  Network net;
  int received = 0;
  net.RegisterHandler(1, [&](SiteId from, MessageKind kind,
                             const std::vector<uint8_t>& payload) {
    ++received;
    EXPECT_EQ(from, 0);
    EXPECT_EQ(kind, MessageKind::kInferenceState);
    EXPECT_EQ(payload.size(), 3u);
  });
  // Every payload travels framed: the charge is header + payload + crc.
  const int64_t wire = static_cast<int64_t>(FrameWireSize(3));
  size_t n = net.Send(0, 1, MessageKind::kInferenceState, {1, 2, 3});
  EXPECT_EQ(n, FrameWireSize(3));
  // Delivery is queued, not synchronous: the handler runs at drain time.
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.in_flight_messages(), 1);
  EXPECT_EQ(net.in_flight_bytes(), wire);
  EXPECT_EQ(net.DeliverDue(1, net.now()), 1);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.in_flight_messages(), 0);
  EXPECT_EQ(net.in_flight_bytes(), 0);
  EXPECT_EQ(net.total_bytes(), wire);
  EXPECT_EQ(net.total_messages(), 1);
  EXPECT_EQ(net.BytesOnLink(0, 1), wire);
  EXPECT_EQ(net.BytesOnLink(1, 0), 0);
  EXPECT_EQ(net.BytesOfKind(MessageKind::kInferenceState), wire);
  EXPECT_EQ(net.BytesOfKind(MessageKind::kQueryState), 0);
}

TEST(NetworkTest, UnregisteredDestinationStillCharged) {
  Network net;
  net.Send(0, 5, MessageKind::kRawReadings, {1, 2});
  EXPECT_EQ(net.total_bytes(), static_cast<int64_t>(FrameWireSize(2)));
}

TEST(WireTest, InferenceEnvelopeRoundTrip) {
  std::vector<ObjectMigrationState> states(2);
  states[0].object = TagId::Item(11);
  states[0].container = TagId::Case(3);
  states[0].weights = {{TagId::Case(3), -1.5}, {TagId::Case(4), -8.25}};
  states[0].critical_region = EpochInterval{50, 120};
  states[1].object = TagId::Item(12);
  states[1].container = kNoTag;
  states[1].barrier = 77;
  states[1].readings.push_back(RawReading{130, TagId::Item(12), 2});

  auto payload = EncodeInferenceEnvelope(/*arrive=*/900, states,
                                         /*case_states=*/{});
  auto decoded = DecodeInferenceEnvelope(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->arrive, 900);
  ASSERT_EQ(decoded->states.size(), 2u);
  EXPECT_EQ(decoded->states[0].object, TagId::Item(11));
  EXPECT_EQ(decoded->states[0].weights, states[0].weights);
  EXPECT_EQ(decoded->states[0].critical_region, states[0].critical_region);
  EXPECT_EQ(decoded->states[1].barrier, 77);
  EXPECT_EQ(decoded->states[1].readings, states[1].readings);
  EXPECT_TRUE(decoded->case_states.empty());
}

TEST(WireTest, InferenceEnvelopeRoundTripTwoLevels) {
  // A hierarchical transfer ships both containment levels in one
  // envelope: item→case states plus case→pallet states with their own
  // collapsed weights, contexts, and (full mode) readings.
  std::vector<ObjectMigrationState> states(1);
  states[0].object = TagId::Item(11);
  states[0].container = TagId::Case(3);
  states[0].weights = {{TagId::Case(3), -1.5}};

  std::vector<ObjectMigrationState> case_states(2);
  case_states[0].object = TagId::Case(3);
  case_states[0].container = TagId::Pallet(1);
  case_states[0].weights = {{TagId::Pallet(1), -2.0},
                            {TagId::Pallet(2), -9.5}};
  case_states[0].critical_region = EpochInterval{10, 60};
  case_states[0].readings.push_back(RawReading{12, TagId::Case(3), 0});
  case_states[0].readings.push_back(RawReading{12, TagId::Pallet(1), 0});
  case_states[1].object = TagId::Case(4);
  case_states[1].container = kNoTag;
  case_states[1].barrier = 33;

  auto payload = EncodeInferenceEnvelope(/*arrive=*/450, states, case_states);
  auto decoded = DecodeInferenceEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->arrive, 450);
  ASSERT_EQ(decoded->states.size(), 1u);
  EXPECT_EQ(decoded->states[0].object, TagId::Item(11));
  EXPECT_EQ(decoded->states[0].container, TagId::Case(3));
  ASSERT_EQ(decoded->case_states.size(), 2u);
  EXPECT_EQ(decoded->case_states[0].object, TagId::Case(3));
  EXPECT_EQ(decoded->case_states[0].container, TagId::Pallet(1));
  EXPECT_EQ(decoded->case_states[0].weights, case_states[0].weights);
  EXPECT_EQ(decoded->case_states[0].critical_region,
            case_states[0].critical_region);
  EXPECT_EQ(decoded->case_states[0].readings, case_states[0].readings);
  EXPECT_EQ(decoded->case_states[1].object, TagId::Case(4));
  EXPECT_EQ(decoded->case_states[1].barrier, 33);

  // A truncated envelope surfaces as a Status, not a crash.
  payload.resize(payload.size() / 2);
  EXPECT_FALSE(DecodeInferenceEnvelope(payload).ok());
}

TEST(WireTest, QueryEnvelopeRoundTripRawAndShared) {
  // Three objects in case 1 with near-identical states, one in case 2.
  std::vector<std::pair<TagId, std::vector<uint8_t>>> q1_states;
  std::unordered_map<TagId, TagId> believed;
  for (uint64_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> state{1, 2, 3, 4, 5, 6, 7, 8,
                               static_cast<uint8_t>(i)};
    q1_states.emplace_back(TagId::Item(i), std::move(state));
    believed[TagId::Item(i)] = TagId::Case(1);
  }
  q1_states.emplace_back(TagId::Item(9),
                         std::vector<uint8_t>{9, 9, 9, 9});
  believed[TagId::Item(9)] = TagId::Case(2);
  std::vector<std::pair<TagId, std::vector<uint8_t>>> q2_states;

  for (bool share : {false, true}) {
    auto payload =
        EncodeQueryEnvelope(/*arrive=*/450, q1_states, q2_states, share,
                            believed);
    auto decoded = DecodeQueryEnvelope(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->arrive, 450);
    EXPECT_TRUE(decoded->q2_states.empty());
    ASSERT_EQ(decoded->q1_states.size(), q1_states.size());
    // Order may change across sharing groups; compare as sets.
    auto sorted = [](auto v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(sorted(decoded->q1_states), sorted(q1_states));
  }
}

TEST(OnsTest, RegisterLookupUnregister) {
  Ons ons;
  EXPECT_EQ(ons.Lookup(TagId::Item(1)), kNoSite);
  ons.Register(TagId::Item(1), 3);
  EXPECT_EQ(ons.Lookup(TagId::Item(1)), 3);
  ons.Register(TagId::Item(1), 4);
  EXPECT_EQ(ons.Lookup(TagId::Item(1)), 4);
  ons.Unregister(TagId::Item(1));
  EXPECT_EQ(ons.Lookup(TagId::Item(1)), kNoSite);
  // Lookups are uncharged reads, not directory load.
  EXPECT_EQ(ons.charged_lookups(), 0);
  EXPECT_EQ(ons.updates(), 2);
  EXPECT_EQ(ons.unregisters(), 1);
}

SupplyChainConfig ChainConfig(int warehouses, Epoch horizon) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = warehouses;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 2;
  cfg.items_per_case = 6;
  cfg.shelf_stay = 250;
  cfg.transit_time = 30;
  cfg.horizon = horizon;
  cfg.seed = 21;
  return cfg;
}

DistributedOptions DistOptions(MigrationMode mode) {
  DistributedOptions opts;
  opts.site.migration = mode;
  opts.site.streaming.inference_period = 300;
  opts.site.streaming.recent_history = 400;
  return opts;
}

TEST(DistributedTest, MigrationTransfersBytes) {
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  ASSERT_FALSE(sim.transfers().empty());

  DistributedSystem none(&sim, DistOptions(MigrationMode::kNone));
  none.Run();
  // No migration payloads -- every byte on the wire is directory traffic.
  EXPECT_EQ(none.network().BytesOfKind(MessageKind::kInferenceState), 0);
  EXPECT_EQ(none.network().BytesOfKind(MessageKind::kQueryState), 0);
  EXPECT_EQ(none.network().BytesOfKind(MessageKind::kRawReadings), 0);
  EXPECT_GT(none.network().BytesOfKind(MessageKind::kDirectory), 0);
  EXPECT_EQ(none.network().total_bytes(),
            none.network().BytesOfKind(MessageKind::kDirectory));

  SupplyChainSim sim2(ChainConfig(3, 1200));
  sim2.Run();
  DistributedSystem collapsed(&sim2, DistOptions(MigrationMode::kCollapsed));
  collapsed.Run();
  EXPECT_GT(collapsed.network().total_bytes(), 0);
  EXPECT_GT(
      collapsed.network().BytesOfKind(MessageKind::kInferenceState), 0);
}

DistributedOptions HierOptions(MigrationMode mode) {
  DistributedOptions opts = DistOptions(mode);
  opts.site.hierarchical = true;
  return opts;
}

/// Every item frozen and every case plain: any item on a shelf is exposed.
ProductCatalog ExposedCatalog(const SupplyChainSim& sim) {
  ProductCatalog catalog;
  for (TagId item : sim.all_items()) {
    catalog.RegisterProduct(item, ProductInfo{"frozen_food", true, false,
                                              false});
  }
  for (TagId c : sim.all_cases()) {
    catalog.RegisterContainer(c, ContainerInfo{ContainerClass::kPlain});
  }
  return catalog;
}

TEST(HierarchicalTest, CaseStateMigratesOnTransfers) {
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  DistributedSystem flat(&sim, DistOptions(MigrationMode::kCollapsed));
  flat.Run();
  DistributedSystem hier(&sim, HierOptions(MigrationMode::kCollapsed));
  hier.Run();

  // The second level's collapsed state rides the same kInferenceState
  // envelopes, so hierarchical transfers put strictly more migration
  // bytes on the wire (the Table 5 accounting sees the overhead)...
  EXPECT_GT(hier.network().BytesOfKind(MessageKind::kInferenceState),
            flat.network().BytesOfKind(MessageKind::kInferenceState));
  // ...while directory traffic is level-independent (pallets and cases
  // were always registered/moved).
  EXPECT_EQ(hier.network().BytesOfKind(MessageKind::kDirectory),
            flat.network().BytesOfKind(MessageKind::kDirectory));

  // Per-level accuracy at boundaries: case samples exist only for the
  // hierarchical run, and the item level is untouched by the second
  // engine -- its samples must be bit-identical to the flat replay's.
  EXPECT_TRUE(flat.case_snapshots().empty());
  ASSERT_FALSE(hier.case_snapshots().empty());
  const double case_err = hier.AverageCaseContainmentErrorPercent();
  EXPECT_FALSE(std::isnan(case_err));
  EXPECT_GE(case_err, 0.0);
  EXPECT_LE(case_err, 100.0);
  EXPECT_EQ(flat.snapshots(), hier.snapshots());
  EXPECT_TRUE(std::isnan(flat.AverageCaseContainmentErrorPercent()));

  // The pallet level is the only user of explicit roles
  // (SetUniverseKinds): its case-level accuracy series and the two-level
  // migration bytes are pinned bit for bit.
  Fnv d;
  d.Snapshots(hier.case_snapshots());
  EXPECT_EQ(d.h, 0xf07deddd15d206eeULL) << std::hex << "digest 0x" << d.h;
  EXPECT_EQ(hier.network().BytesOfKind(MessageKind::kInferenceState), 11772);
}

TEST(HierarchicalTest, NoneModeShipsNothingAtEitherLevel) {
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  DistributedSystem hier_none(&sim, HierOptions(MigrationMode::kNone));
  hier_none.Run();
  EXPECT_EQ(hier_none.network().BytesOfKind(MessageKind::kInferenceState),
            0);
  // The second level still runs locally: case accuracy is sampled even
  // though no state migrates.
  EXPECT_FALSE(hier_none.case_snapshots().empty());
}

TEST(HierarchicalTest, FullReadingsShipsCaseAndPalletHistories) {
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  DistributedSystem collapsed(&sim, HierOptions(MigrationMode::kCollapsed));
  collapsed.Run();
  DistributedSystem full(&sim, HierOptions(MigrationMode::kFullReadings));
  full.Run();
  EXPECT_GT(full.network().BytesOfKind(MessageKind::kInferenceState),
            collapsed.network().BytesOfKind(MessageKind::kInferenceState));
}

TEST(HierarchicalTest, CasesOnlyTransfersStillShipCaseState) {
  // Case-level-only tracking (no item tags): flat migration has nothing
  // to ship, but the hierarchy's case→pallet state must still travel.
  auto cfg = ChainConfig(3, 1200);
  cfg.items_per_case = 0;
  SupplyChainSim sim(cfg);
  sim.Run();
  ASSERT_FALSE(sim.transfers().empty());

  DistributedSystem flat(&sim, DistOptions(MigrationMode::kCollapsed));
  flat.Run();
  EXPECT_EQ(flat.network().BytesOfKind(MessageKind::kInferenceState), 0);

  DistributedSystem hier(&sim, HierOptions(MigrationMode::kCollapsed));
  hier.Run();
  EXPECT_GT(hier.network().BytesOfKind(MessageKind::kInferenceState), 0);
  EXPECT_FALSE(hier.case_snapshots().empty());
}

TEST(HierarchicalTest, CentralizedServerRunsBothLevels) {
  // The centralized baseline's server receives remote readings as
  // kRawReadings batches; those must feed the pallet-level engine too, or
  // the hierarchy would silently cover only site 0's local stream.
  SupplyChainSim sim(ChainConfig(3, 1500));
  sim.Run();
  DistributedOptions opts = HierOptions(MigrationMode::kCollapsed);
  opts.mode = ProcessingMode::kCentralized;
  DistributedSystem central(&sim, opts);
  central.Run();
  ASSERT_FALSE(central.case_snapshots().empty());
  // Cases at *remote* warehouses resolve to a pallet: evidence for them
  // only ever arrives over the wire.
  int remote_resolved = 0;
  for (const ObjectTransfer& tr : sim.transfers()) {
    if (tr.to <= 0) continue;  // want groups that reached sites 1/2
    for (TagId c : tr.cases) {
      if (central.BelievedPallet(c).valid()) ++remote_resolved;
    }
  }
  EXPECT_GT(remote_resolved, 0);
}

TEST(HierarchicalTest, PalletResolvesTransitively) {
  SupplyChainSim sim(ChainConfig(3, 1500));
  sim.Run();
  DistributedSystem flat(&sim, DistOptions(MigrationMode::kCollapsed));
  flat.Run();
  DistributedSystem hier(&sim, HierOptions(MigrationMode::kCollapsed));
  hier.Run();

  int resolved = 0;
  for (TagId item : sim.all_items()) {
    // Without the hierarchy there is no pallet level to answer from.
    EXPECT_EQ(flat.BelievedPallet(item), kNoTag);
    const TagId pallet = hier.BelievedPallet(item);
    if (!pallet.valid()) continue;
    ++resolved;
    EXPECT_TRUE(pallet.is_pallet());
    // Transitivity: the item's pallet is exactly its believed case's
    // believed pallet.
    const TagId c = hier.BelievedContainer(item);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(hier.BelievedPallet(c), pallet);
  }
  EXPECT_GT(resolved, 0);
}

TEST(DistributedTest, DirectoryTrafficIsCharged) {
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  DistributedSystem sys(&sim, DistOptions(MigrationMode::kCollapsed));
  sys.Run();
  // Every registration/move/unregister and every cache-missing Resolve
  // puts directory bytes on the wire; registrations land on the link from
  // the registering site to the owning shard's hosting site, and the
  // per-shard byte counters sum to the kDirectory total.
  const int64_t dir_bytes =
      sys.network().BytesOfKind(MessageKind::kDirectory);
  EXPECT_GT(dir_bytes, 0);
  EXPECT_GE(sys.network().MessagesOfKind(MessageKind::kDirectory),
            sys.ons().updates());
  EXPECT_EQ(sys.ons().num_shards(), 3);
  int64_t shard_bytes = 0;
  int64_t from_site0 = 0;
  for (int s = 0; s < sys.ons().num_shards(); ++s) {
    shard_bytes += sys.ons().shard_stats(s).bytes;
    from_site0 += sys.network().BytesOnLink(0, sys.ons().ShardHost(s));
  }
  EXPECT_EQ(shard_bytes, dir_bytes);
  // All injections register at site 0, so it talks to every shard host.
  EXPECT_GT(from_site0, 0);
  // The synthetic single-node id is no longer charged.
  EXPECT_EQ(sys.network().BytesOnLink(0, kDirectorySite), 0);

  // The centralized baseline has no directory service to talk to.
  SupplyChainSim sim2(ChainConfig(3, 1200));
  sim2.Run();
  DistributedOptions copts = DistOptions(MigrationMode::kCollapsed);
  copts.mode = ProcessingMode::kCentralized;
  DistributedSystem central(&sim2, copts);
  central.Run();
  EXPECT_EQ(central.network().BytesOfKind(MessageKind::kDirectory), 0);
}

TEST(DistributedTest, FullReadingsCostMoreThanCollapsed) {
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  DistributedSystem collapsed(&sim, DistOptions(MigrationMode::kCollapsed));
  collapsed.Run();

  SupplyChainSim sim2(ChainConfig(3, 1200));
  sim2.Run();
  DistributedSystem full(&sim2, DistOptions(MigrationMode::kFullReadings));
  full.Run();
  EXPECT_GT(full.network().total_bytes(),
            collapsed.network().total_bytes());
}

TEST(DistributedTest, CentralizedShipsMoreThanCollapsed) {
  // Table 5's qualitative claim at unit-test scale: raw shipping costs
  // more than collapsed-state migration even over a short horizon with
  // rapid pallet turnover. (The orders-of-magnitude gap appears at bench
  // scale, where items reside for hours between transfers.) The claim is
  // about payload policy, so compare the migration traffic kinds: since
  // byte accounting moved onto framed wire bytes, CR's *total* also
  // carries the directory's per-op framing floor (~40 B per tiny
  // directory record), which is deployment overhead either approach's
  // real deployment would pay to some directory service, not migration
  // cost.
  SupplyChainSim sim(ChainConfig(3, 1200));
  sim.Run();
  DistributedSystem collapsed(&sim, DistOptions(MigrationMode::kCollapsed));
  collapsed.Run();

  SupplyChainSim sim2(ChainConfig(3, 1200));
  sim2.Run();
  DistributedOptions copts = DistOptions(MigrationMode::kCollapsed);
  copts.mode = ProcessingMode::kCentralized;
  DistributedSystem central(&sim2, copts);
  central.Run();
  EXPECT_GT(central.network().BytesOfKind(MessageKind::kRawReadings),
            collapsed.network().BytesOfKind(MessageKind::kInferenceState) +
                collapsed.network().BytesOfKind(MessageKind::kQueryState));
}

TEST(DistributedTest, CollapsedBeatsNoneOnAverageAccuracy) {
  // Averaged over inference boundaries (the continuous-monitoring view),
  // migrating collapsed state must not hurt and typically helps in the
  // just-after-arrival windows (Figure 5(e) qualitatively).
  OnlineStats none_err, collapsed_err;
  for (uint64_t seed : {21u, 22u, 23u}) {
    auto cfg = ChainConfig(3, 1500);
    cfg.seed = seed;
    SupplyChainSim sim(cfg);
    sim.Run();
    DistributedSystem none(&sim, DistOptions(MigrationMode::kNone));
    none.Run();
    DistributedSystem collapsed(&sim,
                                DistOptions(MigrationMode::kCollapsed));
    collapsed.Run();
    none_err.Add(none.AverageContainmentErrorPercent());
    collapsed_err.Add(collapsed.AverageContainmentErrorPercent());
  }
  EXPECT_LE(collapsed_err.Mean(), none_err.Mean() + 1.0);
}

TEST(DistributedTest, CentralizedIsAccurate) {
  SupplyChainSim sim(ChainConfig(2, 900));
  sim.Run();
  DistributedOptions copts = DistOptions(MigrationMode::kCollapsed);
  copts.mode = ProcessingMode::kCentralized;
  DistributedSystem central(&sim, copts);
  central.Run();
  EXPECT_LT(central.ContainmentErrorPercent(899), 25.0);
}

TEST(DistributedTest, OnsTracksObjectSites) {
  SupplyChainSim sim(ChainConfig(3, 1500));
  sim.Run();
  DistributedSystem sys(&sim, DistOptions(MigrationMode::kCollapsed));
  sys.Run();
  // Pick an item that crossed sites and check the ONS agrees with the last
  // recorded transfer destination.
  for (const ObjectTransfer& tr : sim.transfers()) {
    if (tr.to == kNoSite || tr.items.empty()) continue;
    TagId item = tr.items.front();
    SiteId registered = sys.ons().Lookup(item);
    // The item may have moved again after `tr`; just require a valid site
    // or departure.
    if (registered != kNoSite) {
      EXPECT_GE(registered, 0);
      EXPECT_LT(registered, 3);
    }
  }
  // The replay's transfer-time Resolves are directory load.
  EXPECT_GT(sys.ons().charged_lookups(), 0);
}

TEST(DistributedTest, HorizonSnapshotForcedWhenOffBoundary) {
  // horizon 1000 with inference period 300: boundaries at 300/600/900, so
  // without the forced horizon sample the final 100 epochs would never be
  // measured.
  SupplyChainSim sim(ChainConfig(3, 1000));
  sim.Run();
  DistributedSystem sys(&sim, DistOptions(MigrationMode::kCollapsed));
  sys.Run();
  ASSERT_FALSE(sys.snapshots().empty());
  EXPECT_EQ(sys.snapshots().back().epoch, 1000);
  // Exactly one sample per epoch: the forced horizon sample never doubles
  // an on-boundary one.
  SupplyChainSim sim2(ChainConfig(3, 1200));
  sim2.Run();
  DistributedSystem sys2(&sim2, DistOptions(MigrationMode::kCollapsed));
  sys2.Run();
  ASSERT_FALSE(sys2.snapshots().empty());
  EXPECT_EQ(sys2.snapshots().back().epoch, 1200);
  for (size_t i = 1; i < sys2.snapshots().size(); ++i) {
    EXPECT_LT(sys2.snapshots()[i - 1].epoch, sys2.snapshots()[i].epoch);
  }
}

TEST(DistributedTest, EmptyRunReportsNaNErrorNotPerfect) {
  SupplyChainSim sim(ChainConfig(2, 900));
  sim.Run();
  DistributedSystem sys(&sim, DistOptions(MigrationMode::kCollapsed));
  // Never Run: no accuracy samples exist, so the error accessors must not
  // claim a flawless 0.0%.
  EXPECT_TRUE(std::isnan(sys.ContainmentErrorPercent(100)));
  EXPECT_TRUE(std::isnan(sys.AverageContainmentErrorPercent()));
  // And a run whose warmup excludes every sample is equally "unmeasured".
  DistributedSystem ran(&sim, DistOptions(MigrationMode::kCollapsed));
  ran.Run();
  EXPECT_FALSE(std::isnan(ran.AverageContainmentErrorPercent()));
  EXPECT_TRUE(std::isnan(
      ran.AverageContainmentErrorPercent(sim.config().horizon + 1)));
}

TEST(DistributedTest, QueriesRunAtSites) {
  SupplyChainConfig cfg = ChainConfig(2, 1200);
  cfg.shelf_stay = 600;
  SupplyChainSim sim(cfg);
  sim.Run();

  const ProductCatalog catalog = ExposedCatalog(sim);
  SensorConfig scfg;
  Rng rng(5);
  auto sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                      cfg.horizon, rng);

  // Both queries' alerts and the migrated query-state bytes, raw and
  // centroid-shared, pinned from the operator-pipeline implementation the
  // typed query code replaced: the rewrite must match it exactly.
  struct Pin {
    bool share;
    uint64_t alert_digest;
    int64_t query_state_bytes;
  };
  for (const Pin& pin : {Pin{false, 0x2deddc838367c91bULL, 142292},
                        Pin{true, 0x2deddc838367c91bULL, 26324}}) {
    SCOPED_TRACE(testing::Message() << "share " << pin.share);
    DistributedOptions opts = DistOptions(MigrationMode::kCollapsed);
    opts.attach_queries = true;
    opts.q1 = ExposureQuery::Q1Config(/*duration=*/300);
    opts.q1.max_gap = 400;
    opts.q2 = ExposureQuery::Q2Config(/*duration=*/300);
    opts.q2.max_gap = 400;
    opts.site.share_query_state = pin.share;
    DistributedSystem sys(&sim, opts, &catalog, &sensors);
    sys.Run();
    // Items sit exposed on shelves for 600 epochs > 300: alerts must fire.
    EXPECT_FALSE(sys.AllAlerts(0).empty());
    EXPECT_FALSE(sys.AllAlerts(1).empty());
    // Q1's alerts then Q2's.
    Fnv d;
    d.Alerts(sys.AllAlerts(0));
    d.Alerts(sys.AllAlerts(1));
    EXPECT_EQ(d.h, pin.alert_digest);
    EXPECT_EQ(sys.network().BytesOfKind(MessageKind::kQueryState),
              pin.query_state_bytes);
  }
}

// A call that crosses several inference boundaries must feed the queries
// the events of every run it makes, exactly as one call per boundary does.
// With recent_history == inference_period consecutive run windows do not
// overlap, so no later run re-emits an earlier run's events.
TEST(SiteTest, MultiPeriodAdvanceFeedsEveryRun) {
  SupplyChainConfig cfg = ChainConfig(1, 1200);
  cfg.shelf_stay = 600;
  SupplyChainSim sim(cfg);
  sim.Run();
  const ProductCatalog catalog = ExposedCatalog(sim);
  SensorConfig scfg;
  Rng rng(5);
  auto sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                      cfg.horizon, rng);
  SiteOptions so;
  so.streaming.inference_period = 100;
  so.streaming.recent_history = 100;
  ExposureQueryConfig q1 = ExposureQuery::Q1Config(/*duration=*/300);
  q1.max_gap = 400;
  ExposureQueryConfig q2 = ExposureQuery::Q2Config(/*duration=*/300);
  q2.max_gap = 400;
  Network net;
  Site stepped(0, &sim.model(), &sim.schedule(), &net, so);
  Site jumped(0, &sim.model(), &sim.schedule(), &net, so);
  for (Site* site : {&stepped, &jumped}) {
    site->AttachQueries(&catalog, q1, q2);
    for (const SensorReading& r : sensors) site->AddSensor(r);
  }

  // Both sites buffer the same readings; `stepped` then advances boundary
  // by boundary and `jumped` across three boundaries in one call.
  const Epoch period = so.streaming.inference_period;
  const std::vector<RawReading>& rs = sim.site_trace(0).readings();
  size_t cursor = 0;
  for (Epoch b = 3 * period; b <= cfg.horizon; b += 3 * period) {
    const size_t begin = cursor;
    while (cursor < rs.size() && rs[cursor].time <= b) ++cursor;
    stepped.ObserveBatch(rs.data() + begin, cursor - begin);
    jumped.ObserveBatch(rs.data() + begin, cursor - begin);
    for (Epoch t = b - 2 * period; t <= b; t += period) {
      ASSERT_EQ(stepped.AdvanceTo(t), 1);
    }
    ASSERT_EQ(jumped.AdvanceTo(b), 3);
  }

  for (int q : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "query " << q);
    const ExposureQuery& want = *stepped.query(q);
    const ExposureQuery& got = *jumped.query(q);
    EXPECT_FALSE(want.alerts().empty());
    Fnv want_alerts;
    Fnv got_alerts;
    want_alerts.Alerts(want.alerts());
    got_alerts.Alerts(got.alerts());
    EXPECT_EQ(got.alerts().size(), want.alerts().size());
    EXPECT_EQ(got_alerts.h, want_alerts.h);
    ASSERT_EQ(got.StatefulObjects(), want.StatefulObjects());
    for (TagId tag : want.StatefulObjects()) {
      EXPECT_TRUE(got.ExportState(tag) == want.ExportState(tag))
          << "tag " << tag.raw();
    }
  }
}

// The centralized server's buffer is where the interleaved per-site flush
// batches meet: its accuracy series and both queries' alerts are pinned
// bit for bit. The deployment keeps no directory, so the ONS sees no
// update.
TEST(DistributedTest, CentralizedOutputIsBitIdenticalToPinnedDigest) {
  SupplyChainConfig cfg = ChainConfig(3, 1200);
  cfg.shelf_stay = 600;
  SupplyChainSim sim(cfg);
  sim.Run();
  const ProductCatalog catalog = ExposedCatalog(sim);
  SensorConfig scfg;
  Rng rng(5);
  auto sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                      cfg.horizon, rng);
  DistributedOptions opts = DistOptions(MigrationMode::kCollapsed);
  opts.mode = ProcessingMode::kCentralized;
  opts.attach_queries = true;
  opts.q1 = ExposureQuery::Q1Config(/*duration=*/300);
  opts.q1.max_gap = 400;
  opts.q2 = ExposureQuery::Q2Config(/*duration=*/300);
  opts.q2.max_gap = 400;
  DistributedSystem sys(&sim, opts, &catalog, &sensors);
  sys.Run();
  ASSERT_FALSE(sys.snapshots().empty());
  EXPECT_FALSE(sys.AllAlerts(0).empty());
  EXPECT_FALSE(sys.AllAlerts(1).empty());
  Fnv d;
  d.Snapshots(sys.snapshots());
  d.Alerts(sys.AllAlerts(0));
  d.Alerts(sys.AllAlerts(1));
  EXPECT_EQ(d.h, 0xc2e11dc801c699f2ULL) << std::hex << "digest 0x" << d.h;
  EXPECT_EQ(sys.ons().updates(), 0);
}

// A distributed replay with queries attached, once on a clean fabric and
// once with drops and reorders (so the ARQ protocol and its acks run): the
// accuracy series, both queries' alerts and every per-kind byte and
// message count are pinned bit for bit.
TEST(DistributedTest, DistributedOutputIsBitIdenticalToPinnedDigest) {
  SupplyChainConfig cfg = ChainConfig(3, 1200);
  cfg.shelf_stay = 600;
  SupplyChainSim sim(cfg);
  sim.Run();
  const ProductCatalog catalog = ExposedCatalog(sim);
  SensorConfig scfg;
  Rng rng(5);
  auto sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                      cfg.horizon, rng);
  struct Pin {
    double drop;
    double reorder;
    uint64_t digest;
  };
  for (const Pin& pin : {Pin{0.0, 0.0, 0x731636f6c378d336ULL},
                        Pin{0.05, 0.10, 0x3e1fd9cf0c2448e7ULL}}) {
    SCOPED_TRACE(testing::Message() << "drop " << pin.drop);
    DistributedOptions opts = DistOptions(MigrationMode::kCollapsed);
    opts.attach_queries = true;
    opts.q1 = ExposureQuery::Q1Config(/*duration=*/300);
    opts.q1.max_gap = 400;
    opts.q2 = ExposureQuery::Q2Config(/*duration=*/300);
    opts.q2.max_gap = 400;
    opts.network.faults = FaultModel{};
    opts.network.faults.drop = pin.drop;
    opts.network.faults.reorder = pin.reorder;
    DistributedSystem sys(&sim, opts, &catalog, &sensors);
    sys.Run();
    ASSERT_FALSE(sys.snapshots().empty());
    EXPECT_FALSE(sys.AllAlerts(0).empty());
    EXPECT_FALSE(sys.AllAlerts(1).empty());
    EXPECT_EQ(sys.network().reliable(), pin.drop > 0);
    EXPECT_EQ(sys.network().BytesOfKind(MessageKind::kAck) > 0,
              pin.drop > 0);
    Fnv d;
    d.Snapshots(sys.snapshots());
    d.Alerts(sys.AllAlerts(0));
    d.Alerts(sys.AllAlerts(1));
    d.WireCounts(sys.network());
    EXPECT_EQ(d.h, pin.digest) << std::hex << "digest 0x" << d.h;
  }
}

// ---- Reading-batch codec (the centralized flush payload) ----

std::vector<RawReading> SampleBatch() {
  std::vector<RawReading> rs;
  for (int t = 0; t < 50; ++t) {
    rs.push_back(RawReading{static_cast<Epoch>(t * 3),
                            TagId::Item(static_cast<uint64_t>(t % 7)),
                            static_cast<LocationId>(t % 5)});
    rs.push_back(RawReading{static_cast<Epoch>(t * 3 + 1),
                            TagId::Case(static_cast<uint64_t>(t % 3)),
                            static_cast<LocationId>(t % 4)});
  }
  return rs;
}

TEST(ReadingBatchTest, SubSpanEncodesLikeACopiedWindow) {
  // A sub-span of a larger buffer (how the centralized flush encodes a
  // pending trace range) matches encoding a copied-out window.
  const std::vector<RawReading> rs = SampleBatch();
  const std::vector<RawReading> window(rs.begin() + 10, rs.end() - 5);
  EXPECT_EQ(EncodeReadingBatch(rs.data() + 10, rs.size() - 15),
            EncodeReadingBatch(window.data(), window.size()));
}

TEST(ReadingBatchTest, RoundTripsInSealCanonicalOrder) {
  std::vector<RawReading> rs = SampleBatch();
  auto decoded = DecodeReadingBatch(EncodeReadingBatch(rs.data(), rs.size()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The batch codec seals (sorts + dedups) before encoding, so the round
  // trip lands in canonical (time, reader, tag) order.
  std::sort(rs.begin(), rs.end(), RawReadingOrder());
  rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
  EXPECT_EQ(decoded.value(), rs);
}

}  // namespace
}  // namespace rfid
