// Tests for the fault-injection + reliability layer (dist/network.h) and
// the crash/recovery path of the distributed replay (dist/distributed.h):
// seeded deterministic fault fates, exactly-once delivery under drop/
// duplicate/reorder/corrupt faults, partition healing, wire-level CRC
// drops on the socket backend, bit-identical faulty replays across
// backends and thread counts, and a site crash on the lossy fabric that
// recovers from the site's own disk deterministically.
#include <gtest/gtest.h>

#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "dist/distributed.h"
#include "dist/frame.h"
#include "dist/network.h"
#include "dist/transport_socket.h"
#include "sim/sensors.h"
#include "sim/supply_chain.h"
#include "tests/scratch_dir.h"

namespace rfid {
namespace {

// ---- FaultModel ----

TEST(FaultModelTest, FateIsAPureFunctionOfSeedSeqAttempt) {
  FaultModel m;
  m.drop = 0.2;
  m.duplicate = 0.1;
  m.reorder = 0.3;
  m.corrupt = 0.05;
  m.seed = 99;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    for (uint32_t attempt = 0; attempt < 4; ++attempt) {
      const FrameFate a = m.FateOf(seq, attempt);
      const FrameFate b = m.FateOf(seq, attempt);
      EXPECT_EQ(a.drop, b.drop);
      EXPECT_EQ(a.corrupt, b.corrupt);
      EXPECT_EQ(a.duplicate, b.duplicate);
      EXPECT_EQ(a.extra_delay, b.extra_delay);
      EXPECT_EQ(a.corrupt_offset, b.corrupt_offset);
      EXPECT_EQ(a.corrupt_mask, b.corrupt_mask);
    }
  }
  // The empirical drop rate over many sequences tracks the probability
  // (loose bounds; the point is the stream is not degenerate).
  int drops = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (m.FateOf(static_cast<uint64_t>(i), 0).drop) ++drops;
  }
  const double rate = static_cast<double>(drops) / kN;
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.25);
  // A retransmission attempt redraws an independent fate.
  bool any_differs = false;
  for (uint64_t seq = 0; seq < 256 && !any_differs; ++seq) {
    any_differs = m.FateOf(seq, 0).drop != m.FateOf(seq, 1).drop;
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultModelTest, PartitionWindowsAndWildcards) {
  FaultModel m;
  m.partitions.push_back(LinkPartition{0, 1, 100, 200, true});
  EXPECT_FALSE(m.Partitioned(0, 1, 99));
  EXPECT_TRUE(m.Partitioned(0, 1, 100));
  EXPECT_TRUE(m.Partitioned(1, 0, 150));  // bidirectional
  EXPECT_FALSE(m.Partitioned(0, 1, 200));  // half-open window
  EXPECT_FALSE(m.Partitioned(0, 2, 150));
  EXPECT_TRUE(m.enabled());

  FaultModel iso;  // wildcard: isolate site 2 from everyone
  iso.partitions.push_back(LinkPartition{2, kNoSite, 0, 50, true});
  EXPECT_TRUE(iso.Partitioned(2, 0, 10));
  EXPECT_TRUE(iso.Partitioned(1, 2, 10));
  EXPECT_FALSE(iso.Partitioned(0, 1, 10));
}

// ---- Reliability protocol, driven directly against a Network ----

/// Delivery log for one receiving site: payload index -> times delivered.
struct DeliveryLog {
  std::map<int, int> count;
  void Attach(Network* net, SiteId site) {
    net->RegisterHandler(site, [this](SiteId, MessageKind,
                                      const std::vector<uint8_t>& payload) {
      BufferReader r(payload);
      uint64_t idx = 0;
      ASSERT_TRUE(r.GetVarint(&idx).ok());
      ++count[static_cast<int>(idx)];
    });
  }
};

std::vector<uint8_t> IndexedPayload(int i) {
  BufferWriter w;
  w.PutVarint(static_cast<uint64_t>(i));
  // Pad so frames are non-trivial on the wire.
  for (int b = 0; b < 16; ++b) w.PutU8(static_cast<uint8_t>(b));
  return w.Release();
}

/// Ticks the reliability layer and drains every site until the protocol
/// reports no outstanding work (or the iteration bound trips).
void PumpUntilQuiet(Network* net, SiteId num_sites, Epoch start, Epoch step,
                    int max_iters = 4000) {
  Epoch t = start;
  int idle = 0;
  for (int i = 0; i < max_iters && idle < 3; ++i) {
    t += step;
    net->AdvanceClock(t);
    net->TickReliability(t);
    int delivered = 0;
    for (SiteId s = 0; s < num_sites; ++s) {
      delivered += net->DeliverDue(s, t);
    }
    idle = delivered == 0 && !net->HasReliabilityWork() ? idle + 1 : 0;
  }
}

TEST(ReliabilityTest, ExactlyOnceUnderHeavyDropAndReorder) {
  Network net;
  NetworkOptions o;
  o.faults.drop = 0.3;
  o.faults.duplicate = 0.05;
  o.faults.reorder = 0.2;
  o.faults.seed = 4242;
  o.reliability.rto = 4;
  net.Configure(o);
  EXPECT_TRUE(net.reliable());  // lossy faults -> protocol on

  DeliveryLog log;
  log.Attach(&net, 1);
  const int kN = 200;
  for (int i = 0; i < kN; ++i) {
    net.AdvanceClock(i / 4);
    net.Send(0, 1, MessageKind::kInferenceState, IndexedPayload(i));
  }
  PumpUntilQuiet(&net, 2, kN / 4, o.reliability.rto);

  ASSERT_EQ(log.count.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(log.count[i], 1) << "payload " << i;
  }
  EXPECT_TRUE(net.AllReliableDelivered());
  EXPECT_GT(net.fault_stats().drops, 0);
  EXPECT_GT(net.reliable_stats().retransmits, 0);
  EXPECT_GT(net.BytesOfKind(MessageKind::kAck), 0);
  // The reliability tax is visible in the accounting: more wire bytes than
  // the kN clean transmissions alone.
  EXPECT_GT(net.reliable_stats().retransmit_bytes, 0);
}

TEST(ReliabilityTest, DuplicatesAreSuppressed) {
  Network net;
  NetworkOptions o;
  o.faults.duplicate = 1.0;
  o.faults.reorder_delay_min = 0;
  o.faults.reorder_delay_max = 0;
  o.faults.seed = 7;
  net.Configure(o);

  DeliveryLog log;
  log.Attach(&net, 1);
  const int kN = 50;
  net.AdvanceClock(0);
  for (int i = 0; i < kN; ++i) {
    net.Send(0, 1, MessageKind::kQueryState, IndexedPayload(i));
  }
  net.DeliverDue(1, 0);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(log.count[i], 1) << "payload " << i;
  }
  // Every data frame was transmitted twice (acks draw duplicate fates too,
  // so the fate counter can exceed kN); exactly the kN redundant data
  // copies were suppressed by the receiver's dedup state.
  EXPECT_GE(net.fault_stats().duplicates, kN);
  EXPECT_EQ(net.reliable_stats().dup_drops, kN);
  PumpUntilQuiet(&net, 2, 0, o.reliability.rto);
  EXPECT_TRUE(net.AllReliableDelivered());
}

TEST(ReliabilityTest, ReorderedFramesDeliverExactlyOnce) {
  Network net;
  NetworkOptions o;
  o.faults.reorder = 1.0;
  o.faults.reorder_delay_min = 1;
  o.faults.reorder_delay_max = 8;
  o.faults.seed = 11;
  o.reliability.rto = 16;  // roomy: late frames are not lost frames
  net.Configure(o);

  DeliveryLog log;
  log.Attach(&net, 1);
  const int kN = 80;
  net.AdvanceClock(0);
  for (int i = 0; i < kN; ++i) {
    net.Send(0, 1, MessageKind::kInferenceState, IndexedPayload(i));
  }
  PumpUntilQuiet(&net, 2, 0, 1);
  ASSERT_EQ(log.count.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(log.count[i], 1) << "payload " << i;
  }
  EXPECT_GE(net.fault_stats().reorders, kN);
  EXPECT_TRUE(net.AllReliableDelivered());
}

TEST(ReliabilityTest, CorruptFramesAreDroppedAndRetransmitted) {
  for (const TransportKind kind :
       {TransportKind::kInProcess, TransportKind::kSocket}) {
    Network net;
    net.ConfigureTransport(kind, 2);
    NetworkOptions o;
    o.faults.corrupt = 0.5;
    o.faults.seed = 31;
    o.reliability.rto = 4;
    net.Configure(o);

    DeliveryLog log;
    log.Attach(&net, 1);
    const int kN = 60;
    net.AdvanceClock(0);
    for (int i = 0; i < kN; ++i) {
      net.Send(0, 1, MessageKind::kInferenceState, IndexedPayload(i));
    }
    PumpUntilQuiet(&net, 2, 0, o.reliability.rto);
    ASSERT_EQ(log.count.size(), static_cast<size_t>(kN)) << ToString(kind);
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(log.count[i], 1) << ToString(kind) << " payload " << i;
    }
    EXPECT_GT(net.fault_stats().corrupts, 0) << ToString(kind);
    EXPECT_GT(net.reliable_stats().retransmits, 0) << ToString(kind);
    EXPECT_TRUE(net.AllReliableDelivered()) << ToString(kind);
    if (kind == TransportKind::kSocket) {
      // The socket backend really wrote the damaged bytes; the receiving
      // pump's CRC check dropped them and kept the connection alive.
      const auto& st = static_cast<const SocketTransport&>(net.transport());
      EXPECT_GT(st.crc_drops(), 0);
    }
  }
}

TEST(ReliabilityTest, PartitionHealsAndBackloggedFramesDeliver) {
  Network net;
  NetworkOptions o;
  o.faults.partitions.push_back(LinkPartition{0, 1, 0, 50, true});
  o.reliability.rto = 8;
  net.Configure(o);
  EXPECT_TRUE(net.reliable());  // a partition alone can lose frames

  DeliveryLog log;
  log.Attach(&net, 1);
  const int kN = 30;
  net.AdvanceClock(10);  // inside the partition window
  for (int i = 0; i < kN; ++i) {
    net.Send(0, 1, MessageKind::kInferenceState, IndexedPayload(i));
  }
  net.DeliverDue(1, 10);
  EXPECT_TRUE(log.count.empty());
  EXPECT_GT(net.fault_stats().partition_drops, 0);

  PumpUntilQuiet(&net, 2, 50, o.reliability.rto);  // after the heal
  ASSERT_EQ(log.count.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(log.count[i], 1) << "payload " << i;
  }
  EXPECT_TRUE(net.AllReliableDelivered());
}

TEST(ReliabilityTest, WindowBoundsInFlightFrames) {
  Network net;
  NetworkOptions o;
  // Enabled but lossless: every frame draws a zero-epoch reorder, so the
  // protocol runs and nothing is delayed, dropped or duplicated.
  o.faults.reorder = 1.0;
  o.faults.reorder_delay_min = 0;
  o.faults.reorder_delay_max = 0;
  o.reliability.window = 4;
  o.reliability.rto = 8;
  net.Configure(o);
  EXPECT_TRUE(net.reliable());

  DeliveryLog log;
  log.Attach(&net, 1);
  const int kN = 10;
  net.AdvanceClock(0);
  for (int i = 0; i < kN; ++i) {
    net.Send(0, 1, MessageKind::kInferenceState, IndexedPayload(i));
  }
  // Only a window's worth hit the wire; the rest wait in the sender.
  EXPECT_EQ(net.in_flight_messages(), 4);
  PumpUntilQuiet(&net, 2, 0, 1);
  ASSERT_EQ(log.count.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(log.count[i], 1) << "payload " << i;
  }
  EXPECT_TRUE(net.AllReliableDelivered());
}

// ---- Wire-level corruption against the socket backend ----

TEST(SocketWireTest, CrcMismatchDropsFrameAndKeepsConnectionAlive) {
  SocketTransport transport(2);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  const std::string name = transport.ListenerAddressForTest(1);
  memcpy(addr.sun_path + 1, name.data(), name.size());
  const socklen_t len = static_cast<socklen_t>(
      offsetof(sockaddr_un, sun_path) + 1 + name.size());
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), len), 0);

  auto frame = [](uint64_t seq) {
    Frame f;
    f.kind = MessageKind::kInferenceState;
    f.from = 0;
    f.to = 1;
    f.send_epoch = 5;
    f.seq = seq;
    f.link_seq = seq;
    f.payload = {10, 20, 30, 40, 50};
    return f;
  };
  // Three frames on one connection; the middle one's payload is flipped on
  // the wire, exactly what a hostile link would do.
  std::vector<uint8_t> wire = EncodeFrameToBytes(frame(1));
  std::vector<uint8_t> bad = EncodeFrameToBytes(frame(2));
  bad[kFrameHeaderBytes + 2] ^= 0x40;
  wire.insert(wire.end(), bad.begin(), bad.end());
  const std::vector<uint8_t> good = EncodeFrameToBytes(frame(3));
  wire.insert(wire.end(), good.begin(), good.end());
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  std::vector<Frame> out;
  transport.Drain(1, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 3u);
  EXPECT_EQ(transport.crc_drops(), 1);

  // The connection survived: later frames keep flowing.
  const std::vector<uint8_t> more = EncodeFrameToBytes(frame(4));
  ASSERT_EQ(write(fd, more.data(), more.size()),
            static_cast<ssize_t>(more.size()));
  out.clear();
  transport.Drain(1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 4u);
  EXPECT_EQ(transport.crc_drops(), 1);
  close(fd);
}

// ---- Faulty replays: determinism and crash/recovery ----

SupplyChainConfig ReplayConfig() {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 4;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 2;
  cfg.items_per_case = 6;
  cfg.shelf_stay = 300;
  cfg.transit_time = 30;
  cfg.horizon = 1500;
  cfg.seed = 33;
  return cfg;
}

DistributedOptions ReplayOptions(int num_threads) {
  DistributedOptions opts;
  opts.site.migration = MigrationMode::kFullReadings;
  opts.site.streaming.inference_period = 300;
  opts.site.streaming.recent_history = 400;
  opts.attach_queries = true;
  opts.q1 = ExposureQuery::Q1Config(/*duration=*/300);
  opts.q1.max_gap = 400;
  opts.q2 = ExposureQuery::Q2Config(/*duration=*/300);
  opts.q2.max_gap = 400;
  opts.num_threads = num_threads;
  return opts;
}

FaultModel ReplayFaults() {
  FaultModel f;
  f.drop = 0.05;
  f.duplicate = 0.01;
  f.reorder = 0.02;
  f.corrupt = 0.002;
  f.seed = 1234;
  return f;
}

struct ReplayFixture {
  ReplayFixture() : sim(ReplayConfig()) {
    sim.Run();
    for (TagId item : sim.all_items()) {
      catalog.RegisterProduct(item,
                              ProductInfo{"frozen_food", true, false, false});
    }
    for (TagId c : sim.all_cases()) {
      catalog.RegisterContainer(c, ContainerInfo{ContainerClass::kPlain});
    }
    SensorConfig scfg;
    Rng rng(5);
    sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                   sim.config().horizon, rng);
  }
  SupplyChainSim sim;
  ProductCatalog catalog;
  std::vector<SensorReading> sensors;
};

void ExpectSameAlerts(const std::vector<ExposureAlert>& a,
                      const std::vector<ExposureAlert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag) << "alert " << i;
    EXPECT_EQ(a[i].first_time, b[i].first_time) << "alert " << i;
    EXPECT_EQ(a[i].last_time, b[i].last_time) << "alert " << i;
    EXPECT_EQ(a[i].n_events, b[i].n_events) << "alert " << i;
  }
}

/// Results + accounting bit-identity (the executor_test contract, extended
/// with the fault/reliability counters).
void ExpectBitIdentical(const DistributedSystem& reference,
                        const DistributedSystem& candidate,
                        const SupplyChainSim& sim) {
  EXPECT_EQ(reference.snapshots(), candidate.snapshots());
  ExpectSameAlerts(reference.AllAlerts(0), candidate.AllAlerts(0));
  ExpectSameAlerts(reference.AllAlerts(1), candidate.AllAlerts(1));
  EXPECT_EQ(reference.network().total_bytes(),
            candidate.network().total_bytes());
  EXPECT_EQ(reference.network().total_messages(),
            candidate.network().total_messages());
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const MessageKind kind = static_cast<MessageKind>(k);
    EXPECT_EQ(reference.network().BytesOfKind(kind),
              candidate.network().BytesOfKind(kind))
        << ToString(kind);
  }
  EXPECT_EQ(reference.network().fault_stats().drops,
            candidate.network().fault_stats().drops);
  EXPECT_EQ(reference.network().fault_stats().duplicates,
            candidate.network().fault_stats().duplicates);
  EXPECT_EQ(reference.network().fault_stats().reorders,
            candidate.network().fault_stats().reorders);
  EXPECT_EQ(reference.network().fault_stats().corrupts,
            candidate.network().fault_stats().corrupts);
  EXPECT_EQ(reference.network().reliable_stats().retransmits,
            candidate.network().reliable_stats().retransmits);
  EXPECT_EQ(reference.network().reliable_stats().retransmit_bytes,
            candidate.network().reliable_stats().retransmit_bytes);
  EXPECT_EQ(reference.network().reliable_stats().dup_drops,
            candidate.network().reliable_stats().dup_drops);
  for (TagId item : sim.all_items()) {
    EXPECT_EQ(reference.BelievedContainer(item),
              candidate.BelievedContainer(item));
  }
  for (TagId c : sim.all_cases()) {
    EXPECT_EQ(reference.BelievedContainer(c), candidate.BelievedContainer(c));
  }
}

TEST(FaultyReplayTest, SeededFaultsAreBitIdenticalAcrossBackendsAndThreads) {
  ReplayFixture fx;
  ASSERT_FALSE(fx.sim.transfers().empty());

  auto run = [&](TransportKind transport, int threads) {
    DistributedOptions opts = ReplayOptions(threads);
    opts.transport = transport;
    opts.network.faults = ReplayFaults();
    auto system = std::make_unique<DistributedSystem>(&fx.sim, opts,
                                                      &fx.catalog,
                                                      &fx.sensors);
    system->Run();
    return system;
  };

  const auto reference = run(TransportKind::kInProcess, 0);
  EXPECT_GT(reference->network().fault_stats().drops, 0);
  EXPECT_GT(reference->network().reliable_stats().retransmits, 0);
  EXPECT_GT(reference->network().BytesOfKind(MessageKind::kAck), 0);
  EXPECT_TRUE(reference->network().AllReliableDelivered());
  EXPECT_FALSE(std::isnan(reference->AverageContainmentErrorPercent(300)));

  ExpectBitIdentical(*reference, *run(TransportKind::kInProcess, 0), fx.sim);
  ExpectBitIdentical(*reference, *run(TransportKind::kInProcess, 4), fx.sim);
  ExpectBitIdentical(*reference, *run(TransportKind::kSocket, 0), fx.sim);
  ExpectBitIdentical(*reference, *run(TransportKind::kSocket, 4), fx.sim);
}

TEST(FaultyReplayTest, FaultsOffMatchesTheSeedFabricByteForByte) {
  ReplayFixture fx;
  // With no faults configured the reliability protocol stays off
  // entirely: zero acks, zero retransmits, link_seq never assigned.
  DistributedOptions opts = ReplayOptions(0);
  DistributedSystem system(&fx.sim, opts, &fx.catalog, &fx.sensors);
  system.Run();
  EXPECT_FALSE(system.network().reliable());
  EXPECT_EQ(system.network().BytesOfKind(MessageKind::kAck), 0);
  EXPECT_EQ(system.network().reliable_stats().retransmits, 0);
  EXPECT_EQ(system.network().fault_stats().drops, 0);
  EXPECT_EQ(system.reliability_flush_epochs(), 0);
}

TEST(CrashRecoveryTest, CrashUnderFaultsCompletesAndIsDeterministic) {
  ReplayFixture fx;
  auto run = [&](int threads, const ScratchDir& dir) {
    DistributedOptions opts = ReplayOptions(threads);
    opts.network.faults = ReplayFaults();
    opts.durability.dir = dir.str();
    opts.durability.fsync = DurabilityOptions::FsyncPolicy::kOff;
    opts.crashes = SeededCrashSchedule(/*seed=*/5, fx.sim.config().num_warehouses,
                                       fx.sim.config().horizon, /*count=*/1,
                                       /*outage=*/200);
    auto system = std::make_unique<DistributedSystem>(&fx.sim, opts,
                                                      &fx.catalog,
                                                      &fx.sensors);
    system->Run();
    return system;
  };
  const ScratchDir dir_a;
  const auto a = run(0, dir_a);
  ASSERT_FALSE(a->snapshots().empty());
  EXPECT_FALSE(std::isnan(a->AverageContainmentErrorPercent(300)));
  EXPECT_GT(a->network().reliable_stats().retransmits, 0);
  EXPECT_TRUE(a->network().AllReliableDelivered());
  EXPECT_GT(a->DurabilityTotals().replayed_frames, 0);

  // Same seed, same crash schedule, different thread count: identical.
  const ScratchDir dir_b;
  const auto b = run(4, dir_b);
  ExpectBitIdentical(*a, *b, fx.sim);
}

TEST(CrashRecoveryTest, SeededScheduleIsValidAndDeterministic) {
  const auto a = SeededCrashSchedule(9, 4, 2000, 3, 100);
  const auto b = SeededCrashSchedule(9, 4, 2000, 3, 100);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  Epoch prev = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].recover_at, b[i].recover_at);
    EXPECT_GT(a[i].at, 0);
    EXPECT_GT(a[i].recover_at, a[i].at);
    EXPECT_LE(a[i].recover_at, 2000);
    EXPECT_GE(a[i].at, prev);
    prev = a[i].at;
  }
  EXPECT_TRUE(SeededCrashSchedule(9, 0, 2000, 3, 100).empty());
}

}  // namespace
}  // namespace rfid
