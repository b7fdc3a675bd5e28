// Tests for the bulk-synchronous site executor and the determinism
// contract of the parallel distributed replay: any num_threads value must
// produce bit-identical alerts, accuracy samples, and byte accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "dist/distributed.h"
#include "sim/sensors.h"
#include "sim/supply_chain.h"

namespace rfid {
namespace {

TEST(SiteExecutorTest, ResolveThreads) {
  EXPECT_EQ(SiteExecutor::ResolveThreads(0), 1);
  EXPECT_EQ(SiteExecutor::ResolveThreads(1), 1);
  EXPECT_EQ(SiteExecutor::ResolveThreads(4), 4);
  EXPECT_GE(SiteExecutor::ResolveThreads(kAutoThreads), 1);
}

TEST(SiteExecutorTest, SerialModeRunsInline) {
  SiteExecutor exec(0);
  EXPECT_TRUE(exec.serial());
  EXPECT_EQ(exec.num_threads(), 1);
  std::vector<size_t> order;
  exec.Run(5, [&](size_t i, int) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(SiteExecutorTest, RunsEveryIndexExactlyOnce) {
  SiteExecutor exec(4);
  EXPECT_EQ(exec.num_threads(), 4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  exec.Run(kN, [&](size_t i, int) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SiteExecutorTest, ReusableAcrossManyRuns) {
  SiteExecutor exec(3);
  std::atomic<int64_t> sum{0};
  int64_t expected = 0;
  for (int round = 1; round <= 50; ++round) {
    const size_t n = static_cast<size_t>(round % 7);  // exercises n == 0
    exec.Run(n, [&](size_t i, int) {
      sum.fetch_add(static_cast<int64_t>(i) + 1);
    });
    expected += static_cast<int64_t>(n) * (static_cast<int64_t>(n) + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(SiteExecutorTest, FewerItemsThanThreads) {
  SiteExecutor exec(8);
  std::atomic<int> count{0};
  exec.Run(2, [&](size_t, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

TEST(SiteExecutorTest, ForChunksCoversEveryIndexOnceInThreadRange) {
  for (int threads : {0, 1, 4}) {
    // 0: no pool at all; 1: a serial pool.
    std::unique_ptr<SiteExecutor> pool;
    if (threads > 0) pool = std::make_unique<SiteExecutor>(threads);
    const int max_thread = pool == nullptr ? 1 : pool->num_threads();
    for (size_t n : {0, 1, 3, 1000}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " n " << n);
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> out_of_range{0};
      ForChunks(pool.get(), n, [&](size_t begin, size_t end, int thread) {
        if (thread < 0 || thread >= max_thread || begin > end || end > n) {
          out_of_range.fetch_add(1);
          return;
        }
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      EXPECT_EQ(out_of_range.load(), 0);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

// ---- Nested Run: inference loops inside a site's task ----

TEST(SiteExecutorTest, NestedRunCoversEveryInnerIndexOnce) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 37;
  for (int threads : {1, 4}) {
    SiteExecutor exec(threads);
    int misses = 0;
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<std::atomic<int>> hits(kOuter * kInner);
      exec.Run(kOuter, [&](size_t o, int) {
        exec.Run(kInner, [&](size_t i, int) {
          hits[o * kInner + i].fetch_add(1);
        });
      });
      for (const std::atomic<int>& h : hits) misses += h.load() != 1;
    }
    EXPECT_EQ(misses, 0) << "threads " << threads;
  }
}

TEST(SiteExecutorTest, ConcurrentBodiesNeverShareAThreadIndex) {
  constexpr int kThreads = 4;
  SiteExecutor exec(kThreads);
  std::vector<std::atomic<int>> busy(kThreads);
  std::atomic<int> clashes{0};
  std::atomic<int> out_of_range{0};
  // Marks `thread` busy for a short stretch of leaf work; a second body on
  // the same index at the same time is a clash.
  auto work_as = [&](int thread) {
    if (thread < 0 || thread >= kThreads) {
      out_of_range.fetch_add(1);
      return;
    }
    if (busy[static_cast<size_t>(thread)].exchange(1) != 0) {
      clashes.fetch_add(1);
    }
    std::this_thread::yield();
    busy[static_cast<size_t>(thread)].store(0);
  };
  for (int rep = 0; rep < 100; ++rep) {
    exec.Run(16, [&](size_t, int thread) {
      work_as(thread);
      exec.Run(8, [&](size_t, int inner) { work_as(inner); });
      work_as(thread);
    });
  }
  EXPECT_EQ(clashes.load(), 0);
  EXPECT_EQ(out_of_range.load(), 0);
}

// Outer bodies open one nested job each; the counter is how many of this
// thread's nested jobs are still open.
thread_local int open_nested_jobs = 0;

TEST(SiteExecutorTest, WaitingThreadNeverClaimsAnOutermostIndex) {
  SiteExecutor exec(4);
  std::atomic<int> violations{0};
  for (int rep = 0; rep < 50; ++rep) {
    exec.Run(32, [&](size_t, int) {
      if (open_nested_jobs != 0) violations.fetch_add(1);
      ++open_nested_jobs;
      // Uneven inner items keep the owner waiting on the slow one, which
      // is when it looks for other work to help with.
      exec.Run(6, [&](size_t i, int) {
        if (i == 5) std::this_thread::sleep_for(std::chrono::microseconds(50));
      });
      --open_nested_jobs;
    });
  }
  EXPECT_EQ(violations.load(), 0);
}

// ---- Determinism of the parallel replay ----

SupplyChainConfig DeterminismConfig() {
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

DistributedOptions DeterminismOptions(int num_threads,
                                      int directory_shards = 0,
                                      bool hierarchical = false) {
  DistributedOptions opts;
  opts.site.migration = MigrationMode::kFullReadings;
  opts.site.hierarchical = hierarchical;
  opts.site.streaming.inference_period = 300;
  opts.site.streaming.recent_history = 400;
  opts.attach_queries = true;
  opts.q1 = ExposureQuery::Q1Config(/*duration=*/300);
  opts.q1.max_gap = 400;
  opts.q2 = ExposureQuery::Q2Config(/*duration=*/300);
  opts.q2.max_gap = 400;
  opts.num_threads = num_threads;
  opts.directory_shards = directory_shards;
  return opts;
}

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

/// The full bit-for-bit surface: accuracy samples, merged alerts, byte
/// accounting down to per-kind and per-link counters, directory state and
/// per-shard load, and every item's final believed container.
void ExpectBitIdentical(const DistributedSystem& reference,
                        const DistributedSystem& candidate,
                        const SupplyChainSim& sim) {
  EXPECT_EQ(reference.snapshots(), candidate.snapshots());
  EXPECT_EQ(reference.case_snapshots(), candidate.case_snapshots());

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
    EXPECT_EQ(reference.network().MessagesOfKind(kind),
              candidate.network().MessagesOfKind(kind))
        << ToString(kind);
  }
  const SiteId sites = sim.config().num_warehouses;
  for (SiteId a = 0; a < sites; ++a) {
    for (SiteId b = 0; b < sites; ++b) {
      EXPECT_EQ(reference.network().BytesOnLink(a, b),
                candidate.network().BytesOnLink(a, b))
          << a << "->" << b;
    }
  }

  EXPECT_EQ(reference.ons().updates(), candidate.ons().updates());
  EXPECT_EQ(reference.ons().unregisters(), candidate.ons().unregisters());
  EXPECT_EQ(reference.ons().charged_lookups(),
            candidate.ons().charged_lookups());
  EXPECT_EQ(reference.ons().cache_hits(), candidate.ons().cache_hits());
  EXPECT_EQ(reference.ons().size(), candidate.ons().size());
  ASSERT_EQ(reference.ons().num_shards(), candidate.ons().num_shards());
  for (int s = 0; s < reference.ons().num_shards(); ++s) {
    EXPECT_EQ(reference.ons().shard_stats(s).bytes,
              candidate.ons().shard_stats(s).bytes)
        << "shard " << s;
    EXPECT_EQ(reference.ons().shard_stats(s).charged_lookups,
              candidate.ons().shard_stats(s).charged_lookups)
        << "shard " << s;
  }
  for (TagId item : sim.all_items()) {
    EXPECT_EQ(reference.BelievedContainer(item),
              candidate.BelievedContainer(item));
    EXPECT_EQ(reference.BelievedPallet(item), candidate.BelievedPallet(item));
  }
  for (TagId c : sim.all_cases()) {
    EXPECT_EQ(reference.BelievedContainer(c), candidate.BelievedContainer(c));
  }
}

// Runs the full mode x thread x shard matrix: within a processing mode and
// shard count, every num_threads value must be bit-identical down to
// per-link bytes; across shard counts, everything except the per-link
// distribution (which is the point of sharding) must also be identical --
// totals, alerts, snapshots, directory counters, and beliefs. The
// centralized baseline has no directory, so its shard axis is a no-op
// that must stay one.
TEST(DeterminismTest, ThreadAndShardMatrixMatchesBitForBit) {
  SupplyChainConfig cfg = DeterminismConfig();
  SupplyChainSim sim(cfg);
  sim.Run();
  ASSERT_FALSE(sim.transfers().empty());

  ProductCatalog catalog;
  for (TagId item : sim.all_items()) {
    catalog.RegisterProduct(item,
                            ProductInfo{"frozen_food", true, false, false});
  }
  for (TagId c : sim.all_cases()) {
    catalog.RegisterContainer(c, ContainerInfo{ContainerClass::kPlain});
  }
  SensorConfig scfg;
  Rng rng(5);
  auto sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                      cfg.horizon, rng);

  const std::vector<int> kThreads = {0, 1, 4};
  const std::vector<int> kShards = {1, 4};

  for (ProcessingMode mode :
       {ProcessingMode::kDistributed, ProcessingMode::kCentralized}) {
    SCOPED_TRACE("mode=" + ToString(mode));
    auto options = [&](int threads, int shards) {
      DistributedOptions opts = DeterminismOptions(threads, shards);
      opts.mode = mode;
      return opts;
    };
    std::vector<std::unique_ptr<DistributedSystem>> references;
    for (int shards : kShards) {
      std::unique_ptr<DistributedSystem> reference;
      for (int threads : kThreads) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        auto sys = std::make_unique<DistributedSystem>(
            &sim, options(threads, shards), &catalog, &sensors);
        sys->Run();
        if (reference == nullptr) {
          ASSERT_FALSE(sys->snapshots().empty());
          EXPECT_FALSE(sys->AllAlerts(0).empty());
          if (mode == ProcessingMode::kDistributed) {
            EXPECT_GT(
                sys->network().BytesOfKind(MessageKind::kInferenceState), 0);
            EXPECT_GT(sys->network().BytesOfKind(MessageKind::kDirectory),
                      0);
            EXPECT_EQ(sys->ons().num_shards(), shards);
          } else {
            EXPECT_GT(sys->network().BytesOfKind(MessageKind::kRawReadings),
                      0);
          }
          reference = std::move(sys);
          continue;
        }
        ExpectBitIdentical(*reference, *sys, sim);
      }
      references.push_back(std::move(reference));
    }

    // ---- Transport matrix: {in-process, socket} x num_threads {0, 1, 4} --
    // The socket backend pushes every frame through real loopback sockets
    // (encode, kernel, decode); alerts, accuracy, directory state, and byte
    // accounting must still match the in-process replay bit for bit. The
    // in-process half of the matrix is references[1] and the loop above
    // (same options: directory_shards = 4).
    for (int threads : kThreads) {
      SCOPED_TRACE("transport=socket threads=" + std::to_string(threads));
      DistributedOptions opts = options(threads, /*shards=*/4);
      opts.transport = TransportKind::kSocket;
      auto sys = std::make_unique<DistributedSystem>(&sim, opts, &catalog,
                                                     &sensors);
      sys->Run();
      EXPECT_EQ(sys->network().transport_kind(), TransportKind::kSocket);
      ExpectBitIdentical(*references[1], *sys, sim);
    }

    // Across shard counts: routing must not change what happens, only where
    // the directory bytes land. Compare the shard-independent surface of
    // the serial runs.
    ASSERT_EQ(references.size(), 2u);
    const DistributedSystem* single = references[0].get();
    const DistributedSystem* sharded = references[1].get();
    EXPECT_EQ(single->snapshots(), sharded->snapshots());
    ExpectSameAlerts(single->AllAlerts(0), sharded->AllAlerts(0));
    ExpectSameAlerts(single->AllAlerts(1), sharded->AllAlerts(1));
    EXPECT_EQ(single->network().total_bytes(),
              sharded->network().total_bytes());
    for (int k = 0; k < kNumMessageKinds; ++k) {
      const MessageKind kind = static_cast<MessageKind>(k);
      EXPECT_EQ(single->network().BytesOfKind(kind),
                sharded->network().BytesOfKind(kind))
          << ToString(kind);
    }
    EXPECT_EQ(single->ons().updates(), sharded->ons().updates());
    EXPECT_EQ(single->ons().charged_lookups(),
              sharded->ons().charged_lookups());
    EXPECT_EQ(single->ons().cache_hits(), sharded->ons().cache_hits());
    for (TagId item : sim.all_items()) {
      EXPECT_EQ(single->BelievedContainer(item),
                sharded->BelievedContainer(item));
    }
  }
}

// With the Appendix A.4 second level enabled, the determinism contract
// must extend to the case→pallet engine: case accuracy samples, the
// two-level migration payload bytes, and every transitive BelievedPallet
// answer are bit-identical across {in-process, socket} × num_threads
// {0, 1, 4}.
TEST(DeterminismTest, HierarchicalTransportThreadMatrixMatchesBitForBit) {
  SupplyChainConfig cfg = DeterminismConfig();
  SupplyChainSim sim(cfg);
  sim.Run();
  ASSERT_FALSE(sim.transfers().empty());

  ProductCatalog catalog;
  for (TagId item : sim.all_items()) {
    catalog.RegisterProduct(item,
                            ProductInfo{"frozen_food", true, false, false});
  }
  for (TagId c : sim.all_cases()) {
    catalog.RegisterContainer(c, ContainerInfo{ContainerClass::kPlain});
  }
  SensorConfig scfg;
  Rng rng(5);
  auto sensors = GenerateSensorStream(scfg, sim.layout().num_locations(),
                                      cfg.horizon, rng);

  std::unique_ptr<DistributedSystem> reference;
  for (TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kSocket}) {
    for (int threads : {0, 1, 4}) {
      SCOPED_TRACE("transport=" + ToString(transport) +
                   " threads=" + std::to_string(threads));
      DistributedOptions opts = DeterminismOptions(threads, /*shards=*/4,
                                                   /*hierarchical=*/true);
      opts.transport = transport;
      auto sys = std::make_unique<DistributedSystem>(&sim, opts, &catalog,
                                                     &sensors);
      sys->Run();
      if (reference == nullptr) {
        ASSERT_FALSE(sys->snapshots().empty());
        ASSERT_FALSE(sys->case_snapshots().empty());
        EXPECT_GT(
            sys->network().BytesOfKind(MessageKind::kInferenceState), 0);
        reference = std::move(sys);
        continue;
      }
      ExpectBitIdentical(*reference, *sys, sim);
    }
  }
}

// Telemetry must observe, never perturb: the replay with collection
// disabled, metrics-only, and metrics + Chrome trace must be bit-identical
// across the full {transport} x {threads} matrix. Every value telemetry
// records derives from wall clocks or events the replay already performs,
// so this holds by construction -- this test keeps it that way.
TEST(DeterminismTest, TelemetryOnOffMatchesBitForBit) {
  SupplyChainConfig cfg = DeterminismConfig();
  SupplyChainSim sim(cfg);
  sim.Run();

  const std::string trace_path =
      ::testing::TempDir() + "/executor_test_trace.json";
  std::unique_ptr<DistributedSystem> reference;
  for (TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kSocket}) {
    for (int threads : {0, 1, 4}) {
      for (int telemetry : {0, 1, 2}) {  // off / metrics / metrics+trace
        SCOPED_TRACE("transport=" + ToString(transport) +
                     " threads=" + std::to_string(threads) +
                     " telemetry=" + std::to_string(telemetry));
        DistributedOptions opts = DeterminismOptions(threads, /*shards=*/4,
                                                     /*hierarchical=*/true);
        opts.transport = transport;
        opts.collect_metrics = telemetry > 0;
        if (telemetry == 2) opts.trace_path = trace_path;
        auto sys = std::make_unique<DistributedSystem>(&sim, opts);
        sys->Run();
        if (telemetry == 2) {
          ASSERT_NE(sys->telemetry(), nullptr);
          EXPECT_TRUE(sys->telemetry()->tracing());
          EXPECT_GT(sys->telemetry()->sink()->size(), 0u);
          EXPECT_GT(
              sys->telemetry()->phase_histogram(obs::Phase::kInference)
                  .count(),
              0);
        } else if (telemetry == 0) {
          EXPECT_EQ(sys->telemetry(), nullptr);
        }
        if (reference == nullptr) {
          ASSERT_FALSE(sys->snapshots().empty());
          reference = std::move(sys);
          continue;
        }
        ExpectBitIdentical(*reference, *sys, sim);
      }
    }
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace rfid
