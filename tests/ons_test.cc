// Tests for the sharded ONS directory: shard ownership stability, the
// per-site resolver cache (hits and invalidation on moves), per-shard load
// counters matching the former single-node aggregate, and the sharded
// accounting of the distributed replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/distributed.h"
#include "dist/network.h"
#include "dist/ons.h"
#include "sim/supply_chain.h"

namespace rfid {
namespace {

OnsOptions ShardedOptions(int num_shards, int num_sites, bool cache) {
  OnsOptions opts;
  opts.num_shards = num_shards;
  opts.num_sites = num_sites;
  opts.resolver_cache = cache;
  return opts;
}

TEST(OnsShardingTest, OwnershipStableAndInRange) {
  Ons a(ShardedOptions(4, 4, /*cache=*/true));
  Ons b(ShardedOptions(4, 8, /*cache=*/false));
  std::vector<int> population(4, 0);
  for (uint64_t serial = 0; serial < 1000; ++serial) {
    for (TagId tag : {TagId::Item(serial), TagId::Case(serial),
                      TagId::Pallet(serial)}) {
      const int shard = a.ShardOf(tag);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, 4);
      // Ownership depends only on the tag and the shard count, never on
      // the instance, its site count, or its registration history.
      EXPECT_EQ(shard, b.ShardOf(tag));
      EXPECT_EQ(shard, Ons::ShardOfTag(tag, 4));
      ++population[static_cast<size_t>(shard)];
    }
    a.Register(TagId::Item(serial), static_cast<SiteId>(serial % 4));
    EXPECT_EQ(a.ShardOf(TagId::Item(serial)),
              Ons::ShardOfTag(TagId::Item(serial), 4));
  }
  // The hash partition actually spreads the population.
  for (int count : population) EXPECT_GT(count, 0);
}

TEST(OnsShardingTest, ShardHostsRoundRobinAcrossSites) {
  Ons ons(ShardedOptions(6, 4, /*cache=*/true));
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(ons.ShardHost(s), static_cast<SiteId>(s % 4));
  }
  // With no hosting sites the synthetic directory node is charged.
  Ons standalone;
  EXPECT_EQ(standalone.num_shards(), 1);
  EXPECT_EQ(standalone.ShardHost(0), kDirectorySite);
}

TEST(OnsCacheTest, RepeatResolutionsAreFreeUntilTheMappingChanges) {
  Network net;
  Ons ons(ShardedOptions(2, 3, /*cache=*/true));
  ons.AttachNetwork(&net);
  const TagId tag = TagId::Pallet(7);

  ons.Register(tag, 1);
  const int64_t after_register = net.total_bytes();
  EXPECT_GT(after_register, 0);

  // First resolution from site 2: charged (request + response).
  EXPECT_EQ(ons.Resolve(tag, 2), 1);
  const int64_t after_first = net.total_bytes();
  EXPECT_GT(after_first, after_register);
  EXPECT_EQ(ons.charged_lookups(), 1);
  EXPECT_EQ(ons.cache_hits(), 0);

  // Repeat from the same site: served from its resolver cache, zero wire
  // bytes.
  EXPECT_EQ(ons.Resolve(tag, 2), 1);
  EXPECT_EQ(net.total_bytes(), after_first);
  EXPECT_EQ(ons.charged_lookups(), 1);
  EXPECT_EQ(ons.cache_hits(), 1);

  // A different site holds its own cache and pays its own first lookup.
  EXPECT_EQ(ons.Resolve(tag, 0), 1);
  EXPECT_GT(net.total_bytes(), after_first);
  EXPECT_EQ(ons.charged_lookups(), 2);

  // Re-registering at the same site is not a move: caches stay warm.
  ons.Register(tag, 1);
  const int64_t before_warm = net.total_bytes();
  EXPECT_EQ(ons.Resolve(tag, 2), 1);
  EXPECT_EQ(net.total_bytes(), before_warm);
  EXPECT_EQ(ons.cache_hits(), 2);

  // A move invalidates every site's cached answer.
  ons.Register(tag, 2);
  const int64_t before_moved = net.total_bytes();
  EXPECT_EQ(ons.Resolve(tag, 0), 2);
  EXPECT_GT(net.total_bytes(), before_moved);
  EXPECT_EQ(ons.charged_lookups(), 3);

  // Unregister invalidates too; the (charged) miss is a negative answer
  // that itself becomes cacheable until the next registration.
  ons.Unregister(tag);
  EXPECT_EQ(ons.Resolve(tag, 0), kNoSite);
  EXPECT_EQ(ons.charged_lookups(), 4);
  const int64_t after_negative = net.total_bytes();
  EXPECT_EQ(ons.Resolve(tag, 0), kNoSite);
  EXPECT_EQ(net.total_bytes(), after_negative);
  EXPECT_EQ(ons.cache_hits(), 3);
  // ...and the next registration invalidates the negative entry.
  ons.Register(tag, 0);
  EXPECT_EQ(ons.Resolve(tag, 0), 0);
  EXPECT_EQ(ons.charged_lookups(), 5);
}

TEST(OnsCacheTest, ExactInvalidationNeverServesStaleAnswers) {
  // A cached answer lives until the mapping changes, and a move
  // invalidates it at once: no Resolve ever returns a previous owner.
  Network net;
  Ons ons(ShardedOptions(2, 3, /*cache=*/true));
  ons.AttachNetwork(&net);
  const TagId tag = TagId::Pallet(7);

  ons.Register(tag, 1);
  EXPECT_EQ(ons.Resolve(tag, 2), 1);
  EXPECT_EQ(ons.Resolve(tag, 2), 1);
  EXPECT_EQ(ons.cache_hits(), 1);
  ons.Register(tag, 2);  // move invalidates at once
  EXPECT_EQ(ons.Resolve(tag, 2), 2);
  EXPECT_EQ(ons.charged_lookups(), 2);
}

TEST(OnsCacheTest, DisabledCacheChargesEveryResolve) {
  Network net;
  Ons ons(ShardedOptions(2, 3, /*cache=*/false));
  ons.AttachNetwork(&net);
  ons.Register(TagId::Pallet(1), 0);
  EXPECT_EQ(ons.Resolve(TagId::Pallet(1), 2), 0);
  const int64_t first = net.total_bytes();
  EXPECT_EQ(ons.Resolve(TagId::Pallet(1), 2), 0);
  EXPECT_GT(net.total_bytes(), first);
  EXPECT_EQ(ons.cache_hits(), 0);
  EXPECT_EQ(ons.charged_lookups(), 2);
}

TEST(OnsShardingTest, PerShardCountersSumToSingleNodeAggregate) {
  // The same operation stream against a single-shard directory (the
  // pre-sharding accounting) and a four-shard one: per-shard counters and
  // bytes must sum to the former aggregate -- routing redistributes load,
  // it never creates or destroys it.
  Network net_single, net_sharded;
  Ons single(ShardedOptions(1, 5, /*cache=*/false));
  Ons sharded(ShardedOptions(4, 5, /*cache=*/false));
  single.AttachNetwork(&net_single);
  sharded.AttachNetwork(&net_sharded);

  auto drive = [](Ons& ons) {
    for (uint64_t serial = 0; serial < 200; ++serial) {
      ons.Register(TagId::Pallet(serial), 0);
    }
    for (uint64_t serial = 0; serial < 200; ++serial) {
      ons.Resolve(TagId::Pallet(serial), 1);
      ons.Register(TagId::Pallet(serial),
                   static_cast<SiteId>(1 + serial % 4));
      ons.Resolve(TagId::Pallet(serial), 2);
    }
    for (uint64_t serial = 0; serial < 100; ++serial) {
      ons.Unregister(TagId::Pallet(serial));
    }
  };
  drive(single);
  drive(sharded);

  EXPECT_EQ(single.num_shards(), 1);
  EXPECT_EQ(sharded.num_shards(), 4);
  EXPECT_EQ(sharded.updates(), single.updates());
  EXPECT_EQ(sharded.unregisters(), single.unregisters());
  EXPECT_EQ(sharded.charged_lookups(), single.charged_lookups());
  EXPECT_EQ(sharded.size(), single.size());

  int64_t sharded_bytes = 0;
  bool multiple_shards_loaded = false;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    sharded_bytes += sharded.shard_stats(s).bytes;
    if (s > 0 && sharded.shard_stats(s).bytes > 0) {
      multiple_shards_loaded = true;
    }
  }
  EXPECT_EQ(sharded_bytes, single.shard_stats(0).bytes);
  EXPECT_EQ(net_sharded.total_bytes(), net_single.total_bytes());
  EXPECT_EQ(net_sharded.total_messages(), net_single.total_messages());
  EXPECT_EQ(net_sharded.BytesOfKind(MessageKind::kDirectory),
            net_single.BytesOfKind(MessageKind::kDirectory));
  EXPECT_TRUE(multiple_shards_loaded);
  // Single-shard traffic all rides the one host link; sharded traffic is
  // spread over the per-host links but sums to the same totals.
  int64_t sharded_msgs_to_hosts = 0;
  for (SiteId site = 0; site < 5; ++site) {
    for (SiteId host = 0; host < 5; ++host) {
      sharded_msgs_to_hosts += net_sharded.MessagesOnLink(site, host);
    }
  }
  EXPECT_EQ(sharded_msgs_to_hosts, net_sharded.total_messages());
}

TEST(OnsShardingTest, DistributedReplayShardTotalsAndCacheSavings) {
  SupplyChainConfig cfg;
  cfg.num_warehouses = 3;
  cfg.shelves_per_warehouse = 4;
  cfg.cases_per_pallet = 2;
  cfg.items_per_case = 6;
  cfg.shelf_stay = 250;
  cfg.transit_time = 30;
  cfg.horizon = 1200;
  cfg.seed = 21;
  SupplyChainSim sim(cfg);
  sim.Run();
  ASSERT_FALSE(sim.transfers().empty());

  auto run = [&](int shards, bool cache) {
    DistributedOptions opts;
    opts.site.migration = MigrationMode::kCollapsed;
    opts.site.streaming.inference_period = 300;
    opts.site.streaming.recent_history = 400;
    opts.directory_shards = shards;
    opts.directory_cache = cache;
    auto sys = std::make_unique<DistributedSystem>(&sim, opts);
    sys->Run();
    return sys;
  };

  auto single_nc = run(/*shards=*/1, /*cache=*/false);
  auto sharded_nc = run(/*shards=*/0, /*cache=*/false);  // one per site
  auto sharded = run(/*shards=*/0, /*cache=*/true);

  const auto dir_bytes = [](const DistributedSystem& sys) {
    return sys.network().BytesOfKind(MessageKind::kDirectory);
  };
  const auto shard_sum = [](const DistributedSystem& sys) {
    int64_t sum = 0;
    for (int s = 0; s < sys.ons().num_shards(); ++s) {
      sum += sys.ons().shard_stats(s).bytes;
    }
    return sum;
  };

  EXPECT_EQ(sharded_nc->ons().num_shards(), 3);
  // Per-shard bytes sum to the kDirectory kind total in every config.
  EXPECT_EQ(shard_sum(*single_nc), dir_bytes(*single_nc));
  EXPECT_EQ(shard_sum(*sharded_nc), dir_bytes(*sharded_nc));
  EXPECT_EQ(shard_sum(*sharded), dir_bytes(*sharded));
  // Sharding alone redistributes the former single-node total.
  EXPECT_EQ(dir_bytes(*sharded_nc), dir_bytes(*single_nc));
  // The resolver cache strictly reduces it (transfers repeat-resolve at
  // arrival, and nothing moves in transit).
  EXPECT_LT(dir_bytes(*sharded), dir_bytes(*sharded_nc));
  EXPECT_GT(sharded->ons().cache_hits(), 0);
  EXPECT_EQ(sharded_nc->ons().cache_hits(), 0);
  // Cache hits replace charged lookups one for one.
  EXPECT_EQ(sharded->ons().charged_lookups() + sharded->ons().cache_hits(),
            sharded_nc->ons().charged_lookups());
  // Non-directory traffic is untouched by directory deployment knobs.
  EXPECT_EQ(
      sharded->network().BytesOfKind(MessageKind::kInferenceState),
      single_nc->network().BytesOfKind(MessageKind::kInferenceState));
}

}  // namespace
}  // namespace rfid
