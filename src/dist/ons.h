// Object Name Service (Section 5.2): the directory mapping each tracked
// tag to the site currently processing it, "similar to a DNS service"
// resolving an EPC to the authoritative site.
//
// Like DNS, the directory is not one node: the tag->site map is hash
// partitioned across `num_shards` shards, each hosted by a real site
// (shard s lives at site s % num_sites), and every Register / Unregister /
// Resolve is routed to the owning shard. When a Network is attached each
// operation is charged to it as MessageKind::kDirectory traffic on the
// (acting site, shard host) link -- request plus, for Resolve, response
// bytes -- so the Table 5 communication accounting sees per-link directory
// load instead of a single synthetic hotspot. A per-site resolver cache
// (invalidated whenever a mapping changes) makes repeat resolutions of an
// unmoved object free of wire bytes, the way a DNS resolver caches records
// until they change.
//
// The distributed driver registers objects on arrival, re-registers them as
// they move, and unregisters them when they leave the tracked supply chain;
// query routing and state-migration use Resolve to find the owning site.
// The directory is the deployment's only tag->site map: the driver's own
// reads (which processor answers for a tag when accuracy is scored, which
// tags a crashing site owned) go through Lookup, which is uncharged and
// writes nothing.
#ifndef RFID_DIST_ONS_H_
#define RFID_DIST_ONS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "dist/network.h"

namespace rfid {

/// Directory deployment knobs.
struct OnsOptions {
  /// Shards the tag->site map is hash partitioned across (>= 1).
  int num_shards = 1;
  /// Sites hosting the shards (shard s is hosted at site s % num_sites).
  /// 0 means no hosting sites are known: every shard is charged against
  /// the synthetic kDirectorySite node and resolver caches are disabled
  /// (there is no site to cache at).
  int num_sites = 0;
  /// Per-site resolver caching: a Resolve whose requester already holds
  /// the current mapping costs zero wire bytes. Caches are invalidated
  /// exactly when a mapping changes, so results never go stale.
  bool resolver_cache = true;
};

/// Load counters of one directory shard. `bytes` is the wire traffic
/// charged on this shard's links (zero when no Network is attached).
struct OnsShardStats {
  int64_t updates = 0;          ///< Register calls routed here.
  int64_t unregisters = 0;      ///< Unregister calls that removed an entry.
  int64_t charged_lookups = 0;  ///< Resolves that reached the shard.
  int64_t cache_hits = 0;       ///< Resolves served from a site-local cache.
  int64_t bytes = 0;            ///< Wire bytes charged on this shard's links.
};

/// The sharded object directory. Single-writer (the distributed driver):
/// all charged operations happen in the replay's serial boundary phases,
/// never concurrently with per-site parallel work, so shard state and the
/// per-site caches need no locks and stay bit-deterministic at any thread
/// count. Lookup only reads, so parallel workers may call it between those
/// phases.
class Ons {
 public:
  /// Single shard, no hosting sites: behaves like the pre-sharding
  /// single-node directory (charged against kDirectorySite).
  Ons() { Configure(OnsOptions{}); }
  explicit Ons(OnsOptions options) { Configure(options); }

  /// (Re)configures the shard layout. Drops every registration, cache
  /// entry, and counter; keeps the attached Network.
  void Configure(OnsOptions options);

  /// Routes directory traffic accounting to `network` (must outlive the
  /// Ons).
  void AttachNetwork(Network* network) { network_ = network; }

  /// Points `tag` at `site`, replacing any existing registration. Charged
  /// as one kDirectory message from `site` to the owning shard's host;
  /// invalidates cached resolutions of `tag` when the mapping changed.
  void Register(TagId tag, SiteId site);

  /// Removes `tag` from the directory (object left the tracked world).
  /// Charged from the site that owned the tag to the shard host.
  void Unregister(TagId tag);

  /// Site currently owning `tag`; kNoSite when unregistered. Served from
  /// `requester`'s resolver cache when possible (a cache hit, zero bytes);
  /// otherwise charged as a request from `requester` to the shard host
  /// plus the shard's response.
  SiteId Resolve(TagId tag, SiteId requester);

  /// Site currently owning `tag`, uncharged and not counted as directory
  /// load; kNoSite when unregistered. Read-only, so safe to call from
  /// concurrent readers while no writer runs.
  SiteId Lookup(TagId tag) const;

  /// Shard owning `tag` under a `num_shards`-way hash partition.
  static int ShardOfTag(TagId tag, int num_shards);
  int ShardOf(TagId tag) const { return ShardOfTag(tag, num_shards()); }
  /// Site hosting `shard` (kDirectorySite when num_sites == 0).
  SiteId ShardHost(int shard) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const OnsShardStats& shard_stats(int shard) const {
    return shards_[static_cast<size_t>(shard)];
  }

  /// Resolves that reached a shard (cache misses), summed over shards.
  int64_t charged_lookups() const;
  /// Resolves answered from a site-local cache, summed over shards.
  int64_t cache_hits() const;
  /// Register calls (initial registrations and moves), summed over shards.
  int64_t updates() const;
  /// Unregister calls that removed an entry, summed over shards.
  int64_t unregisters() const;

  /// Live registrations across all shards.
  size_t size() const { return directory_.size(); }

 private:
  /// Drops cached resolutions of `tag` at every site (mapping changed).
  void InvalidateCaches(TagId tag);
  bool CacheableRequester(SiteId requester) const {
    return options_.resolver_cache && requester >= 0 &&
           requester < static_cast<SiteId>(caches_.size());
  }

  OnsOptions options_;
  std::unordered_map<TagId, SiteId> directory_;
  std::vector<OnsShardStats> shards_;
  /// caches_[site]: that site's resolver cache (tag -> last resolved
  /// owner, including negative kNoSite answers).
  std::vector<std::unordered_map<TagId, SiteId>> caches_;
  Network* network_ = nullptr;
};

}  // namespace rfid

#endif  // RFID_DIST_ONS_H_
