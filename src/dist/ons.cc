#include "dist/ons.h"

#include "common/serde.h"

namespace rfid {

namespace {

/// Wire form of a directory record: compact tag plus the site id biased by
/// one so kNoSite encodes as 0. The responses and requests below are what a
/// real ONS deployment would put on the wire, minus transport framing.
std::vector<uint8_t> EncodeDirectoryRecord(TagId tag, SiteId site) {
  BufferWriter w;
  w.PutCompactTag(tag);
  w.PutVarint(static_cast<uint64_t>(static_cast<int64_t>(site) + 1));
  return w.Release();
}

std::vector<uint8_t> EncodeDirectoryKey(TagId tag) {
  BufferWriter w;
  w.PutCompactTag(tag);
  return w.Release();
}

std::vector<uint8_t> EncodeDirectorySite(SiteId site) {
  BufferWriter w;
  w.PutVarint(static_cast<uint64_t>(static_cast<int64_t>(site) + 1));
  return w.Release();
}

}  // namespace

void Ons::Configure(OnsOptions options) {
  if (options.num_shards < 1) options.num_shards = 1;
  if (options.num_sites < 0) options.num_sites = 0;
  options_ = options;
  directory_.clear();
  shards_.assign(static_cast<size_t>(options_.num_shards), OnsShardStats{});
  caches_.assign(
      options_.resolver_cache ? static_cast<size_t>(options_.num_sites) : 0,
      {});
}

int Ons::ShardOfTag(TagId tag, int num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer (TagIdHash): sequential serials spread evenly.
  return static_cast<int>(TagIdHash{}(tag) %
                          static_cast<uint64_t>(num_shards));
}

SiteId Ons::ShardHost(int shard) const {
  if (options_.num_sites <= 0) return kDirectorySite;
  return static_cast<SiteId>(shard % options_.num_sites);
}

void Ons::Register(TagId tag, SiteId site) {
  const int shard = ShardOf(tag);
  OnsShardStats& st = shards_[static_cast<size_t>(shard)];
  auto it = directory_.find(tag);
  const bool changed = it == directory_.end() || it->second != site;
  if (it == directory_.end()) {
    directory_.emplace(tag, site);
  } else {
    it->second = site;
  }
  ++st.updates;
  // A first registration also invalidates: caches may hold a negative
  // (kNoSite) answer from a pre-registration Resolve.
  if (changed) InvalidateCaches(tag);
  if (network_ != nullptr) {
    st.bytes += static_cast<int64_t>(
        network_->Send(site, ShardHost(shard), MessageKind::kDirectory,
                       EncodeDirectoryRecord(tag, site)));
  }
}

void Ons::Unregister(TagId tag) {
  auto it = directory_.find(tag);
  if (it == directory_.end()) return;
  const SiteId owner = it->second;
  directory_.erase(it);
  const int shard = ShardOf(tag);
  OnsShardStats& st = shards_[static_cast<size_t>(shard)];
  ++st.unregisters;
  InvalidateCaches(tag);
  if (network_ != nullptr) {
    st.bytes += static_cast<int64_t>(
        network_->Send(owner, ShardHost(shard), MessageKind::kDirectory,
                       EncodeDirectoryKey(tag)));
  }
}

SiteId Ons::Resolve(TagId tag, SiteId requester) {
  const int shard = ShardOf(tag);
  OnsShardStats& st = shards_[static_cast<size_t>(shard)];
  if (CacheableRequester(requester)) {
    auto& cache = caches_[static_cast<size_t>(requester)];
    auto hit = cache.find(tag);
    if (hit != cache.end()) {
      ++st.cache_hits;
      return hit->second;
    }
  }
  ++st.charged_lookups;
  auto it = directory_.find(tag);
  const SiteId site = it == directory_.end() ? kNoSite : it->second;
  if (network_ != nullptr) {
    const SiteId host = ShardHost(shard);
    st.bytes += static_cast<int64_t>(network_->Send(
        requester, host, MessageKind::kDirectory, EncodeDirectoryKey(tag)));
    st.bytes += static_cast<int64_t>(
        network_->Send(host, requester, MessageKind::kDirectory,
                       EncodeDirectorySite(site)));
  }
  if (CacheableRequester(requester)) {
    caches_[static_cast<size_t>(requester)][tag] = site;
  }
  return site;
}

SiteId Ons::Lookup(TagId tag) const {
  auto it = directory_.find(tag);
  return it == directory_.end() ? kNoSite : it->second;
}

void Ons::InvalidateCaches(TagId tag) {
  // lint:allow(unordered-iter): iterates the outer per-site vector (in
  // site order); each step is a keyed erase on the inner map.
  for (auto& cache : caches_) cache.erase(tag);
}

int64_t Ons::charged_lookups() const {
  int64_t sum = 0;
  for (const OnsShardStats& st : shards_) sum += st.charged_lookups;
  return sum;
}

int64_t Ons::cache_hits() const {
  int64_t sum = 0;
  for (const OnsShardStats& st : shards_) sum += st.cache_hits;
  return sum;
}

int64_t Ons::updates() const {
  int64_t sum = 0;
  for (const OnsShardStats& st : shards_) sum += st.updates;
  return sum;
}

int64_t Ons::unregisters() const {
  int64_t sum = 0;
  for (const OnsShardStats& st : shards_) sum += st.unregisters;
  return sum;
}

}  // namespace rfid
