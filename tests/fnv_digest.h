// FNV-1a digest over the outputs of a distributed replay: the accuracy
// series, query alerts and wire counters that the pinned-output tests
// compare bit for bit.
#ifndef RFID_TESTS_FNV_DIGEST_H_
#define RFID_TESTS_FNV_DIGEST_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "dist/distributed.h"

namespace rfid {

/// FNV-1a over the bytes of 64-bit words.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void Snapshots(
      const std::vector<DistributedSystem::ErrorSnapshot>& snapshots) {
    for (const DistributedSystem::ErrorSnapshot& s : snapshots) {
      Mix(static_cast<uint64_t>(s.epoch));
      Mix(std::bit_cast<uint64_t>(s.error_percent));
    }
  }
  void Alerts(const std::vector<ExposureAlert>& alerts) {
    for (const ExposureAlert& a : alerts) {
      Mix(a.tag.raw());
      Mix(static_cast<uint64_t>(a.first_time));
      Mix(static_cast<uint64_t>(a.last_time));
      Mix(static_cast<uint64_t>(a.n_events));
    }
  }
  /// Bytes and messages of every message kind, in kind order.
  void WireCounts(const Network& network) {
    for (int k = 0; k < kNumMessageKinds; ++k) {
      const MessageKind kind = static_cast<MessageKind>(k);
      Mix(static_cast<uint64_t>(network.BytesOfKind(kind)));
      Mix(static_cast<uint64_t>(network.MessagesOfKind(kind)));
    }
  }
};

}  // namespace rfid

#endif  // RFID_TESTS_FNV_DIGEST_H_
