// Core identifier and time types shared by every module.
//
// The paper's data model (Section 2): tags identify pallets, cases, and
// items; the tag id encodes the packaging level (EPC tag data standard).
// Time is discretized into epochs (Section 3.1), and locations are the
// discrete set of reader positions.
#ifndef RFID_COMMON_TYPES_H_
#define RFID_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace rfid {

/// One discrete time epoch (the paper uses 1-second epochs). Epoch 0 is the
/// start of a trace.
using Epoch = int64_t;

/// Index of a reader location in the discrete location set R.
using LocationId = int32_t;

/// Index of a site (warehouse / hospital wing) in the distributed deployment.
using SiteId = int32_t;

/// Inclusive epoch interval.
struct EpochInterval {
  Epoch begin = 0;
  Epoch end = -1;  ///< end < begin denotes the empty interval

  bool empty() const { return end < begin; }
  int64_t length() const { return empty() ? 0 : end - begin + 1; }
  bool Contains(Epoch t) const { return t >= begin && t <= end; }

  friend bool operator==(const EpochInterval&, const EpochInterval&) = default;
};

/// Sentinel for "location unknown / not applicable".
inline constexpr LocationId kNoLocation = -1;

/// Sentinel for "no site".
inline constexpr SiteId kNoSite = -1;

/// Packaging level encoded in a tag id, mirroring the EPC tag data standard
/// the paper relies on ("the tag id can also indicate the level of
/// packaging, e.g., a pallet, a case, or an item").
enum class TagKind : uint8_t {
  kItem = 0,
  kCase = 1,
  kPallet = 2,
};

std::string ToString(TagKind kind);

/// A 64-bit tag identity. The top 2 bits carry the TagKind; the remaining 62
/// bits are the serial number. Value-semantic and hashable.
class TagId {
 public:
  constexpr TagId() : raw_(kInvalidRaw) {}

  /// Builds a tag id from a packaging level and serial number.
  static constexpr TagId Make(TagKind kind, uint64_t serial) {
    return TagId((static_cast<uint64_t>(kind) << kKindShift) |
                 (serial & kSerialMask));
  }

  static constexpr TagId Item(uint64_t serial) {
    return Make(TagKind::kItem, serial);
  }
  static constexpr TagId Case(uint64_t serial) {
    return Make(TagKind::kCase, serial);
  }
  static constexpr TagId Pallet(uint64_t serial) {
    return Make(TagKind::kPallet, serial);
  }

  /// Reconstructs a tag id from its raw 64-bit encoding (serialization).
  static constexpr TagId FromRaw(uint64_t raw) { return TagId(raw); }

  constexpr bool valid() const { return raw_ != kInvalidRaw; }
  constexpr uint64_t raw() const { return raw_; }
  constexpr uint64_t serial() const { return raw_ & kSerialMask; }
  constexpr TagKind kind() const {
    return static_cast<TagKind>((raw_ >> kKindShift) & 0x3);
  }
  constexpr bool is_item() const { return kind() == TagKind::kItem; }
  constexpr bool is_case() const { return kind() == TagKind::kCase; }
  constexpr bool is_pallet() const { return kind() == TagKind::kPallet; }

  /// "item:42", "case:7", "pallet:3", or "invalid".
  std::string ToString() const;

  friend constexpr bool operator==(TagId a, TagId b) {
    return a.raw_ == b.raw_;
  }
  friend constexpr bool operator!=(TagId a, TagId b) {
    return a.raw_ != b.raw_;
  }
  friend constexpr bool operator<(TagId a, TagId b) { return a.raw_ < b.raw_; }

 private:
  static constexpr int kKindShift = 62;
  static constexpr uint64_t kSerialMask = (uint64_t{1} << kKindShift) - 1;
  static constexpr uint64_t kInvalidRaw =
      std::numeric_limits<uint64_t>::max();

  explicit constexpr TagId(uint64_t raw) : raw_(raw) {}

  uint64_t raw_;
};

/// Sentinel tag id ("no container", "unknown object").
inline constexpr TagId kNoTag{};

struct TagIdHash {
  size_t operator()(TagId id) const noexcept {
    // splitmix64 finalizer: cheap and well distributed for sequential serials.
    uint64_t x = id.raw();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace rfid

template <>
struct std::hash<rfid::TagId> {
  size_t operator()(rfid::TagId id) const noexcept {
    return rfid::TagIdHash{}(id);
  }
};

#endif  // RFID_COMMON_TYPES_H_
