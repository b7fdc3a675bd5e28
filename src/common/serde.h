// Byte-level serialization used for inference-state and query-state
// migration between sites (Section 4 of the paper).
//
// The distributed experiments account communication cost in bytes of
// *actually serialized* payloads, so the wire format matters: fixed-width
// little-endian primitives plus LEB128 varints for counts and deltas.
#ifndef RFID_COMMON_SERDE_H_
#define RFID_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace rfid {

/// Append-only binary encoder.
class BufferWriter {
 public:
  BufferWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }

  /// Single-precision float; used where 4 bytes of resolution suffice
  /// (e.g. migrated co-location weights).
  void PutFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }

  /// LEB128 unsigned varint (1 byte for values < 128).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Zigzag-encoded signed varint.
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  void PutTagId(TagId id) { PutU64(id.raw()); }

  /// Varint tag encoding: (serial << 2) | kind, with 3 in the low bits
  /// reserved for the invalid tag. 1-3 bytes for ordinary serials.
  void PutCompactTag(TagId id) {
    if (!id.valid()) {
      PutVarint(3);
    } else {
      PutVarint((id.serial() << 2) | static_cast<uint64_t>(id.kind()));
    }
  }

  /// Raw bytes, no length prefix.
  void PutBytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  template <typename T>
  void PutFixed(T v) {
    // Little-endian, byte by byte, portable regardless of host endianness.
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Sequential binary decoder over a borrowed byte span. All getters report
/// truncation/corruption through Status rather than UB. Varints and
/// compact tags decode only in the form the writer emits (no redundant
/// continuation bytes, no bits past 64, no payload on the invalid tag), so
/// a value read from any byte string re-encodes to those same bytes.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out) { return GetFixed(out); }
  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }

  Status GetDouble(double* out) {
    uint64_t bits = 0;
    RFID_RETURN_NOT_OK(GetFixed(&bits));
    std::memcpy(out, &bits, sizeof(bits));
    return Status::OK();
  }

  Status GetFloat(float* out) {
    uint32_t bits = 0;
    RFID_RETURN_NOT_OK(GetFixed(&bits));
    std::memcpy(out, &bits, sizeof(bits));
    return Status::OK();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) {
        return Status::Corruption("truncated varint");
      }
      uint8_t byte = data_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (shift > 0 && (byte == 0 || (shift == 63 && byte > 1))) {
          return Status::Corruption("non-canonical varint");
        }
        *out = result;
        return Status::OK();
      }
    }
    return Status::Corruption("varint too long");
  }

  Status GetSignedVarint(int64_t* out) {
    uint64_t z = 0;
    RFID_RETURN_NOT_OK(GetVarint(&z));
    *out = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
    return Status::OK();
  }

  Status GetTagId(TagId* out) {
    uint64_t raw = 0;
    RFID_RETURN_NOT_OK(GetU64(&raw));
    *out = TagId::FromRaw(raw);
    return Status::OK();
  }

  Status GetCompactTag(TagId* out) {
    uint64_t v = 0;
    RFID_RETURN_NOT_OK(GetVarint(&v));
    if ((v & 3) == 3) {
      if (v != 3) return Status::Corruption("non-canonical invalid tag");
      *out = kNoTag;
    } else {
      *out = TagId::Make(static_cast<TagKind>(v & 3), v >> 2);
    }
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (n > remaining()) return Status::Corruption("skip past end");
    pos_ += n;
    return Status::OK();
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    if (remaining() < sizeof(T)) {
      return Status::Corruption("truncated fixed-width field");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace rfid

#endif  // RFID_COMMON_SERDE_H_
