// The two record schemas the paper distinguishes (Section 2):
//  - raw RFID readings (time, tag id, reader id) produced by readers, and
//  - object events (time, tag id, location, container) produced by the
//    inference module and consumed by query processing.
// Plus auxiliary sensor readings (temperature) for hybrid queries.
#ifndef RFID_TRACE_READING_H_
#define RFID_TRACE_READING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace rfid {

/// One raw RFID observation: reader `reader` interrogated and received tag
/// `tag` during epoch `time`.
struct RawReading {
  Epoch time = 0;
  TagId tag;
  LocationId reader = kNoLocation;

  friend bool operator==(const RawReading&, const RawReading&) = default;
};

/// Orders readings by (time, reader, tag); the canonical stream order.
struct RawReadingOrder {
  bool operator()(const RawReading& a, const RawReading& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.reader != b.reader) return a.reader < b.reader;
    return a.tag < b.tag;
  }
};

/// One inferred object event, the input schema for query processing.
struct ObjectEvent {
  Epoch time = 0;
  TagId tag;
  LocationId loc = kNoLocation;
  /// Inferred container; kNoTag when the object is believed uncontained.
  TagId container;

  friend bool operator==(const ObjectEvent&, const ObjectEvent&) = default;
};

/// One environmental sensor sample (e.g. temperature at a location), used by
/// hybrid queries such as Q1.
struct SensorReading {
  Epoch time = 0;
  LocationId loc = kNoLocation;
  double value = 0.0;

  friend bool operator==(const SensorReading&, const SensorReading&) = default;
};

/// A (epoch, reader) pair in a tag's sparse read history.
struct TagRead {
  Epoch time = 0;
  LocationId reader = kNoLocation;

  friend bool operator==(const TagRead&, const TagRead&) = default;
  friend bool operator<(const TagRead& a, const TagRead& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.reader < b.reader;
  }
};

/// Non-owning view of one tag's time-ordered history inside a sealed
/// trace's flat index. Valid until the owning trace is resealed,
/// compacted, or destroyed.
class TagReadSpan {
 public:
  constexpr TagReadSpan() = default;
  constexpr TagReadSpan(const TagRead* data, size_t size)
      : data_(data), size_(size) {}
  // Implicit on purpose: lets vector-holding callers (tests, baselines)
  // pass straight into span-taking APIs.
  TagReadSpan(const std::vector<TagRead>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  constexpr const TagRead* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr const TagRead* begin() const { return data_; }
  constexpr const TagRead* end() const { return data_ + size_; }
  constexpr const TagRead& operator[](size_t i) const { return data_[i]; }
  constexpr const TagRead& front() const { return data_[0]; }
  constexpr const TagRead& back() const { return data_[size_ - 1]; }

 private:
  const TagRead* data_ = nullptr;
  size_t size_ = 0;
};

std::string ToString(const RawReading& r);
std::string ToString(const ObjectEvent& e);

}  // namespace rfid

#endif  // RFID_TRACE_READING_H_
