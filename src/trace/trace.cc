#include "trace/trace.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace rfid {

Trace& Trace::operator=(Trace&& other) noexcept {
  if (this != &other) {
    readings_ = std::exchange(other.readings_, {});
    sorted_ = std::exchange(other.sorted_, 0);
    sealed_ = std::exchange(other.sealed_, true);
    keys_ = std::exchange(other.keys_, {});
    offsets_ = std::exchange(other.offsets_, {});
    flat_ = std::exchange(other.flat_, {});
  }
  return *this;
}

std::vector<RawReading> Trace::TakeReadings() {
  std::vector<RawReading> out = std::move(readings_);
  readings_.clear();
  sorted_ = 0;
  InvalidateIndex();
  sealed_ = false;
  return out;
}

void Trace::Seal() {
  MergeTail();
  sorted_ = readings_.size();
  BuildIndex();
  sealed_ = true;
}

void Trace::InvalidateIndex() {
  keys_.clear();
  offsets_.clear();
  flat_.clear();
}

// Merges the appended tail readings_[sorted_, n) into the sorted prefix.
// Prefix readings below the smallest tail reading stay where they are;
// from there on the range is sorted in place, which for a stream's next
// period (all after the prefix, often already in order) is the tail
// alone. A merge buffer for a tail that reaches deep into the prefix (a
// migrated history) would raise the peak memory of the buffers that take
// the largest such tails. One unique pass over the range drops duplicates
// within the tail and against the prefix.
void Trace::MergeTail() {
  const auto first = readings_.begin();
  const auto mid = first + static_cast<ptrdiff_t>(sorted_);
  const auto last = readings_.end();
  if (mid == last) return;
  const RawReadingOrder less;
  const auto from =
      std::lower_bound(first, mid, *std::min_element(mid, last, less), less);
  if (!std::is_sorted(from, last, less)) std::sort(from, last, less);
  readings_.erase(std::unique(from, last), last);
}

namespace {

/// One open-addressing slot of the tag hash; `id` is the tag's dense id
/// plus one, 0 marking a free slot, so every 64-bit tag value is a key.
struct TagSlot {
  TagId tag;
  uint32_t id = 0;
};

/// Doubles `slots` and reinserts the distinct (tag, id) pairs seen so far.
void GrowSlots(const std::vector<std::pair<TagId, uint32_t>>& distinct,
               std::vector<TagSlot>* slots) {
  slots->assign(2 * slots->size(), TagSlot{});
  const size_t mask = slots->size() - 1;
  for (const auto& [tag, id] : distinct) {
    size_t h = TagIdHash{}(tag) & mask;
    while ((*slots)[h].id != 0) h = (h + 1) & mask;
    (*slots)[h] = TagSlot{tag, id + 1};
  }
}

}  // namespace

// Precondition: readings_ is in canonical order. Three passes: give every
// reading its tag's dense id (first-seen order) from an open-addressing
// hash kept at most half full, sort the distinct tags into key runs and
// prefix-sum the offsets, then scatter TagReads into the flat array.
// Per-tag entries land in (time, reader) order because the global scan
// order is (time, reader, tag). The scratch lives only for the call: kept
// across Seals it would add to every buffer's resident memory. The last
// index's key count sizes the hash, so a stream's Seals rarely grow it.
void Trace::BuildIndex() {
  const size_t n = readings_.size();
  std::vector<TagSlot> slots(
      std::bit_ceil(std::max<size_t>(64, 2 * keys_.size())));
  std::vector<uint32_t> ids(n);
  std::vector<std::pair<TagId, uint32_t>> distinct;
  distinct.reserve(keys_.size());
  std::vector<uint32_t> counts;
  counts.reserve(keys_.size());

  // lint:hot-loop-begin(index-ids)
  for (size_t i = 0; i < n; ++i) {
    const TagId tag = readings_[i].tag;
    const size_t mask = slots.size() - 1;
    size_t h = TagIdHash{}(tag) & mask;
    while (slots[h].id != 0 && slots[h].tag != tag) h = (h + 1) & mask;
    if (slots[h].id == 0) {  // the tag's first reading
      const auto id = static_cast<uint32_t>(distinct.size());
      distinct.emplace_back(tag, id);
      counts.push_back(0);
      slots[h] = TagSlot{tag, id + 1};
      ids[i] = id;
      if (2 * distinct.size() > slots.size()) GrowSlots(distinct, &slots);
    } else {
      ids[i] = slots[h].id - 1;
    }
    ++counts[ids[i]];
  }
  // lint:hot-loop-end

  std::sort(distinct.begin(), distinct.end());
  const size_t k = distinct.size();
  keys_.resize(k);
  offsets_.resize(k + 1);
  flat_.resize(n);
  offsets_[0] = 0;
  // lint:hot-loop-begin(index-scatter)
  for (size_t p = 0; p < k; ++p) {
    const auto& [tag, id] = distinct[p];
    keys_[p] = tag;
    offsets_[p + 1] = offsets_[p] + counts[id];
    counts[id] = offsets_[p];  // from here on: the id's scatter cursor
  }
  for (size_t i = 0; i < n; ++i) {
    const RawReading& r = readings_[i];
    flat_[counts[ids[i]]++] = TagRead{r.time, r.reader};
  }
  // lint:hot-loop-end
}

TagReadSpan Trace::HistoryOf(TagId tag) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), tag);
  if (it == keys_.end() || *it != tag) return TagReadSpan{};
  const size_t i = static_cast<size_t>(it - keys_.begin());
  return TagReadSpan{flat_.data() + offsets_[i],
                     offsets_[i + 1] - offsets_[i]};
}

}  // namespace rfid
