#include "trace/trace.h"

#include <algorithm>

namespace rfid {

std::vector<RawReading> Trace::TakeReadings() {
  std::vector<RawReading> out = std::move(readings_);
  readings_.clear();
  InvalidateIndex();
  sealed_ = false;
  return out;
}

void Trace::Seal() {
  std::sort(readings_.begin(), readings_.end(), RawReadingOrder{});
  readings_.erase(std::unique(readings_.begin(), readings_.end()),
                  readings_.end());
  BuildIndex();
  sealed_ = true;
}

void Trace::InvalidateIndex() {
  keys_.clear();
  offsets_.clear();
  flat_.clear();
}

// Precondition: readings_ is in canonical order. Three passes: collect+sort
// tags into key runs, prefix-sum the offsets, then scatter TagReads into
// the flat array. Per-tag entries land in (time, reader) order because the
// global scan order is (time, reader, tag).
void Trace::BuildIndex() {
  const size_t n = readings_.size();
  std::vector<TagId> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = readings_[i].tag;
  std::sort(all.begin(), all.end());
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || all[i] != all[i - 1]) ++k;
  }
  keys_.resize(k);
  offsets_.resize(k + 1);
  flat_.resize(n);
  std::vector<uint32_t> cursor(k);

  // lint:hot-loop-begin(index-scatter)
  offsets_[0] = 0;
  size_t ki = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && all[j] == all[i]) ++j;
    keys_[ki] = all[i];
    offsets_[ki + 1] = offsets_[ki] + static_cast<uint32_t>(j - i);
    ++ki;
    i = j;
  }
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
  for (const RawReading& r : readings_) {
    const size_t idx = static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), r.tag) - keys_.begin());
    flat_[cursor[idx]++] = TagRead{r.time, r.reader};
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

Trace Trace::Slice(Epoch begin, Epoch end) const {
  Trace out;
  for (const RawReading& r : readings_) {
    if (r.time >= begin && r.time <= end) out.Add(r);
  }
  out.Seal();
  return out;
}

}  // namespace rfid
