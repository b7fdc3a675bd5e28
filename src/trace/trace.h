// In-memory trace containers: a time-ordered raw stream plus a per-tag
// sparse index, which is the representation RFINFER consumes (Appendix A.3:
// "many of these tables, especially the history tables, are sparse").
//
// Seal() builds the per-tag index as a compressed-sparse-row (CSR) layout:
// one sorted key array, one offset array, one flat TagRead array -- no
// per-tag heap nodes. A streaming window buffer is resealed once per
// inference period with most of its readings already in order, so Seal
// sorts only what was appended since the last Seal and merges it in. The
// arrays are owned vectors whose capacity is reused across Seals.
#ifndef RFID_TRACE_TRACE_H_
#define RFID_TRACE_TRACE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "trace/reading.h"

namespace rfid {

/// A raw RFID trace: readings in canonical (time, reader, tag) order with a
/// per-tag sparse history index rebuilt by Seal(). Copies own their index;
/// a move carries the index buffers, so spans taken before it stay valid,
/// and leaves the source an empty sealed trace.
class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = default;
  Trace& operator=(const Trace&) = default;
  Trace(Trace&& other) noexcept { *this = std::move(other); }
  Trace& operator=(Trace&& other) noexcept;

  /// Appends one reading. Readings may arrive unsorted; call Seal() before
  /// reading per-tag histories.
  void Add(const RawReading& r) {
    readings_.push_back(r);
    sealed_ = false;
  }

  void Append(const std::vector<RawReading>& rs) {
    Append(rs.data(), rs.size());
  }

  void Append(const RawReading* rs, size_t n) {
    readings_.insert(readings_.end(), rs, rs + n);
    sealed_ = false;
  }

  /// Sorts readings into canonical order, removes exact duplicates, and
  /// rebuilds the per-tag index. All spans handed out by previous Seals of
  /// this trace are invalidated.
  ///
  /// Cost: the readings of the last Seal that RetainIf kept form a sorted,
  /// duplicate-free prefix. Only the readings appended since are sorted,
  /// and prefix readings below the smallest of them are not touched again;
  /// when all of them sort after the prefix (a stream's next period),
  /// nothing moves. The index then costs one hash lookup per reading plus
  /// a sort of the distinct tags. TakeReadings forgets the prefix.
  void Seal();

  bool sealed() const { return sealed_; }
  size_t size() const { return readings_.size(); }
  bool empty() const { return readings_.empty(); }

  /// All readings in canonical order. Precondition: sealed().
  const std::vector<RawReading>& readings() const { return readings_; }

  /// Moves the readings out (e.g. after decoding a wire batch), leaving the
  /// trace empty and unsealed.
  std::vector<RawReading> TakeReadings();

  /// Sparse history of one tag (time-ordered). Empty if the tag was never
  /// read. Precondition: sealed(). The span is valid until the next Seal
  /// (or mutation) of this trace.
  TagReadSpan HistoryOf(TagId tag) const;

  /// All tags that appear in the trace, sorted. Precondition: sealed().
  std::vector<TagId> Tags() const { return keys_; }

  /// First/last epoch present; [0, -1] when empty. Precondition: sealed().
  Epoch MinEpoch() const { return readings_.empty() ? 0 : readings_.front().time; }
  Epoch MaxEpoch() const { return readings_.empty() ? -1 : readings_.back().time; }

  /// Drops every reading for which `pred` is false, in place (the relative
  /// order of survivors is preserved). Leaves the trace unsealed; the
  /// survivors of the sorted prefix stay the sorted prefix.
  template <typename Pred>
  void RetainIf(Pred pred) {
    auto drop = [&](const RawReading& r) { return !pred(r); };
    const auto mid = readings_.begin() + static_cast<ptrdiff_t>(sorted_);
    const auto kept = std::remove_if(readings_.begin(), mid, drop);
    const auto tail_end = std::remove_if(mid, readings_.end(), drop);
    readings_.erase(std::move(mid, tail_end, kept), readings_.end());
    sorted_ = static_cast<size_t>(kept - readings_.begin());
    sealed_ = false;
  }

 private:
  void MergeTail();
  void BuildIndex();
  void InvalidateIndex();

  std::vector<RawReading> readings_;
  /// readings_[0, sorted_) is in canonical order without duplicates.
  size_t sorted_ = 0;
  bool sealed_ = true;

  // CSR per-tag index: keys_[i] owns flat_[offsets_[i] .. offsets_[i+1]).
  std::vector<TagId> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<TagRead> flat_;
};

}  // namespace rfid

#endif  // RFID_TRACE_TRACE_H_
