// In-memory trace containers: a time-ordered raw stream plus a per-tag
// sparse index, which is the representation RFINFER consumes (Appendix A.3:
// "many of these tables, especially the history tables, are sparse").
//
// Seal() builds the per-tag index as a compressed-sparse-row (CSR) layout:
// one sorted key array, one offset array, one flat TagRead array -- no
// per-tag heap nodes. The arrays are owned vectors whose capacity is reused
// across Seals.
#ifndef RFID_TRACE_TRACE_H_
#define RFID_TRACE_TRACE_H_

#include <algorithm>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "trace/reading.h"

namespace rfid {

/// A raw RFID trace: readings in canonical (time, reader, tag) order with a
/// per-tag sparse history index rebuilt by Seal(). Copies own their index;
/// a move carries the index buffers, so spans taken before it stay valid.
class Trace {
 public:
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

  /// Copies the readings with time in [begin, end] into a new trace.
  Trace Slice(Epoch begin, Epoch end) const;

  /// Drops every reading for which `pred` is false, in place (the relative
  /// order of survivors is preserved). Leaves the trace unsealed.
  template <typename Pred>
  void RetainIf(Pred pred) {
    readings_.erase(
        std::remove_if(readings_.begin(), readings_.end(),
                       [&](const RawReading& r) { return !pred(r); }),
        readings_.end());
    sealed_ = false;
  }

 private:
  void BuildIndex();
  void InvalidateIndex();

  std::vector<RawReading> readings_;
  bool sealed_ = true;

  // CSR per-tag index: keys_[i] owns flat_[offsets_[i] .. offsets_[i+1]).
  std::vector<TagId> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<TagRead> flat_;
};

}  // namespace rfid

#endif  // RFID_TRACE_TRACE_H_
