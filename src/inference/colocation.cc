#include "inference/colocation.h"

#include <algorithm>

#include "common/status.h"

namespace rfid {

void CoLocationCounter::Scan(const Trace& trace, EpochInterval span,
                             const std::vector<TagId>& containers,
                             bool exclusivity_weighted) {
  RFID_CHECK_OK(trace.sealed() ? Status::OK()
                               : Status::InvalidArgument(
                                     "co-location needs a sealed trace"));
  span_ = span;
  weighted_ = exclusivity_weighted;
  num_containers_ = containers.size();
  bursts_.clear();
  members_.clear();
  auto before = [](const auto& read, Epoch t) { return read.time < t; };
  // Every member is one container reading in the span, and every burst
  // has at least one member.
  size_t container_reads = 0;
  for (TagId tag : containers) {
    const TagReadSpan h = trace.HistoryOf(tag);
    container_reads += static_cast<size_t>(
        std::lower_bound(h.begin(), h.end(), span.end + 1, before) -
        std::lower_bound(h.begin(), h.end(), span.begin, before));
  }
  bursts_.reserve(container_reads + 1);
  members_.reserve(container_reads);
  // The span's readings, in canonical (time, reader, tag) order.
  const std::vector<RawReading>& rs = trace.readings();
  const auto first = std::lower_bound(rs.begin(), rs.end(), span.begin, before);
  const auto last = std::lower_bound(first, rs.end(), span.end + 1, before);
  // lint:hot-loop-begin(colocation-bursts)
  for (auto it = first; it != last;) {
    const Epoch t = it->time;
    const LocationId reader = it->reader;
    const auto begin = static_cast<uint32_t>(members_.size());
    // A burst's tags ascend, so its containers are found by one forward
    // search through the sorted container list.
    auto c = containers.begin();
    for (; it != last && it->time == t && it->reader == reader; ++it) {
      c = std::lower_bound(c, containers.end(), it->tag);
      if (c != containers.end() && *c == it->tag) {
        members_.push_back(static_cast<uint32_t>(c - containers.begin()));
      }
    }
    if (members_.size() > begin) bursts_.push_back(Burst{t, reader, begin});
  }
  // lint:hot-loop-end
  bursts_.push_back(
      Burst{span.end + 1, 0, static_cast<uint32_t>(members_.size())});
}

void CoLocationCounter::Rank(TagReadSpan history,
                             std::span<const EpochInterval> ranges, int k,
                             Scratch* scratch) const {
  RFID_CHECK_OK(ranges.size() <= kMaxRanges
                    ? Status::OK()
                    : Status::InvalidArgument("too many co-location ranges"));
  const size_t nc = num_containers_;
  if (scratch->score.size() < kMaxRanges * nc) {
    scratch->score.assign(kMaxRanges * nc, 0.0);
    for (size_t r = 0; r < kMaxRanges; ++r) {
      scratch->touched[r].reserve(nc);
      scratch->ranked[r].reserve(nc);
    }
  }
  for (size_t r = 0; r < ranges.size(); ++r) scratch->touched[r].clear();

  // lint:hot-loop-begin(colocation-rank)
  // The object's reads in the span ascend in (time, reader), as do the
  // bursts: a forward cursor plus a binary search from it finds each read's
  // burst, and every score adds its bursts in trace order.
  auto before = [](const TagRead& r, Epoch t) { return r.time < t; };
  auto burst_before = [](const Burst& b, const TagRead& r) {
    return b.time != r.time ? b.time < r.time : b.reader < r.reader;
  };
  const auto end = bursts_.end() - 1;  // the sentinel
  auto next = bursts_.begin();
  for (auto h = std::lower_bound(history.begin(), history.end(), span_.begin,
                                 before);
       h != history.end() && h->time <= span_.end; ++h) {
    next = std::lower_bound(next, end, *h, burst_before);
    if (next == end) break;
    if (next->time != h->time || next->reader != h->reader) continue;
    const uint32_t first = next->first;
    const uint32_t last = (next + 1)->first;
    // Exclusivity weight: a burst shared by k containers contributes 1/k
    // per pair, so isolated (belt-style) co-location dominates crowded
    // (shelf-style) co-location.
    const double weight =
        weighted_ ? 1.0 / static_cast<double>(last - first) : 1.0;
    for (size_t r = 0; r < ranges.size(); ++r) {
      if (!ranges[r].Contains(h->time)) continue;
      double* score = scratch->score.data() + r * nc;
      std::vector<uint32_t>& touched = scratch->touched[r];
      for (uint32_t m = first; m < last; ++m) {
        const uint32_t c = members_[m];
        // Weights are positive, so a zero score was never touched.
        if (score[c] == 0.0) touched.push_back(c);
        score[c] += weight;
      }
    }
  }

  // Rank each range's scored containers and zero their scores again.
  auto better = [](const ScoredContainer& a, const ScoredContainer& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.container < b.container;  // containers ascend by tag
  };
  for (size_t r = 0; r < ranges.size(); ++r) {
    double* score = scratch->score.data() + r * nc;
    const std::vector<uint32_t>& touched = scratch->touched[r];
    std::vector<ScoredContainer>& ranked = scratch->ranked[r];
    ranked.resize(touched.size());
    for (size_t i = 0; i < touched.size(); ++i) {
      ranked[i] = ScoredContainer{touched[i], score[touched[i]]};
      score[touched[i]] = 0.0;
    }
    const size_t keep = k > 0 ? std::min(static_cast<size_t>(k), ranked.size())
                              : ranked.size();
    const auto cut = ranked.begin() + static_cast<ptrdiff_t>(keep);
    std::partial_sort(ranked.begin(), cut, ranked.end(), better);
    ranked.resize(keep);
  }
  // lint:hot-loop-end
}

}  // namespace rfid
