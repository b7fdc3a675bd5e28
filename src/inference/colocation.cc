#include "inference/colocation.h"

#include <algorithm>
#include <unordered_set>

#include "common/status.h"

namespace rfid {

namespace {

// Scans the canonical-ordered (time, reader, tag) readings of epochs
// [begin, end] -- a binary search finds the first, the scan stops after
// the last; within one (epoch, reader) run, pairs every object with every
// container.
template <typename ContainerPred, typename ObjectPred>
void CountRuns(const Trace& trace, Epoch begin, Epoch end,
               ContainerPred is_container, ObjectPred is_object,
               bool exclusivity_weighted,
               std::unordered_map<TagId, std::unordered_map<TagId, double>>*
                   counts) {
  RFID_CHECK_OK(trace.sealed() ? Status::OK()
                               : Status::InvalidArgument(
                                     "co-location needs a sealed trace"));
  const auto& rs = trace.readings();
  const size_t n = rs.size();
  const auto first =
      std::partition_point(rs.begin(), rs.end(), [&](const RawReading& r) {
        return r.time < begin;
      });
  size_t i = static_cast<size_t>(first - rs.begin());
  std::vector<TagId> run_containers;
  std::vector<TagId> run_objects;
  // lint:hot-loop-begin(colocation-count)
  while (i < n && rs[i].time <= end) {
    const Epoch t = rs[i].time;
    const LocationId reader = rs[i].reader;
    size_t j = i;
    run_containers.clear();
    run_objects.clear();
    while (j < n && rs[j].time == t && rs[j].reader == reader) {
      const TagId tag = rs[j].tag;
      // lint:allow(hot-loop-alloc): cleared-and-reused across runs;
      // capacity hits the largest burst early, then pushes stop
      // allocating. A reserve would need a burst-size pre-scan.
      if (is_container(tag)) run_containers.push_back(tag);
      // lint:allow(hot-loop-alloc): same steady-state capacity.
      if (is_object(tag)) run_objects.push_back(tag);
      ++j;
    }
    if (!run_containers.empty()) {
      // Exclusivity weight: a burst shared by k containers contributes 1/k
      // per pair, so isolated (belt-style) co-location dominates crowded
      // (shelf-style) co-location.
      const double weight =
          exclusivity_weighted
              ? 1.0 / static_cast<double>(run_containers.size())
              : 1.0;
      for (TagId o : run_objects) {
        auto& per_object = (*counts)[o];
        for (TagId c : run_containers) per_object[c] += weight;
      }
    }
    i = j;
  }
  // lint:hot-loop-end
}

}  // namespace

CoLocationCounter CoLocationCounter::FromTrace(const Trace& trace, Epoch begin,
                                               Epoch end,
                                               bool exclusivity_weighted) {
  CoLocationCounter counter;
  CountRuns(
      trace, begin, end, [](TagId t) { return t.is_case(); },
      [](TagId t) { return t.is_item(); }, exclusivity_weighted,
      &counter.counts_);
  return counter;
}

CoLocationCounter CoLocationCounter::FromTraceWithRoles(
    const Trace& trace, Epoch begin, Epoch end,
    const std::vector<TagId>& containers, const std::vector<TagId>& objects,
    bool exclusivity_weighted) {
  std::unordered_set<TagId> cset(containers.begin(), containers.end());
  std::unordered_set<TagId> oset(objects.begin(), objects.end());
  CoLocationCounter counter;
  CountRuns(
      trace, begin, end, [&](TagId t) { return cset.contains(t); },
      [&](TagId t) { return oset.contains(t); }, exclusivity_weighted,
      &counter.counts_);
  return counter;
}

CandidateSet CoLocationCounter::TopCandidates(TagId object, int k) const {
  CandidateSet out;
  auto it = counts_.find(object);
  if (it == counts_.end()) return out;
  std::vector<std::pair<TagId, double>> pairs(it->second.begin(),
                                              it->second.end());
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  if (k > 0 && static_cast<size_t>(k) < pairs.size()) {
    pairs.resize(static_cast<size_t>(k));
  }
  for (const auto& [tag, count] : pairs) {
    out.containers.push_back(tag);
    out.counts.push_back(count);
  }
  return out;
}

std::vector<TagId> CoLocationCounter::Objects() const {
  std::vector<TagId> objects;
  objects.reserve(counts_.size());
  for (const auto& [tag, unused] : counts_) objects.push_back(tag);
  std::sort(objects.begin(), objects.end());
  return objects;
}

double CoLocationCounter::CountOf(TagId object, TagId container) const {
  auto it = counts_.find(object);
  if (it == counts_.end()) return 0.0;
  auto jt = it->second.find(container);
  return jt == it->second.end() ? 0.0 : jt->second;
}

void CoLocationCounter::Merge(const CoLocationCounter& other) {
  for (const auto& [object, per_container] : other.counts_) {
    auto& mine = counts_[object];
    for (const auto& [container, count] : per_container) {
      mine[container] += count;
    }
  }
}

}  // namespace rfid
