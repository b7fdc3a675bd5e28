// Merging a buffer of consecutive sorted runs: an E-step's group reads (one
// run per tag of the group) and a migration export's readings (one run per
// tag history) are each gathered from parts that are already sorted.
#ifndef RFID_COMMON_MERGE_RUNS_H_
#define RFID_COMMON_MERGE_RUNS_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace rfid {

/// Merges the consecutive sorted runs of `buf` (run r ends at (*ends)[r])
/// into one sequence sorted by `less`, merging neighbouring runs pairwise
/// until one remains: O(n log runs) instead of sorting the concatenation.
/// `tmp` is scratch; `ends` is consumed.
template <typename T, typename Less = std::less<T>>
void MergeRuns(std::vector<T>* buf, std::vector<size_t>* ends,
               std::vector<T>* tmp, Less less = Less()) {
  while (ends->size() > 1) {
    tmp->resize(buf->size());
    size_t begin = 0;
    size_t kept = 0;
    for (size_t r = 0; r < ends->size(); r += 2) {
      const size_t mid = (*ends)[r];
      const size_t end = r + 1 < ends->size() ? (*ends)[r + 1] : mid;
      std::merge(buf->begin() + static_cast<ptrdiff_t>(begin),
                 buf->begin() + static_cast<ptrdiff_t>(mid),
                 buf->begin() + static_cast<ptrdiff_t>(mid),
                 buf->begin() + static_cast<ptrdiff_t>(end),
                 tmp->begin() + static_cast<ptrdiff_t>(begin), less);
      (*ends)[kept++] = end;
      begin = end;
    }
    ends->resize(kept);
    buf->swap(*tmp);
  }
}

}  // namespace rfid

#endif  // RFID_COMMON_MERGE_RUNS_H_
