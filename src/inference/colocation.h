// Co-location counting: the bootstrap signal for containment inference.
//
// Section 3: "First, we start with the best available information about
// object locations and have a guess about containment relationships based on
// co-location." Appendix A.3 (candidate pruning): "we restrict the set of
// candidate containers to those that were most frequently co-located during
// the first several epochs ... we also include as candidates the most
// frequently co-located containers from recent epochs."
//
// Two tags are counted as co-located at epoch t when the same reader
// returned both of them during t.
#ifndef RFID_INFERENCE_COLOCATION_H_
#define RFID_INFERENCE_COLOCATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "trace/trace.h"

namespace rfid {

/// A container and its co-location score with one object.
struct ScoredContainer {
  uint32_t container = 0;  ///< index into the counter's container list
  double score = 0.0;
};

/// Counts (object, container) co-locations in a sealed trace.
///
/// Scores are *exclusivity-weighted*: a co-occurrence within one
/// (epoch, reader) burst adds 1/k when k containers appear in the burst.
/// Being read alone with a container at the belt is near-certain evidence
/// of containment; being read alongside 15 containers on a crowded shelf
/// says little. Weighting keeps the EM's initial guess from locking onto a
/// same-shelf confounder whose raw co-occurrence count rivals the true
/// container's.
///
/// Scan() records once per span the (epoch, reader) bursts that read a
/// container; Rank() then scores one object at a time by walking the
/// object's own sparse history against those bursts, for several epoch
/// ranges in one walk. Rank is const, so objects can be ranked on
/// different threads, each with its own Scratch. Each score adds its
/// bursts in trace order, so the sums do not depend on how objects are
/// split.
class CoLocationCounter {
 public:
  /// Most epoch ranges one Rank call scores.
  static constexpr size_t kMaxRanges = 3;

  /// Reused buffers of one thread's Rank calls.
  struct Scratch {
    /// score[r * containers + i]: range r's score of container i; all zero
    /// between calls.
    std::vector<double> score;
    /// The containers each range has scored, in first-seen order.
    std::vector<uint32_t> touched[kMaxRanges];
    /// Rank's output: range r's containers ranked by (score desc, tag asc).
    std::vector<ScoredContainer> ranked[kMaxRanges];
  };

  /// Records every (epoch, reader) burst of `trace` with epoch in `span`
  /// that read at least one of `containers` (sorted, distinct; container i
  /// is containers[i]). Other tags count in no role. `exclusivity_weighted`
  /// selects the 1/k weighting; false gives the paper's plain
  /// co-occurrence counts. The trace must be sealed; the counter keeps no
  /// reference to it.
  void Scan(const Trace& trace, EpochInterval span,
            const std::vector<TagId>& containers, bool exclusivity_weighted);

  /// Scores the object whose sparse history is `history` against the
  /// bursts of the latest Scan in each of `ranges` (at most kMaxRanges,
  /// each inside the scanned span) and leaves in scratch->ranked[r] range
  /// r's top `k` containers (k <= 0 means all) by decreasing score, equal
  /// scores by ascending tag.
  void Rank(TagReadSpan history, std::span<const EpochInterval> ranges,
            int k, Scratch* scratch) const;

 private:
  /// One burst that read at least one container: its containers are
  /// members_[first, next burst's first).
  struct Burst {
    Epoch time = 0;
    LocationId reader = kNoLocation;
    uint32_t first = 0;
  };

  EpochInterval span_;
  size_t num_containers_ = 0;
  bool weighted_ = true;
  /// In (time, reader) order, then a sentinel whose `first` ends the last
  /// burst's members.
  std::vector<Burst> bursts_;
  std::vector<uint32_t> members_;
};

}  // namespace rfid

#endif  // RFID_INFERENCE_COLOCATION_H_
