// Interrogation schedules.
//
// Table 2 of the paper: non-shelf readers interrogate every second, shelf
// readers every 10 seconds, and the Section 5.3 mobile deployment replaces
// static shelf readers with a mobile reader that spends 10 seconds per shelf
// sweeping an aisle. A reader that did not interrogate during an epoch gives
// no evidence, so the likelihood of "no reading" (Eq 1, x=0) must only be
// charged for readers that actually scanned. This class tracks, per epoch,
// which readers are active, and exposes the schedule-aware variant of the
// ReadRateModel's LogMissAll kernel.
//
// Epochs are grouped into a small number of *classes*: two readers schedules
// with the same cycle produce a periodic pattern of active-reader sets, and
// all per-epoch quantities that do not depend on actual readings are
// constant within a class. The inference engine exploits this to fold idle
// epochs (no readings for a container group) into per-class constants.
#ifndef RFID_MODEL_SCHEDULE_H_
#define RFID_MODEL_SCHEDULE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "model/read_rate.h"

namespace rfid {

/// Periodic interrogation schedule over a fixed set of reader locations.
class InterrogationSchedule {
 public:
  /// Schedule where every reader interrogates every epoch (the textbook
  /// model of Section 3.1).
  static InterrogationSchedule AlwaysOn(int num_locations);

  explicit InterrogationSchedule(int num_locations);

  /// Reader `r` interrogates at epochs t with t % period == phase.
  /// period >= 1, 0 <= phase < period.
  void SetPeriodic(LocationId r, Epoch period, Epoch phase);

  /// Reader `r` interrogates at epochs t with (t % cycle) in
  /// [start, start+len) -- the mobile-reader pattern (dwell `len` at this
  /// shelf once per sweep of length `cycle`).
  void SetWindowed(LocationId r, Epoch cycle, Epoch start, Epoch len);

  /// Recomputes the epoch-class decomposition. Must be called after the last
  /// SetPeriodic/SetWindowed and before any query below.
  void Finalize(const ReadRateModel& model);

  int num_locations() const { return num_locations_; }

  /// True if reader `r` interrogates during epoch `t`.
  bool ActiveAt(LocationId r, Epoch t) const;

  /// The overall schedule cycle (lcm of reader cycles, capped).
  Epoch cycle() const { return cycle_; }

  /// Number of distinct epoch classes (== cycle, with classes indexed by
  /// t % cycle).
  int num_classes() const { return static_cast<int>(cycle_); }

  /// Class of an epoch.
  int ClassOf(Epoch t) const {
    return static_cast<int>(((t % cycle_) + cycle_) % cycle_);
  }

  /// Schedule-aware LogMissAll: sum over readers active at epochs of class
  /// `cls` of log(1 - pi(r, a)). Precondition: Finalize() called.
  double LogMissAllClass(LocationId a, int cls) const {
    return log_miss_all_[static_cast<size_t>(cls) *
                             static_cast<size_t>(num_locations_) +
                         static_cast<size_t>(a)];
  }

  /// Convenience: LogMissAllClass at the class of epoch t.
  double LogMissAllAt(LocationId a, Epoch t) const {
    return LogMissAllClass(a, ClassOf(t));
  }

  /// Calls f(cls, count) in ascending class order for every class with
  /// count > 0 epochs in the inclusive range [begin, end]; epochs before 0
  /// are not counted. Three divisions for the whole range, not two per class.
  template <typename F>
  void ForEachClassCount(Epoch begin, Epoch end, F&& f) const {
    begin = std::max<Epoch>(begin, 0);
    if (end < begin) return;
    const Epoch len = end - begin + 1;
    const int64_t full = len / cycle_;
    const Epoch rem = len % cycle_;
    const Epoch first = begin % cycle_;
    for (Epoch cls = 0; cls < cycle_; ++cls) {
      // Epoch begin + i has class cls iff i == offset (mod cycle).
      const Epoch offset = cls >= first ? cls - first : cls - first + cycle_;
      const int64_t count = full + (offset < rem ? 1 : 0);
      if (count > 0) f(static_cast<int>(cls), count);
    }
  }

 private:
  struct ReaderSchedule {
    Epoch cycle = 1;
    Epoch start = 0;  ///< active iff (t % cycle) in [start, start+len)
    Epoch len = 1;
  };

  int num_locations_;
  Epoch cycle_ = 1;
  std::vector<ReaderSchedule> readers_;
  /// [cls * R + a] -> sum of log-miss over active readers.
  std::vector<double> log_miss_all_;
  bool finalized_ = false;
};

}  // namespace rfid

#endif  // RFID_MODEL_SCHEDULE_H_
