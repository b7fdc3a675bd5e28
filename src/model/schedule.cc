#include "model/schedule.h"

#include <numeric>

namespace rfid {

namespace {
// Schedules whose lcm exceeds this are rejected at Finalize time by capping;
// in practice cycles are 1, 10, or one mobile sweep (<= a few thousand).
constexpr Epoch kMaxCycle = 1 << 20;

Epoch Lcm(Epoch a, Epoch b) {
  return a / std::gcd(a, b) * b;
}
}  // namespace

InterrogationSchedule::InterrogationSchedule(int num_locations)
    : num_locations_(num_locations),
      readers_(static_cast<size_t>(num_locations)) {}

InterrogationSchedule InterrogationSchedule::AlwaysOn(int num_locations) {
  InterrogationSchedule s(num_locations);
  return s;  // default ReaderSchedule{1, 0, 1} is always-on
}

void InterrogationSchedule::SetPeriodic(LocationId r, Epoch period,
                                        Epoch phase) {
  readers_[static_cast<size_t>(r)] = ReaderSchedule{period, phase, 1};
  finalized_ = false;
}

void InterrogationSchedule::SetWindowed(LocationId r, Epoch cycle, Epoch start,
                                        Epoch len) {
  readers_[static_cast<size_t>(r)] = ReaderSchedule{cycle, start, len};
  finalized_ = false;
}

bool InterrogationSchedule::ActiveAt(LocationId r, Epoch t) const {
  const ReaderSchedule& s = readers_[static_cast<size_t>(r)];
  Epoch m = ((t % s.cycle) + s.cycle) % s.cycle;
  // The active window may wrap around the cycle boundary.
  Epoch off = m - s.start;
  if (off < 0) off += s.cycle;
  return off < s.len;
}

void InterrogationSchedule::Finalize(const ReadRateModel& model) {
  cycle_ = 1;
  for (const ReaderSchedule& s : readers_) {
    cycle_ = Lcm(cycle_, s.cycle);
    if (cycle_ > kMaxCycle) {
      cycle_ = kMaxCycle;  // degrade gracefully; kept for safety, not hit
      break;
    }
  }
  log_miss_all_.assign(
      static_cast<size_t>(cycle_) * static_cast<size_t>(num_locations_), 0.0);
  for (Epoch cls = 0; cls < cycle_; ++cls) {
    double* row = &log_miss_all_[static_cast<size_t>(cls) *
                                 static_cast<size_t>(num_locations_)];
    for (LocationId r = 0; r < num_locations_; ++r) {
      if (!ActiveAt(r, cls)) continue;
      for (LocationId a = 0; a < num_locations_; ++a) {
        row[a] += model.LogMiss(r, a);
      }
    }
  }
  finalized_ = true;
}

}  // namespace rfid
