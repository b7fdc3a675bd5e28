// Wall-clock stopwatch for "running cost" measurements (Appendix C.1).
#ifndef RFID_COMMON_STOPWATCH_H_
#define RFID_COMMON_STOPWATCH_H_

#include <chrono>

namespace rfid {

/// Monotonic stopwatch; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rfid

#endif  // RFID_COMMON_STOPWATCH_H_
