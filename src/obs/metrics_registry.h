// Process-wide metrics primitives for the telemetry layer (the
// per-message-kind and per-window breakdowns Section 5 / Table 5 of the
// paper argues from, made first-class instead of re-derived per bench):
// named counters and fixed-bucket latency histograms collected in a
// MetricsRegistry and exported into RunReport JSON (obs/report.h).
//
// Concurrency contract: registration (GetCounter/GetHistogram) takes a
// mutex and returns a pointer that stays valid for the registry's
// lifetime; the hot path -- Counter::Add, Histogram::Record -- is
// lock-free (relaxed atomics). Instruments are therefore safe to hit
// from SiteExecutor worker threads while the registry is concurrently
// handing out instruments to others, which the TSan CI pass exercises
// (tests/obs_test.cc). Telemetry never feeds back into results: every
// value is derived from wall clocks or event counts that the replay
// already performs, so determinism matrices stay bit-identical with
// collection on or off.
#ifndef RFID_OBS_METRICS_REGISTRY_H_
#define RFID_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace rfid {
namespace obs {

/// Monotonic event/byte counter. Lock-free.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of a histogram (reads are torn-free per bucket but
/// not across buckets; quantiles over a live histogram are approximate by
/// nature, which is fine for latency reporting).
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;  ///< sum of recorded values (same unit as records)
  int64_t min = 0;  ///< 0 when empty
  int64_t max = 0;
  std::vector<int64_t> buckets;  ///< per-bucket counts (kNumBuckets)

  double Mean() const {
    return count == 0 ? nan_() : static_cast<double>(sum) /
                                     static_cast<double>(count);
  }
  /// Value at quantile q in [0, 1], interpolated within the holding
  /// bucket's range (clamped to the observed min/max). NaN when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

 private:
  static double nan_();
};

/// Fixed-bucket histogram of non-negative int64 samples (the telemetry
/// layer records nanoseconds). Bucket b holds values in [2^(b-1), 2^b)
/// (bucket 0 holds {0}), so 64 buckets cover the full range with ~2x
/// relative quantile error -- the standard log2 latency layout. Record is
/// lock-free.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(int64_t value);
  HistogramSnapshot Snapshot() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Bucket index holding `value` (exposed for tests).
  static int BucketOf(int64_t value);

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// Named instrument directory. Names are flat strings with '/'-separated
/// structure and 'key=value' label segments by convention, e.g.
/// "phase/window_compute", "net/bytes/kind=inference_state",
/// "ons/shard=3/lookups". First Get* with a name creates the instrument;
/// later calls (any thread) return the same pointer. A name denotes one
/// instrument type for the registry's lifetime (checked).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  struct Entry {
    std::string name;
    const Counter* counter = nullptr;      ///< set for counters
    const Histogram* histogram = nullptr;  ///< set for histograms
  };
  /// Every registered instrument, sorted by name (stable report diffs).
  std::vector<Entry> Entries() const;

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::vector<std::pair<std::string, Instrument>> instruments_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace rfid

#endif  // RFID_OBS_METRICS_REGISTRY_H_
