#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/status.h"

namespace rfid {
namespace obs {

double HistogramSnapshot::nan_() {
  return std::numeric_limits<double>::quiet_NaN();
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return nan_();
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, nearest-rank with interpolation
  // inside the bucket that holds it).
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  int64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const int64_t in_bucket = buckets[b];
    if (static_cast<double>(seen + in_bucket) < rank) {
      seen += in_bucket;
      continue;
    }
    // Interpolate linearly across the bucket's value range [lo, hi).
    const double lo = b == 0 ? 0.0 : static_cast<double>(int64_t{1}
                                                         << (b - 1));
    const double hi = b == 0 ? 1.0
                             : (b >= 63 ? static_cast<double>(max)
                                        : static_cast<double>(int64_t{1}
                                                              << b));
    // A fractional rank can sit between the previous bucket's last sample
    // (rank == seen) and this bucket's first (rank == seen + 1), making
    // the raw fraction negative; clamp so the value stays inside this
    // bucket and quantiles stay monotone in q.
    const double within =
        in_bucket <= 1
            ? 0.0
            : std::clamp((rank - static_cast<double>(seen) - 1.0) /
                             static_cast<double>(in_bucket - 1),
                         0.0, 1.0);
    const double v = lo + within * (hi - lo);
    // The exact min/max are tracked; clamp so single-bucket histograms
    // report real observed bounds instead of bucket edges.
    return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
  }
  return static_cast<double>(max);
}

int Histogram::BucketOf(int64_t value) {
  if (value <= 0) return 0;
  // bit_width of a positive int64 is in [1, 63]: always a valid bucket.
  return static_cast<int>(std::bit_width(static_cast<uint64_t>(value)));
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Racy min/max update: a lost race between two concurrent records can
  // only leave a value that some thread genuinely observed.
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.buckets.resize(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t n = buckets_[b].load(std::memory_order_relaxed);
    s.buckets[static_cast<size_t>(b)] = n;
    s.count += n;
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& [n, inst] : instruments_) {
    if (n == name) {
      RFID_CHECK_OK(inst.counter != nullptr
                        ? Status::OK()
                        : Status::InvalidArgument(
                              "metric '" + name +
                              "' already registered with another type"));
      return inst.counter.get();
    }
  }
  Instrument inst;
  inst.counter = std::make_unique<Counter>();
  Counter* out = inst.counter.get();
  instruments_.emplace_back(name, std::move(inst));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& [n, inst] : instruments_) {
    if (n == name) {
      RFID_CHECK_OK(inst.histogram != nullptr
                        ? Status::OK()
                        : Status::InvalidArgument(
                              "metric '" + name +
                              "' already registered with another type"));
      return inst.histogram.get();
    }
  }
  Instrument inst;
  inst.histogram = std::make_unique<Histogram>();
  Histogram* out = inst.histogram.get();
  instruments_.emplace_back(name, std::move(inst));
  return out;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::Entries() const {
  std::vector<Entry> out;
  {
    MutexLock lock(&mu_);
    out.reserve(instruments_.size());
    for (const auto& [name, inst] : instruments_) {
      Entry e;
      e.name = name;
      e.counter = inst.counter.get();
      e.histogram = inst.histogram.get();
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

}  // namespace obs
}  // namespace rfid
