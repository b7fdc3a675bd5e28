// Machine-readable run reports: every bench (and any instrumented run)
// exports the same JSON schema, so BENCH_*.json files are uniform and
// diffable instead of per-bench hand-rolled printf formats.
//
// Schema (report_version 1):
//   {
//     "report_version": 1,
//     "bench": "<name>",
//     ...caller Set() scalars (scale, transport, hardware_concurrency)...,
//     "rows": { "<section>": [ {..row..}, ... ], ... },
//     "metrics": {
//       "counters":   { "<name>": <int>, ... },
//       "histograms": { "<name>": {"count","sum","mean","min","max",
//                                   "p50","p95","p99"}, ... }
//     }
//   }
// Histogram quantiles use the registry's fixed log2 buckets; NaN (empty
// histogram) serializes as JSON null. Keys are emitted in insertion order
// and metrics sorted by name, so two runs of the same bench diff cleanly.
#ifndef RFID_OBS_REPORT_H_
#define RFID_OBS_REPORT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"

namespace rfid {
namespace obs {

inline constexpr int kReportVersion = 1;

class RunReport {
 public:
  explicit RunReport(const std::string& bench_name);

  /// Top-level scalar fields (after the fixed header).
  void Set(const std::string& key, JsonValue value);

  /// Appends one row object to the named section under "rows".
  void AddRow(const std::string& section, JsonValue row);

  /// Dumps `registry` under "metrics" (counters and histograms with
  /// p50/p95/p99). Replaces any previous dump.
  void AddMetrics(const MetricsRegistry& registry);

  const JsonValue& root() const { return root_; }
  std::string ToJson(int indent = 2) const { return root_.Dump(indent); }

  /// Writes the report to `path` ("BENCH_<bench>.json" by convention).
  Status Write(const std::string& path) const;

 private:
  JsonValue root_ = JsonValue::Object();
};

/// One histogram snapshot as a report object (exposed for tests).
JsonValue HistogramToJson(const HistogramSnapshot& snapshot);

/// Convenience: `report` written to "BENCH_<bench>.json" in the working
/// directory (the convention every bench follows).
Status WriteReport(const RunReport& report, const std::string& bench_name);

}  // namespace obs
}  // namespace rfid

#endif  // RFID_OBS_REPORT_H_
