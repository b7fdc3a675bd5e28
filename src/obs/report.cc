#include "obs/report.h"

#include <utility>

namespace rfid {
namespace obs {

RunReport::RunReport(const std::string& bench_name) {
  root_.Set("report_version", kReportVersion);
  root_.Set("bench", bench_name);
}

void RunReport::Set(const std::string& key, JsonValue value) {
  root_.Set(key, std::move(value));
}

void RunReport::AddRow(const std::string& section, JsonValue row) {
  const JsonValue* rows = root_.Find("rows");
  if (rows == nullptr) {
    root_.Set("rows", JsonValue::Object());
    rows = root_.Find("rows");
  }
  // Find returns a const view; Set-with-move below rebuilds the member, so
  // copy out, mutate, write back (reports are built once, size is small).
  JsonValue rows_copy = *rows;
  const JsonValue* section_array = rows_copy.Find(section);
  JsonValue arr =
      section_array == nullptr ? JsonValue::Array() : *section_array;
  arr.Append(std::move(row));
  rows_copy.Set(section, std::move(arr));
  root_.Set("rows", std::move(rows_copy));
}

JsonValue HistogramToJson(const HistogramSnapshot& snapshot) {
  JsonValue h = JsonValue::Object();
  h.Set("count", snapshot.count);
  h.Set("sum", snapshot.sum);
  h.Set("mean", snapshot.Mean());
  h.Set("min", snapshot.count == 0 ? JsonValue() : JsonValue(snapshot.min));
  h.Set("max", snapshot.count == 0 ? JsonValue() : JsonValue(snapshot.max));
  h.Set("p50", snapshot.P50());
  h.Set("p95", snapshot.P95());
  h.Set("p99", snapshot.P99());
  return h;
}

void RunReport::AddMetrics(const MetricsRegistry& registry) {
  JsonValue counters = JsonValue::Object();
  JsonValue histograms = JsonValue::Object();
  for (const MetricsRegistry::Entry& e : registry.Entries()) {
    if (e.counter != nullptr) {
      counters.Set(e.name, e.counter->value());
    } else if (e.histogram != nullptr) {
      histograms.Set(e.name, HistogramToJson(e.histogram->Snapshot()));
    }
  }
  JsonValue metrics = JsonValue::Object();
  metrics.Set("counters", std::move(counters));
  metrics.Set("histograms", std::move(histograms));
  root_.Set("metrics", std::move(metrics));
}

Status RunReport::Write(const std::string& path) const {
  return WriteJsonFile(root_, path, /*indent=*/2);
}

Status WriteReport(const RunReport& report, const std::string& bench_name) {
  return report.Write("BENCH_" + bench_name + ".json");
}

}  // namespace obs
}  // namespace rfid
