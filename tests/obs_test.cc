// Tests for the telemetry layer (src/obs): metrics registry correctness
// (histogram buckets and quantile edge cases, concurrent registration --
// the TSan CI target), JSON emit/parse round-trips, Chrome trace
// well-formedness, and the RunReport schema.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace_sink.h"

namespace rfid {
namespace obs {
namespace {

// ---- Counters / registry ----

TEST(MetricsRegistryTest, CounterAccumulates) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("net/bytes/kind=raw");
  c->Add(10);
  c->Add(32);
  EXPECT_EQ(c->value(), 42);
}

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.GetCounter("a"), reg.GetCounter("a"));
  EXPECT_EQ(reg.GetHistogram("h"), reg.GetHistogram("h"));
  EXPECT_NE(static_cast<void*>(reg.GetCounter("a")),
            static_cast<void*>(reg.GetCounter("b")));
}

TEST(MetricsRegistryTest, EntriesSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("zeta");
  reg.GetHistogram("alpha");
  const std::vector<MetricsRegistry::Entry> entries = reg.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_NE(entries[0].histogram, nullptr);
  EXPECT_EQ(entries[1].name, "zeta");
  EXPECT_NE(entries[1].counter, nullptr);
}

// Registration races against recording: many threads creating overlapping
// instrument names while hammering them. The TSan CI pass runs this test;
// the assertions double as a liveness check (every Add lands somewhere).
TEST(MetricsRegistryTest, ConcurrentRegistrationAndRecording) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&reg, i] {
      for (int j = 0; j < kIters; ++j) {
        // Names overlap across threads, so most Get*s race on the same
        // entries; each also keeps one private name alive.
        reg.GetCounter("shared/counter")->Add(1);
        reg.GetHistogram("shared/histogram")->Record(j);
        reg.GetCounter("private/" + std::to_string(i))->Add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared/counter")->value(), kThreads * kIters);
  EXPECT_EQ(reg.GetHistogram("shared/histogram")->count(),
            kThreads * kIters);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(reg.GetCounter("private/" + std::to_string(i))->value(),
              kIters);
  }
}

// ---- Histogram ----

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(-5), 0);  // clamped, not UB
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(INT64_MAX), 63);
}

// Regression: BucketOf narrows std::bit_width's result to int. Pin the
// invariant that makes the narrowing safe -- every representable sample
// lands in [0, kNumBuckets), with one bucket per bit position.
TEST(HistogramTest, BucketOfCoversEveryBitPosition) {
  for (int bit = 0; bit < 63; ++bit) {
    const int64_t v = int64_t{1} << bit;
    const int b = Histogram::BucketOf(v);
    EXPECT_EQ(b, bit + 1) << "value 1<<" << bit;
    EXPECT_GE(b, 0);
    EXPECT_LT(b, Histogram::kNumBuckets);
    // The top value of the same bucket (next power of two minus one).
    EXPECT_EQ(Histogram::BucketOf(v + (v - 1)), b) << "value 2^" << bit + 1
                                                   << "-1";
  }
}

TEST(HistogramTest, SnapshotCountsSumMinMax) {
  Histogram h;
  for (int64_t v : {5, 9, 100, 0, 7}) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.sum, 121);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.Mean(), 121.0 / 5.0);
}

TEST(HistogramTest, EmptyQuantilesAreNaN) {
  const HistogramSnapshot s = Histogram().Snapshot();
  EXPECT_TRUE(std::isnan(s.P50()));
  EXPECT_TRUE(std::isnan(s.P99()));
  EXPECT_TRUE(std::isnan(s.Mean()));
}

TEST(HistogramTest, SingleValueQuantilesClampToIt) {
  Histogram h;
  h.Record(1000);
  const HistogramSnapshot s = h.Snapshot();
  // Interpolation inside the holding bucket is clamped to the observed
  // range, so one sample answers itself at every quantile.
  EXPECT_DOUBLE_EQ(s.P50(), 1000.0);
  EXPECT_DOUBLE_EQ(s.P95(), 1000.0);
  EXPECT_DOUBLE_EQ(s.P99(), 1000.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, QuantilesOrderedAndWithinRange) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  const double p50 = s.P50();
  const double p95 = s.P95();
  const double p99 = s.P99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Log2 buckets carry ~2x relative error; p50 of uniform 1..1000 must
  // land in the bucket holding 500 = [256, 512).
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 1024.0);
}

// Regression: a fractional rank landing between two buckets (just past
// the cumulative count of one, before the first sample of the next) used
// to interpolate below the holding bucket's lower edge, making p99 < p95.
TEST(HistogramTest, QuantileMonotoneAcrossBucketBoundary) {
  Histogram h;
  // 162 samples through bucket 8, then 2 in bucket 9: the p99 rank
  // (0.99 * 163 + 1 = 162.37) falls in the inter-bucket gap.
  h.Record(0);
  for (int i = 0; i < 5; ++i) h.Record(5);     // bucket 3
  for (int i = 0; i < 4; ++i) h.Record(10);    // bucket 4
  for (int i = 0; i < 8; ++i) h.Record(20);    // bucket 5
  for (int i = 0; i < 14; ++i) h.Record(40);   // bucket 6
  for (int i = 0; i < 37; ++i) h.Record(80);   // bucket 7
  for (int i = 0; i < 93; ++i) h.Record(160);  // bucket 8
  for (int i = 0; i < 2; ++i) h.Record(256);   // bucket 9
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.count, 164);
  double prev = 0.0;
  for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 256.0);
    prev = v;
  }
}

TEST(HistogramTest, ZeroOnlyDistribution) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_DOUBLE_EQ(s.P50(), 0.0);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0);
}

// ---- JSON ----

TEST(JsonTest, DumpAndParseRoundTrip) {
  JsonValue root = JsonValue::Object();
  root.Set("int", int64_t{42});
  root.Set("neg", int64_t{-7});
  root.Set("pi", 3.25);
  root.Set("s", "hello \"world\"\n");
  root.Set("t", true);
  root.Set("nothing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Append(int64_t{1});
  arr.Append("two");
  root.Set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    Result<JsonValue> parsed = ParseJson(root.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Find("int")->AsInt(), 42);
    EXPECT_EQ(parsed->Find("neg")->AsInt(), -7);
    EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsDouble(), 3.25);
    EXPECT_EQ(parsed->Find("s")->AsString(), "hello \"world\"\n");
    EXPECT_TRUE(parsed->Find("t")->AsBool());
    EXPECT_TRUE(parsed->Find("nothing")->is_null());
    ASSERT_EQ(parsed->Find("arr")->items().size(), 2u);
    EXPECT_EQ(parsed->Find("arr")->items()[1].AsString(), "two");
  }
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  JsonValue root = JsonValue::Object();
  root.Set("nan", std::numeric_limits<double>::quiet_NaN());
  root.Set("inf", std::numeric_limits<double>::infinity());
  Result<JsonValue> parsed = ParseJson(root.Dump(0));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("nan")->is_null());
  EXPECT_TRUE(parsed->Find("inf")->is_null());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue root = JsonValue::Object();
  root.Set("z", 1);
  root.Set("a", 2);
  root.Set("m", 3);
  root.Set("z", 4);  // replace keeps first-insertion position
  ASSERT_EQ(root.members().size(), 3u);
  EXPECT_EQ(root.members()[0].first, "z");
  EXPECT_EQ(root.members()[0].second.AsInt(), 4);
  EXPECT_EQ(root.members()[1].first, "a");
  EXPECT_EQ(root.members()[2].first, "m");
}

TEST(JsonTest, MalformedInputRejected) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\": 1,}"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  Result<JsonValue> parsed = ParseJson("\"\\u00e9\\u0041\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "\xc3\xa9""A");
}

// ---- Trace sink ----

TEST(TraceSinkTest, ToJsonIsWellFormedChromeTrace) {
  TraceSink sink;
  sink.Add(TraceEvent{"window_compute", kFirstSiteTrack + 1, 1000, 500, 30});
  sink.Add(TraceEvent{"queue_drain", kDriverTrack, 2000, 250, 60});
  EXPECT_EQ(sink.size(), 2u);

  Result<JsonValue> parsed = ParseJson(sink.ToJson(/*num_sites=*/2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 4 thread_name metadata records (driver, transport, 2 sites) + 2 slices.
  ASSERT_EQ(events->items().size(), 6u);
  int slices = 0;
  int metadata = 0;
  for (const JsonValue& e : events->items()) {
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.Find("name")->AsString(), "thread_name");
    } else {
      ASSERT_EQ(ph, "X");
      ++slices;
      EXPECT_GE(e.Find("dur")->AsDouble(), 0.0);
      EXPECT_NE(e.Find("args")->Find("epoch"), nullptr);
    }
  }
  EXPECT_EQ(metadata, 4);
  EXPECT_EQ(slices, 2);
  // ts/dur are microseconds: 1000 ns -> 1.0 us.
  const JsonValue& first = events->items()[4];
  EXPECT_DOUBLE_EQ(first.Find("ts")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(first.Find("dur")->AsDouble(), 0.5);
  EXPECT_EQ(first.Find("tid")->AsInt(), kFirstSiteTrack + 1);
}

// ---- Telemetry + PhaseTimer ----

TEST(TelemetryTest, PhaseTimerRecordsHistogramAndTrace) {
  Telemetry tel("unused_path.json");  // non-empty -> sink active
  ASSERT_TRUE(tel.tracing());
  { PhaseTimer t(&tel, Phase::kInference, /*epoch=*/300); }
  { PhaseTimer t(&tel, Phase::kInference, /*epoch=*/600); }
  EXPECT_EQ(tel.phase_histogram(Phase::kInference).count(), 2);
  EXPECT_EQ(tel.phase_histogram(Phase::kQueueDrain).count(), 0);
  EXPECT_EQ(tel.sink()->size(), 2u);
}

TEST(TelemetryTest, NullTelemetryIsANoOp) {
  // Must not crash or allocate; this is the collect_metrics=false path.
  PhaseTimer t(nullptr, Phase::kWindowCompute, 0);
}

TEST(TelemetryTest, WireBytesBecomeRegistryCounters) {
  Telemetry tel;
  EXPECT_FALSE(tel.tracing());
  tel.AddWireBytes(1, "inference_state", 100);
  tel.AddWireBytes(1, "inference_state", 50);
  tel.AddWireBytes(3, "directory", 38);
  EXPECT_EQ(
      tel.registry().GetCounter("net/bytes/kind=inference_state")->value(),
      150);
  EXPECT_EQ(
      tel.registry()
          .GetCounter("net/messages/kind=inference_state")
          ->value(),
      2);
  EXPECT_EQ(tel.registry().GetCounter("net/bytes/kind=directory")->value(),
            38);
}

TEST(TelemetryTest, PhaseNamesAreStableRegistryKeys) {
  Telemetry tel;
  EXPECT_STREQ(PhaseName(Phase::kWindowCompute), "window_compute");
  EXPECT_STREQ(PhaseName(Phase::kKernelRead), "kernel_read");
  // Every phase is pre-registered under phase/<name>.
  bool found = false;
  for (const MetricsRegistry::Entry& e : tel.registry().Entries()) {
    if (e.name == "phase/window_compute") found = e.histogram != nullptr;
  }
  EXPECT_TRUE(found);
}

// ---- RunReport ----

TEST(RunReportTest, SchemaRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("net/bytes/kind=raw_readings")->Add(1234);
  Histogram* h = reg.GetHistogram("phase/inference");
  for (int64_t v : {100, 200, 400}) h->Record(v);

  RunReport report("obs_test");
  report.Set("scale", 1);
  report.AddRow("rows_a", [] {
    JsonValue r = JsonValue::Object();
    r.Set("k", 1);
    return r;
  }());
  report.AddRow("rows_a", [] {
    JsonValue r = JsonValue::Object();
    r.Set("k", 2);
    return r;
  }());
  report.AddMetrics(reg);

  const std::string path = ::testing::TempDir() + "/obs_test_report.json";
  ASSERT_TRUE(report.Write(path).ok());
  std::string text;
  {
    FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());

  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("report_version")->AsInt(), kReportVersion);
  EXPECT_EQ(parsed->Find("bench")->AsString(), "obs_test");
  EXPECT_EQ(parsed->Find("scale")->AsInt(), 1);
  const JsonValue* rows = parsed->Find("rows")->Find("rows_a");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 2u);
  EXPECT_EQ(rows->items()[1].Find("k")->AsInt(), 2);

  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("counters")
                ->Find("net/bytes/kind=raw_readings")
                ->AsInt(),
            1234);
  const JsonValue* hist =
      metrics->Find("histograms")->Find("phase/inference");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsInt(), 3);
  EXPECT_EQ(hist->Find("sum")->AsInt(), 700);
  EXPECT_EQ(hist->Find("min")->AsInt(), 100);
  EXPECT_EQ(hist->Find("max")->AsInt(), 400);
  const double p50 = hist->Find("p50")->AsDouble();
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 400.0);
  EXPECT_LE(p50, hist->Find("p99")->AsDouble());
}

TEST(RunReportTest, EmptyHistogramExportsNullQuantiles) {
  MetricsRegistry reg;
  reg.GetHistogram("phase/idle");
  RunReport report("obs_test");
  report.AddMetrics(reg);
  Result<JsonValue> parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* hist =
      parsed->Find("metrics")->Find("histograms")->Find("phase/idle");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsInt(), 0);
  EXPECT_TRUE(hist->Find("p50")->is_null());
  EXPECT_TRUE(hist->Find("min")->is_null());
  EXPECT_TRUE(hist->Find("mean")->is_null());
}

}  // namespace
}  // namespace obs
}  // namespace rfid
