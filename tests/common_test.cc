// Unit tests for the common substrate: Status/Result, tag ids, RNG,
// log-space math, serialization, compression, metrics, table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/log_space.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/types.h"
#include "inference/state.h"

namespace rfid {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_EQ(st.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad window");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.ToString(), "Invalid argument: bad window");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kCorruption,
        StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeToString(c), "Unknown code");
  }
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    RFID_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(TagIdTest, EncodesKindAndSerial) {
  TagId item = TagId::Item(123);
  TagId case_tag = TagId::Case(123);
  TagId pallet = TagId::Pallet(123);
  EXPECT_TRUE(item.is_item());
  EXPECT_TRUE(case_tag.is_case());
  EXPECT_TRUE(pallet.is_pallet());
  EXPECT_EQ(item.serial(), 123u);
  EXPECT_EQ(case_tag.serial(), 123u);
  EXPECT_NE(item, case_tag);
  EXPECT_EQ(item.ToString(), "item:123");
  EXPECT_EQ(pallet.ToString(), "pallet:123");
}

TEST(TagIdTest, InvalidByDefault) {
  TagId t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t, kNoTag);
  EXPECT_EQ(t.ToString(), "invalid");
}

TEST(TagIdTest, RawRoundTrip) {
  TagId t = TagId::Case(98765);
  EXPECT_EQ(TagId::FromRaw(t.raw()), t);
}

TEST(TagIdTest, OrderingIsStable) {
  EXPECT_LT(TagId::Item(1), TagId::Item(2));
  // Items sort before cases (kind is in the high bits).
  EXPECT_LT(TagId::Item(999), TagId::Case(0));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-1.0));
  EXPECT_TRUE(rng.NextBernoulli(2.0));
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(LogSpaceTest, SafeLogFloors) {
  EXPECT_DOUBLE_EQ(SafeLog(0.0), kLogFloor);
  EXPECT_DOUBLE_EQ(SafeLog(1.0), 0.0);
  EXPECT_DOUBLE_EQ(SafeLog1m(1.0), kLogFloor);
}

TEST(LogSpaceTest, LogSumExpMatchesDirect) {
  std::vector<double> xs{-1.0, -2.0, -3.0};
  double direct =
      std::log(std::exp(-1.0) + std::exp(-2.0) + std::exp(-3.0));
  EXPECT_NEAR(LogSumExp(xs), direct, 1e-12);
}

TEST(LogSpaceTest, LogSumExpHandlesExtremes) {
  std::vector<double> xs{-1000.0, -1001.0};
  EXPECT_NEAR(LogSumExp(xs), -1000.0 + std::log(1 + std::exp(-1.0)), 1e-9);
  std::vector<double> empty;
  EXPECT_TRUE(std::isinf(LogSumExp(empty)));
}

TEST(LogSpaceTest, NormalizeProducesDistribution) {
  std::vector<double> w{-5.0, -6.0, -7.0};
  NormalizeLogWeights(w);
  double sum = 0;
  for (double x : w) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(w[0], w[1]);
  EXPECT_GT(w[1], w[2]);
}

TEST(SerdeTest, FixedWidthRoundTrip) {
  BufferWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(3.14159);
  auto bytes = w.Release();
  BufferReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, VarintRoundTrip) {
  BufferWriter w;
  std::vector<uint64_t> values{0, 1, 127, 128, 300, 1u << 20,
                               0xffffffffffffffffULL};
  for (uint64_t v : values) w.PutVarint(v);
  auto bytes = w.Release();
  BufferReader r(bytes);
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(SerdeTest, SignedVarintRoundTrip) {
  BufferWriter w;
  std::vector<int64_t> values{0, -1, 1, -64, 64, -1000000, 1000000,
                              INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutSignedVarint(v);
  auto bytes = w.Release();
  BufferReader r(bytes);
  for (int64_t expected : values) {
    int64_t v = 0;
    ASSERT_TRUE(r.GetSignedVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(SerdeTest, SmallVarintIsOneByte) {
  BufferWriter w;
  w.PutVarint(5);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SerdeTest, TagRoundTrip) {
  BufferWriter w;
  w.PutTagId(TagId::Item(77));
  auto bytes = w.Release();
  BufferReader r(bytes);
  TagId t;
  ASSERT_TRUE(r.GetTagId(&t).ok());
  EXPECT_EQ(t, TagId::Item(77));
}

TEST(SerdeTest, TruncationDetected) {
  BufferWriter w;
  w.PutU64(1);
  auto bytes = w.Release();
  bytes.resize(4);
  BufferReader r(bytes);
  uint64_t v = 0;
  EXPECT_TRUE(r.GetU64(&v).IsCorruption());
}

TEST(SerdeTest, TruncatedVarintDetected) {
  std::vector<uint8_t> bytes{0x80, 0x80};  // never terminates
  BufferReader r(bytes);
  uint64_t v = 0;
  EXPECT_TRUE(r.GetVarint(&v).IsCorruption());
}

// Only the writer's own encodings decode, so whatever decodes re-encodes
// to the bytes it came from.
TEST(SerdeTest, NonCanonicalEncodingsRejected) {
  const std::vector<std::vector<uint8_t>> varints{
      {0x81, 0x00},  // 1 with a redundant continuation byte
      {0x80, 0x80, 0x00},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}};  // > 64 bits
  for (const std::vector<uint8_t>& bytes : varints) {
    BufferReader r(bytes);
    uint64_t v = 0;
    EXPECT_TRUE(r.GetVarint(&v).IsCorruption()) << bytes.size() << " bytes";
  }
  // Low bits 3 mark the invalid tag, whose serial must be 0.
  const std::vector<uint8_t> tag{0x07};
  BufferReader r(tag);
  TagId t;
  EXPECT_TRUE(r.GetCompactTag(&t).IsCorruption());
}

TEST(CompressTest, RoundTrip) {
  std::vector<uint8_t> input;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    input.push_back(static_cast<uint8_t>(rng.NextBounded(16)));
  }
  std::vector<uint8_t> compressed, restored;
  ASSERT_TRUE(Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), input.size());
  ASSERT_TRUE(Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST(CompressTest, EmptyInput) {
  std::vector<uint8_t> input, compressed, restored;
  ASSERT_TRUE(Compress(input, &compressed).ok());
  ASSERT_TRUE(Decompress(compressed, &restored).ok());
  EXPECT_TRUE(restored.empty());
}

TEST(CompressTest, InvalidLevelRejected) {
  std::vector<uint8_t> input{1, 2, 3}, out;
  EXPECT_TRUE(Compress(input, &out, 0).IsInvalidArgument());
  EXPECT_TRUE(Compress(input, &out, 10).IsInvalidArgument());
}

TEST(CompressTest, GarbageFailsToDecompress) {
  std::vector<uint8_t> garbage{1, 2, 3, 4, 5}, out;
  EXPECT_FALSE(Decompress(garbage, &out).ok());
}

TEST(CompressTest, PayloadDeflatedMoreThanFourfoldRoundTrips) {
  const std::vector<uint8_t> input(64 * 1024, 0);
  std::vector<uint8_t> compressed;
  ASSERT_TRUE(Compress(input, &compressed).ok());
  ASSERT_LT(compressed.size() * 4, input.size());
  std::vector<uint8_t> restored{7, 7, 7};  // replaced, not appended to
  ASSERT_TRUE(Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST(CompressTest, TruncatedStreamIsCorruption) {
  std::vector<uint8_t> input;
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    input.push_back(static_cast<uint8_t>(rng.NextBounded(8)));
  }
  std::vector<uint8_t> compressed, out;
  ASSERT_TRUE(Compress(input, &compressed).ok());
  for (size_t n = 0; n < compressed.size(); ++n) {
    EXPECT_TRUE(Decompress(compressed.data(), n, &out).IsCorruption())
        << "prefix of " << n << " bytes";
  }
}

TEST(MetricsTest, ErrorRatePercent) {
  ErrorRate err;
  err.Add(true);
  err.Add(false);
  err.Add(true);
  err.Add(true);
  EXPECT_DOUBLE_EQ(err.Percent(), 25.0);
  EXPECT_EQ(err.errors(), 1);
  EXPECT_EQ(err.total(), 4);
}

TEST(MetricsTest, ErrorRateEmptyIsNaN) {
  // Unmeasured, not perfect: TablePrinter::Fmt renders it as "n/a".
  ErrorRate err;
  EXPECT_TRUE(std::isnan(err.Percent()));
  EXPECT_EQ(TablePrinter::Fmt(err.Percent(), 1), "n/a");
}

TEST(MetricsTest, FMeasureCombinesPrecisionRecall) {
  FMeasure fm;
  fm.AddTruePositive(8);
  fm.AddFalsePositive(2);
  fm.AddFalseNegative(2);
  EXPECT_DOUBLE_EQ(fm.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(fm.Recall(), 0.8);
  EXPECT_NEAR(fm.Percent(), 80.0, 1e-9);
}

TEST(MetricsTest, FMeasureEmptyIsNaN) {
  FMeasure fm;
  EXPECT_TRUE(std::isnan(fm.Percent()));
  EXPECT_TRUE(std::isnan(fm.Precision()));
  EXPECT_TRUE(std::isnan(fm.Recall()));
}

TEST(MetricsTest, FMeasureMeasuredZeroStaysZero) {
  // Counts exist but nothing was ever right: a real 0, never NaN (and the
  // count form must not inherit NaN from the empty precision).
  FMeasure fm;
  fm.AddFalsePositive(3);
  fm.AddFalseNegative(2);
  EXPECT_DOUBLE_EQ(fm.Percent(), 0.0);
}

TEST(MetricsTest, OnlineStatsMeanVariance) {
  OnlineStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.Add(x);
  EXPECT_DOUBLE_EQ(st.Mean(), 5.0);
  EXPECT_NEAR(st.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(st.Stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(MetricsTest, OnlineStatsMinMaxSummary) {
  OnlineStats st;
  EXPECT_TRUE(std::isnan(st.Min()));
  EXPECT_TRUE(std::isnan(st.Max()));
  EXPECT_EQ(st.Summary(), "n=0");
  for (double x : {1.5, 1.0, 1.2}) st.Add(x);
  EXPECT_DOUBLE_EQ(st.Min(), 1.0);
  EXPECT_DOUBLE_EQ(st.Max(), 1.5);
  EXPECT_EQ(st.Summary(), "n=3 mean=1.233 min=1.000 max=1.500");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xxxx", "1"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("xxxx"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

// The collapsed-state migration path (Section 4.1) layers the serde wire
// format under zlib: a payload must survive the full
// encode -> deflate -> inflate -> decode pipeline bit-exactly.
TEST(MigrationPayloadTest, CollapsedStateCompressRoundTripIsBitExact) {
  std::vector<ObjectMigrationState> states(3);
  for (size_t i = 0; i < states.size(); ++i) {
    ObjectMigrationState& s = states[i];
    s.object = TagId::Item(100 + i);
    s.container = TagId::Case(7 + i);
    s.barrier = static_cast<Epoch>(40 * i) - 1;
    if (i % 2 == 0) {
      s.critical_region = EpochInterval{Epoch(10 + i), Epoch(90 + i)};
    }
    for (int k = 0; k < 5; ++k) {
      // Weights ship at float resolution; use float-exact values so the
      // round trip can be compared bit for bit.
      s.weights.emplace_back(TagId::Case(k),
                             static_cast<double>(static_cast<float>(
                                 -3.25f * static_cast<float>(k + 1))));
    }
  }
  MigrationBatch batch;
  batch.states = states;
  batch.readings.push_back(RawReading{120, TagId::Item(101), 4});
  batch.readings.push_back(RawReading{121, TagId::Case(8), 4});

  const std::vector<uint8_t> encoded = EncodeMigrationBatch(batch);
  std::vector<uint8_t> deflated;
  ASSERT_TRUE(Compress(encoded, &deflated, /*level=*/6).ok());
  ASSERT_LT(deflated.size(), encoded.size() + 32);  // sane, not bloated
  std::vector<uint8_t> inflated;
  ASSERT_TRUE(Decompress(deflated, &inflated).ok());
  ASSERT_EQ(inflated, encoded);  // bit-exact through the compressor

  auto decoded = DecodeMigrationBatch(inflated.data(), inflated.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->states.size(), states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    const ObjectMigrationState& in = states[i];
    const ObjectMigrationState& out = decoded->states[i];
    EXPECT_EQ(out.object, in.object);
    EXPECT_EQ(out.container, in.container);
    EXPECT_EQ(out.barrier, in.barrier);
    EXPECT_EQ(out.critical_region, in.critical_region);
    EXPECT_EQ(out.weights, in.weights);
  }
  EXPECT_EQ(decoded->readings, batch.readings);
  // And re-encoding the decoded batch reproduces the exact wire bytes.
  EXPECT_EQ(EncodeMigrationBatch(*decoded), encoded);
}

TEST(MigrationPayloadTest, CompressRejectsBadLevelAndGarbage) {
  std::vector<uint8_t> out;
  EXPECT_FALSE(Compress({1, 2, 3}, &out, /*level=*/0).ok());
  EXPECT_FALSE(Compress({1, 2, 3}, &out, /*level=*/10).ok());
  std::vector<uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  EXPECT_FALSE(Decompress(garbage, &out).ok());
}

}  // namespace
}  // namespace rfid
