// Unit tests for the trace data model: traces, ground truth, trace I/O,
// and the product catalog.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "common/serde.h"
#include "trace/ground_truth.h"
#include "trace/product_catalog.h"
#include "trace/reading.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace rfid {
namespace {

TEST(TraceTest, SealSortsAndDedups) {
  Trace t;
  t.Add(RawReading{5, TagId::Item(1), 0});
  t.Add(RawReading{3, TagId::Item(2), 1});
  t.Add(RawReading{5, TagId::Item(1), 0});  // duplicate
  t.Add(RawReading{3, TagId::Item(1), 1});
  t.Seal();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.readings()[0].time, 3);
  EXPECT_EQ(t.readings()[0].tag, TagId::Item(1));
  EXPECT_EQ(t.readings()[1].tag, TagId::Item(2));
  EXPECT_EQ(t.readings()[2].time, 5);
}

TEST(TraceTest, HistoryOfIsPerTagTimeOrdered) {
  Trace t;
  t.Add(RawReading{9, TagId::Item(1), 2});
  t.Add(RawReading{1, TagId::Item(1), 0});
  t.Add(RawReading{4, TagId::Item(2), 1});
  t.Seal();
  const auto& h = t.HistoryOf(TagId::Item(1));
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].time, 1);
  EXPECT_EQ(h[1].time, 9);
  EXPECT_TRUE(t.HistoryOf(TagId::Item(99)).empty());
}

TEST(TraceTest, MinMaxEpochAndEmpty) {
  Trace t;
  t.Seal();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.MinEpoch(), 0);
  EXPECT_EQ(t.MaxEpoch(), -1);
  t.Add(RawReading{7, TagId::Item(1), 0});
  t.Add(RawReading{2, TagId::Item(1), 0});
  t.Seal();
  EXPECT_EQ(t.MinEpoch(), 2);
  EXPECT_EQ(t.MaxEpoch(), 7);
}

TEST(TraceTest, SliceFiltersInclusive) {
  Trace t;
  for (Epoch e = 0; e < 10; ++e) {
    t.Add(RawReading{e, TagId::Item(1), 0});
  }
  t.Seal();
  Trace s = t.Slice(3, 6);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.MinEpoch(), 3);
  EXPECT_EQ(s.MaxEpoch(), 6);
}

TEST(TraceTest, TagsAreSorted) {
  Trace t;
  t.Add(RawReading{0, TagId::Case(5), 0});
  t.Add(RawReading{0, TagId::Item(9), 0});
  t.Add(RawReading{0, TagId::Item(2), 0});
  t.Seal();
  auto tags = t.Tags();
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], TagId::Item(2));
  EXPECT_EQ(tags[1], TagId::Item(9));
  EXPECT_EQ(tags[2], TagId::Case(5));
}

TEST(GroundTruthTest, IntervalQueries) {
  GroundTruth gt;
  TagId item = TagId::Item(1);
  TagId case_a = TagId::Case(1);
  TagId case_b = TagId::Case(2);
  gt.Set(item, 0, 3, case_a);
  gt.Set(item, 100, 5, case_a);   // location change only
  gt.Set(item, 200, 5, case_b);   // containment change
  gt.Finish(300);

  EXPECT_EQ(gt.LocationAt(item, 0), 3);
  EXPECT_EQ(gt.LocationAt(item, 99), 3);
  EXPECT_EQ(gt.LocationAt(item, 100), 5);
  EXPECT_EQ(gt.ContainerAt(item, 150), case_a);
  EXPECT_EQ(gt.ContainerAt(item, 200), case_b);
  EXPECT_EQ(gt.ContainerAt(item, 300), case_b);
  EXPECT_FALSE(gt.PresentAt(item, 301));
  EXPECT_FALSE(gt.PresentAt(TagId::Item(9), 10));
}

TEST(GroundTruthTest, RecordsContainmentChanges) {
  GroundTruth gt;
  TagId item = TagId::Item(1);
  gt.Set(item, 0, 1, TagId::Case(1));
  gt.Set(item, 50, 1, TagId::Case(2));
  gt.Set(item, 80, 2, TagId::Case(2));  // move, not a containment change
  gt.Finish(100);
  ASSERT_EQ(gt.changes().size(), 1u);
  EXPECT_EQ(gt.changes()[0].time, 50);
  EXPECT_EQ(gt.changes()[0].from, TagId::Case(1));
  EXPECT_EQ(gt.changes()[0].to, TagId::Case(2));
}

TEST(GroundTruthTest, RedundantSetIsNoOp) {
  GroundTruth gt;
  TagId item = TagId::Item(1);
  gt.Set(item, 0, 1, TagId::Case(1));
  gt.Set(item, 10, 1, TagId::Case(1));  // identical state
  gt.Finish(20);
  EXPECT_EQ(gt.IntervalsOf(item).size(), 1u);
  EXPECT_TRUE(gt.changes().empty());
}

TEST(GroundTruthTest, SameEpochRewriteDropsZeroLengthRun) {
  GroundTruth gt;
  TagId item = TagId::Item(1);
  gt.Set(item, 5, 1, TagId::Case(1));
  gt.Set(item, 5, 2, TagId::Case(2));  // overwritten within the same epoch
  gt.Finish(10);
  EXPECT_EQ(gt.LocationAt(item, 5), 2);
  EXPECT_EQ(gt.ContainerAt(item, 7), TagId::Case(2));
}

TEST(TraceIoTest, BinaryRoundTrip) {
  Trace t;
  for (Epoch e = 0; e < 50; ++e) {
    t.Add(RawReading{e, TagId::Item(e % 7), static_cast<LocationId>(e % 3)});
    t.Add(RawReading{e, TagId::Case(e % 2), static_cast<LocationId>(e % 3)});
  }
  t.Seal();
  auto bytes = EncodeTrace(t);
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), t.size());
  EXPECT_EQ(decoded->readings(), t.readings());
}

TEST(TraceIoTest, EncodingIsCompact) {
  Trace t;
  for (Epoch e = 0; e < 1000; ++e) {
    t.Add(RawReading{e, TagId::Item(1), 0});
  }
  t.Seal();
  // Sequential epochs, one tag: deltas are tiny varints; expect well under
  // the 24-byte in-memory footprint per reading.
  EXPECT_LT(EncodeTrace(t).size(), t.size() * 5);
}

TEST(TraceIoTest, BadMagicRejected) {
  std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(DecodeTrace(bytes).ok());
}

TEST(TraceIoTest, MixedKindRoundTripCoversWrappingTagDeltas) {
  // Pallet raw ids have the top bit set; pallet->item steps exercise the
  // uint64-wrapping delta path that would overflow in signed arithmetic.
  Trace t;
  t.Add(RawReading{1, TagId::Pallet(3), 0});
  t.Add(RawReading{2, TagId::Item(5), 1});
  t.Add(RawReading{3, TagId::Pallet(4), 0});
  t.Add(RawReading{4, TagId::Case(9), 2});
  t.Seal();
  auto decoded = DecodeTrace(EncodeTrace(t));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->readings(), t.readings());
}

TEST(TraceIoTest, CorruptPayloadsAreDefinedBehavior) {
  constexpr uint32_t kMagic = 0x52464454;  // matches the encoder
  // Extreme time deltas: must decode without signed-overflow UB (values
  // wrap; no crash, no sanitizer abort).
  BufferWriter overflow;
  overflow.PutU32(kMagic);
  overflow.PutVarint(2);
  for (int i = 0; i < 2; ++i) {
    overflow.PutSignedVarint(std::numeric_limits<int64_t>::max());
    overflow.PutVarint(3);
    overflow.PutSignedVarint(0);
  }
  (void)DecodeTrace(overflow.Release());

  // Reader id beyond the LocationId range: rejected, not truncated.
  BufferWriter bad_reader;
  bad_reader.PutU32(kMagic);
  bad_reader.PutVarint(1);
  bad_reader.PutSignedVarint(1);
  bad_reader.PutVarint(uint64_t{1} << 40);
  bad_reader.PutSignedVarint(0);
  EXPECT_FALSE(DecodeTrace(bad_reader.Release()).ok());

  // Truncated stream: count promises more readings than the bytes hold.
  BufferWriter truncated;
  truncated.PutU32(kMagic);
  truncated.PutVarint(1000);
  truncated.PutSignedVarint(1);
  EXPECT_FALSE(DecodeTrace(truncated.Release()).ok());
}

TEST(TraceIoTest, FileRoundTrip) {
  Trace t;
  t.Add(RawReading{1, TagId::Item(1), 0});
  t.Add(RawReading{2, TagId::Case(1), 1});
  t.Seal();
  std::string path = testing::TempDir() + "/trace_io_test.bin";
  ASSERT_TRUE(WriteTraceFile(t, path).ok());
  auto back = ReadTraceFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->readings(), t.readings());
  std::remove(path.c_str());
}

TEST(TraceIoTest, CsvWrites) {
  Trace t;
  t.Add(RawReading{1, TagId::Item(1), 0});
  t.Seal();
  std::string path = testing::TempDir() + "/trace_io_test.csv";
  ASSERT_TRUE(WriteTraceCsv(t, path).ok());
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), "time,tag,reader\n");
  fclose(f);
  std::remove(path.c_str());
}

TEST(ProductCatalogTest, LookupAndIsA) {
  ProductCatalog catalog;
  TagId frozen = TagId::Item(1);
  TagId freezer = TagId::Case(1);
  TagId plain = TagId::Case(2);
  catalog.RegisterProduct(frozen, ProductInfo{"frozen_food", true, false,
                                              false});
  catalog.RegisterContainer(freezer, ContainerInfo{ContainerClass::kFreezer});
  catalog.RegisterContainer(plain, ContainerInfo{ContainerClass::kPlain});

  ASSERT_NE(catalog.FindProduct(frozen), nullptr);
  EXPECT_TRUE(catalog.FindProduct(frozen)->frozen);
  EXPECT_EQ(catalog.FindProduct(TagId::Item(42)), nullptr);
  EXPECT_TRUE(catalog.IsA(freezer, ContainerClass::kFreezer));
  EXPECT_FALSE(catalog.IsA(plain, ContainerClass::kFreezer));
  EXPECT_FALSE(catalog.IsA(kNoTag, ContainerClass::kFreezer));
  EXPECT_EQ(ToString(ContainerClass::kFireproof), "fireproof");
}

TEST(ReadingTest, ToStringFormats) {
  EXPECT_EQ(ToString(RawReading{3, TagId::Item(1), 2}),
            "(3, item:1, reader 2)");
  EXPECT_EQ(ToString(ObjectEvent{3, TagId::Item(1), 2, TagId::Case(4)}),
            "(3, item:1, loc 2, container case:4)");
}

// ---- CSR per-tag index ----

Trace ScrambledTrace(int tags, int epochs) {
  Trace t;
  for (int e = epochs - 1; e >= 0; --e) {
    for (int i = 0; i < tags; ++i) {
      if ((e + i) % 3 == 0) continue;  // sparse histories
      t.Add(RawReading{static_cast<Epoch>(e),
                       TagId::Item(static_cast<uint64_t>(i)),
                       static_cast<LocationId>(i % 4)});
    }
  }
  return t;
}

void ExpectSameIndex(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.Tags(), b.Tags());
  for (TagId tag : a.Tags()) {
    const TagReadSpan ha = a.HistoryOf(tag);
    const TagReadSpan hb = b.HistoryOf(tag);
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]);
  }
}

TEST(TraceIndexTest, HistorySpansSurviveCopyAndMove) {
  Trace original = ScrambledTrace(8, 30);
  original.Seal();
  // A copy owns its index: resealing the source later must not disturb it.
  const Trace copy = original;
  ExpectSameIndex(original, copy);

  // A move adopts the source's buffers, so a span taken before the move
  // still points into the moved-to trace's index.
  const TagReadSpan before = original.HistoryOf(TagId::Item(0));
  ASSERT_FALSE(before.empty());
  Trace moved = std::move(original);
  EXPECT_TRUE(moved.sealed());
  ExpectSameIndex(copy, moved);
  EXPECT_EQ(moved.HistoryOf(TagId::Item(0)).data(), before.data());

  Trace assigned;
  assigned = copy;
  ExpectSameIndex(copy, assigned);
  Trace move_assigned;
  move_assigned = std::move(assigned);
  ExpectSameIndex(copy, move_assigned);

  moved.Add(RawReading{500, TagId::Item(0), 1});
  moved.Seal();
  const TagReadSpan h = copy.HistoryOf(TagId::Item(0));
  ASSERT_FALSE(h.empty());
  EXPECT_LT(h.back().time, 500);
  EXPECT_EQ(moved.HistoryOf(TagId::Item(0)).back().time, 500);
}

}  // namespace
}  // namespace rfid
