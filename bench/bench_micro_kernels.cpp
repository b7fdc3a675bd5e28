// google-benchmark microbenchmarks of the hot kernels: the EM engine on
// planted worlds, the change-point scan, the per-run evidence pass (EM
// plus fused change-point and critical-region search), trace
// serialization, gzip (the
// centralized baseline's compressor), pattern-matcher pushes, the
// centroid diff codec, the window index build, zero-copy frame decode, and
// the span flush encode.
#include <benchmark/benchmark.h>

#include "common/compress.h"
#include "common/rng.h"
#include "dist/frame.h"
#include "dist/site.h"
#include "inference/rfinfer.h"
#include "model/generative.h"
#include "model/read_rate.h"
#include "model/schedule.h"
#include "query/state_sharing.h"
#include "stream/pattern.h"
#include "trace/trace_io.h"

namespace rfid {
namespace {

// A planted world: `containers` groups of `objects_per` objects, horizon T.
Trace PlantedTrace(int containers, int objects_per, Epoch T, double rr,
                   uint64_t seed) {
  auto model = ReadRateModel::Uniform(containers + 2, rr);
  Rng rng(seed);
  Trace trace;
  for (int c = 0; c < containers; ++c) {
    GenerativeScenario scenario;
    scenario.container = TagId::Case(static_cast<uint64_t>(c));
    for (int o = 0; o < objects_per; ++o) {
      scenario.objects.push_back(
          TagId::Item(static_cast<uint64_t>(c * objects_per + o)));
    }
    scenario.location_path.assign(static_cast<size_t>(T),
                                  static_cast<LocationId>(c % (containers)));
    SampleReadings(model, scenario, rng, &trace);
  }
  trace.Seal();
  return trace;
}

void BM_RFInferRun(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  const Epoch T = 300;
  auto model = ReadRateModel::Uniform(containers + 2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(containers + 2);
  sched.Finalize(model);
  Trace trace = PlantedTrace(containers, 10, T, 0.8, 42);
  for (auto _ : state) {
    RFInfer engine(&model, &sched);
    benchmark::DoNotOptimize(engine.Run(trace, 0, T - 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_RFInferRun)->Arg(4)->Arg(16)->Arg(64);

void BM_ChangeStatistic(benchmark::State& state) {
  const int containers = 8;
  const Epoch T = 300;
  auto model = ReadRateModel::Uniform(containers + 2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(containers + 2);
  sched.Finalize(model);
  Trace trace = PlantedTrace(containers, 10, T, 0.8, 43);
  RFInfer engine(&model, &sched);
  RFID_CHECK_OK(engine.Run(trace, 0, T - 1));
  const auto objects = engine.object_tags();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ChangeStatistic(objects[i]));
    i = (i + 1) % objects.size();
  }
}
BENCHMARK(BM_ChangeStatistic);

// One streaming boundary's inference layer on a fixed seeded window: EM,
// then the evidence pass that scans each object once for both its change
// point and its critical region (the StreamingOptions defaults).
void BM_EvidencePass(benchmark::State& state) {
  const int containers = 8;
  const Epoch T = 300;
  auto model = ReadRateModel::Uniform(containers + 2, 0.8);
  auto sched = InterrogationSchedule::AlwaysOn(containers + 2);
  sched.Finalize(model);
  Trace trace = PlantedTrace(containers, 10, T, 0.8, 43);
  for (auto _ : state) {
    RFInfer engine(&model, &sched);
    RFID_CHECK_OK(engine.Run(trace, 0, T - 1));
    benchmark::DoNotOptimize(
        engine.ScanEvidence(25.0, CriticalRegionSearch{60, 25.0}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_EvidencePass);

void BM_TraceEncode(benchmark::State& state) {
  Trace trace = PlantedTrace(8, 10, 600, 0.8, 44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeTrace(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_TraceEncode);

void BM_TraceDecode(benchmark::State& state) {
  Trace trace = PlantedTrace(8, 10, 600, 0.8, 44);
  auto bytes = EncodeTrace(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeTrace(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_TraceDecode);

void BM_GzipReadings(benchmark::State& state) {
  Trace trace = PlantedTrace(8, 10, 600, 0.8, 45);
  auto bytes = EncodeTrace(trace);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    RFID_CHECK_OK(Compress(bytes, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_GzipReadings);

void BM_PatternPush(benchmark::State& state) {
  PatternOptions opts;
  opts.partition_col = 0;
  opts.value_col = 1;
  opts.min_duration = 1 << 30;  // never fire; measure the state machine
  PatternSeqOp pattern(opts);
  Tuple t;
  t.values = {Value{TagId::Item(1)}, Value{20.0}};
  Epoch now = 0;
  for (auto _ : state) {
    t.time = ++now;
    pattern.Push(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternPush);

void BM_DiffEncodeApply(benchmark::State& state) {
  Rng rng(46);
  std::vector<uint8_t> base(512);
  for (auto& b : base) b = static_cast<uint8_t>(rng.NextBounded(256));
  auto target = base;
  for (int i = 0; i < 16; ++i) {
    target[rng.NextBounded(target.size())] =
        static_cast<uint8_t>(rng.NextBounded(256));
  }
  for (auto _ : state) {
    auto diff = DiffEncode(base, target);
    benchmark::DoNotOptimize(DiffApply(base, diff));
  }
}
BENCHMARK(BM_DiffEncodeApply);

// ---- Window ingest and wire kernels ----

// The window ingest kernel: append a window of readings, Seal (sort + CSR
// index build), sweep every per-tag history.
void BM_WindowIndexSeal(benchmark::State& state) {
  Trace source = PlantedTrace(16, 10, 600, 0.8, 47);
  const std::vector<RawReading>& rs = source.readings();
  for (auto _ : state) {
    Trace trace;
    trace.Append(rs.data(), rs.size());
    trace.Seal();
    size_t total = 0;
    for (TagId tag : trace.Tags()) total += trace.HistoryOf(tag).size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rs.size()));
}
BENCHMARK(BM_WindowIndexSeal);

// Frame decode, owning vs zero-copy view: the difference is the payload
// copy the socket pump no longer pays per frame.
void BM_FrameDecode(benchmark::State& state) {
  Frame frame;
  frame.from = 3;
  frame.to = 0;
  frame.kind = MessageKind::kRawReadings;
  frame.send_epoch = 300;
  frame.seq = 7;
  frame.payload.assign(4096, 0xAB);
  const std::vector<uint8_t> wire = EncodeFrameToBytes(frame);
  for (auto _ : state) {
    Frame out;
    size_t consumed = 0;
    RFID_CHECK_OK(DecodeFrame(wire.data(), wire.size(), &out, &consumed));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_FrameDecode);

void BM_FrameViewDecode(benchmark::State& state) {
  Frame frame;
  frame.from = 3;
  frame.to = 0;
  frame.kind = MessageKind::kRawReadings;
  frame.send_epoch = 300;
  frame.seq = 7;
  frame.payload.assign(4096, 0xAB);
  const std::vector<uint8_t> wire = EncodeFrameToBytes(frame);
  for (auto _ : state) {
    FrameView view;
    size_t consumed = 0;
    RFID_CHECK_OK(
        DecodeFrameView(wire.data(), wire.size(), &view, &consumed));
    benchmark::DoNotOptimize(view);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_FrameViewDecode);

// The centralized boundary flush's per-site unit of work: delta + gzip
// encode of one pending span of readings.
void BM_FlushEncode(benchmark::State& state) {
  Trace source = PlantedTrace(16, 10, 600, 0.8, 48);
  const std::vector<RawReading>& rs = source.readings();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EncodeReadingBatch(rs.data(), rs.size(), /*compress_level=*/6));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rs.size()));
}
BENCHMARK(BM_FlushEncode);

}  // namespace
}  // namespace rfid

BENCHMARK_MAIN();
