// The telemetry bundle one replay (or bench) carries: a MetricsRegistry,
// pre-registered per-phase latency histograms, per-message-kind byte/count
// counters, and an optional Chrome-trace sink. DistributedSystem owns one
// and hands the pointer down to Network / SocketTransport / Site; a null
// Telemetry* (DistributedOptions::collect_metrics = false) turns every
// instrumentation site into a branch-on-null no-op, which is how the
// "<2% when off" hot-path budget is enforced and measured
// (bench_scalability, EXPERIMENTS.md).
//
// Phases are a closed enum rather than strings so the hot path indexes a
// histogram array instead of hashing names under a lock; the registry
// still carries the same instruments under "phase/<name>" names, so
// reports and ad-hoc registry users see one namespace.
#ifndef RFID_OBS_TELEMETRY_H_
#define RFID_OBS_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "obs/metrics_registry.h"
#include "obs/trace_sink.h"

namespace rfid {
namespace obs {

/// Every instrumented span of the replay. Serial driver phases, per-site
/// parallel phases, and transport-level spans share the enum: one
/// "phase/<name>" histogram each, keyed into the trace by track.
enum class Phase : uint8_t {
  // Serial driver phases (DistributedSystem::Run, kDriverTrack).
  kQueueDrain = 0,    ///< Network::DeliverDue sweep at each event epoch
  kDirectory,         ///< injections/arrivals/departures ONS bookkeeping
  kFlushEncode,       ///< centralized: serial batch encode + Send
  kSnapshotScan,      ///< boundary accuracy sampling (RecordSnapshot)
  // Per-site parallel phases (SiteExecutor workers, per-site tracks).
  kWindowCompute,     ///< DeliverArrivals + ObserveBatch window
  kInference,         ///< AdvanceTo at an inference boundary
  kMigrateEncode,     ///< ExportTransfer state collect + encode + Send
  // Transport-level spans (kTransportTrack).
  kTransportSend,     ///< Network::Send through the backend
  kFrameEncode,       ///< socket backend: frame serialization
  kKernelWrite,       ///< socket backend: write(2) loop
  kKernelRead,        ///< socket backend: accept/read/decode pump
  // Fault-tolerance phases (kDriverTrack; appended to keep values stable).
  kCrashRecovery,     ///< rebuild of a crashed site from checkpoint + WAL
  // Never recorded since the pipelined centralized flush was removed (the
  // flush encodes serially under kFlushEncode). Kept only because
  // e2ebench/bench_e2e.cc reads its histogram; values stay stable.
  kFlushOverlap,      ///< unused: formerly the overlapped batch encode
  // Durability phases (dist/durability.h; appended to keep values stable).
  // kWalAppend runs on the driver track (the WAL absorbs inbound frames
  // during the serial drain sweep); kCheckpoint likewise (checkpoints cut
  // in the serial boundary phase, after exports).
  kWalAppend,         ///< durable sites: frame WAL append + batched fsync
  kCheckpoint,        ///< durable sites: checkpoint encode + atomic install
};

inline constexpr int kNumPhases = 15;

/// Stable lowercase name ("window_compute"); the registry key is
/// "phase/" + PhaseName.
const char* PhaseName(Phase phase);

/// Trace track a phase's slices belong on when no site track applies.
int PhaseDefaultTrack(Phase phase);

/// Trace path selected by the RFID_TRACE environment variable; empty when
/// unset. DistributedOptions::trace_path overrides it.
std::string TracePathFromEnv();

class Telemetry {
 public:
  /// `trace_path` empty = metrics only, no trace collection.
  explicit Telemetry(std::string trace_path = "");

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  bool tracing() const { return sink_ != nullptr; }
  TraceSink* sink() { return sink_.get(); }
  const TraceSink* sink() const { return sink_.get(); }
  const std::string& trace_path() const { return trace_path_; }

  /// Lock-free: the phase histogram array is filled at construction.
  void RecordPhase(Phase phase, int64_t dur_ns) {
    phase_histograms_[static_cast<size_t>(phase)]->Record(dur_ns);
  }
  const Histogram& phase_histogram(Phase phase) const {
    return *phase_histograms_[static_cast<size_t>(phase)];
  }

  /// Byte/message accounting mirror per MessageKind index (the Network
  /// keeps the authoritative totals; these make the per-kind breakdown a
  /// registry citizen so WriteReport exports it uniformly). `kind_index`
  /// is the MessageKind cast to int; `kind_name` its ToString.
  void AddWireBytes(int kind_index, const std::string& kind_name,
                    int64_t bytes);

  /// Wall-clock in the trace sink's time base (0 when not tracing; phase
  /// timing uses its own clock so histograms work without a sink).
  int64_t TraceNowNanos() const {
    return sink_ != nullptr ? sink_->NowNanos() : 0;
  }

 private:
  MetricsRegistry registry_;
  Histogram* phase_histograms_[kNumPhases] = {};
  Counter* kind_bytes_[8] = {};
  Counter* kind_messages_[8] = {};
  std::string trace_path_;
  std::unique_ptr<TraceSink> sink_;
};

/// RAII span: times a phase into its histogram and, when tracing, emits a
/// Chrome slice on `track` tagged with the replay `epoch`. A null
/// telemetry pointer reduces the whole scope to two null checks.
class PhaseTimer {
 public:
  /// `track` < 0 uses the phase's default track. Site phases pass
  /// kFirstSiteTrack + site.
  PhaseTimer(Telemetry* telemetry, Phase phase, Epoch epoch, int track = -1)
      : telemetry_(telemetry), phase_(phase), epoch_(epoch), track_(track) {
    if (telemetry_ == nullptr) return;
    start_ = Now();
    if (telemetry_->tracing()) trace_start_ = telemetry_->TraceNowNanos();
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (telemetry_ == nullptr) return;
    const int64_t dur = Now() - start_;
    telemetry_->RecordPhase(phase_, dur);
    if (telemetry_->tracing()) {
      TraceEvent e;
      e.name = PhaseName(phase_);
      e.track = track_ >= 0 ? track_ : PhaseDefaultTrack(phase_);
      e.start_ns = trace_start_;
      e.dur_ns = dur;
      e.epoch = epoch_;
      telemetry_->sink()->Add(e);
    }
  }

 private:
  static int64_t Now();

  Telemetry* telemetry_;
  Phase phase_;
  Epoch epoch_;
  int track_;
  int64_t start_ = 0;
  int64_t trace_start_ = 0;
};

}  // namespace obs
}  // namespace rfid

#endif  // RFID_OBS_TELEMETRY_H_
