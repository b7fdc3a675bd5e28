// Streaming inference driver: runs RFINFER periodically over an arriving
// RFID stream (the paper runs inference every 300 seconds by default,
// Section 5.1), applying one of the three history-management policies the
// evaluation compares:
//
//   kAll            -- use the entire history (the "Basic"/"All" lines);
//   kWindow         -- keep only the most recent W epochs ("W1200");
//   kCriticalRegion -- per-object critical regions plus a recent history
//                      H-bar (the paper's CR method, Section 4.1).
//
// The driver also owns the cross-run bookkeeping: detected change points
// install per-object barriers ("we disregard the data from 0..t' in all
// subsequent calls", Appendix A.2), critical regions persist across runs,
// and collapsed weights imported from other sites enter as priors. All of
// it lasts only while the object is at the site: once an object's newest
// buffered reading is older than the next run's window, the compaction
// after a run forgets its context, change override and imported belief,
// so each run covers the objects present instead of every object the site
// has ever seen. An imported context waits for the object's first local
// reading.
#ifndef RFID_INFERENCE_STREAMING_H_
#define RFID_INFERENCE_STREAMING_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "inference/rfinfer.h"
#include "model/read_rate.h"
#include "model/schedule.h"
#include "trace/reading.h"
#include "trace/trace.h"

namespace rfid {

enum class TruncationMethod {
  kAll,
  kWindow,
  kCriticalRegion,
};

struct StreamingOptions {
  /// Seconds between inference runs (paper default: 300).
  Epoch inference_period = 300;
  TruncationMethod truncation = TruncationMethod::kCriticalRegion;
  /// Window size W for TruncationMethod::kWindow (paper: 1200).
  Epoch window_size = 1200;
  /// Recent history H-bar for kCriticalRegion (paper default: 600).
  Epoch recent_history = 600;
  /// Run change-point detection after each inference run.
  bool detect_changes = false;
  /// Detection threshold delta; calibrate offline (calibration.h).
  double change_threshold = 25.0;
  InferenceOptions inference;
};

/// Drives RFINFER over a stream. Typical use:
///
///   StreamingInference si(&model, &schedule, opts);
///   for each reading r: si.Observe(r);
///   ... once per epoch: si.AdvanceTo(t);   // runs inference when due
///   si.ContainerOf(tag), si.engine().LocationOf(tag, t), ...
class StreamingInference {
 public:
  StreamingInference(const ReadRateModel* model,
                     const InterrogationSchedule* schedule,
                     StreamingOptions options = {});

  /// Sets the engine's tag roles (RFInfer::SetUniverseKinds): every
  /// buffered tag of `container_kind` is a container and every tag of
  /// `object_kind` an object. This is the hierarchical-inference hook
  /// (Appendix A.4): the case→pallet level runs with (kPallet, kCase) over
  /// the same stream the item→case level consumes with the default
  /// (kCase, kItem) roles.
  void SetUniverseKinds(TagKind container_kind, TagKind object_kind) {
    engine_->SetUniverseKinds(container_kind, object_kind);
  }

  /// Runs the engine's independent loops on `pool` (RFInfer::set_pool);
  /// nullptr runs them on the caller.
  void set_pool(SiteExecutor* pool) { engine_->set_pool(pool); }

  /// Buffers one reading. Readings may arrive in any order within the
  /// current inference period.
  void Observe(const RawReading& reading);

  /// Buffers `n` readings in one append. Results are identical to n
  /// Observe calls: the history buffer is canonically re-sorted before
  /// every inference run, so ingest order never matters.
  void ObserveBatch(const RawReading* readings, size_t n);

  /// Advances stream time; runs inference whenever a period boundary is
  /// crossed. Returns the number of inference runs performed.
  int AdvanceTo(Epoch now);

  /// The next period boundary, where AdvanceTo runs inference next.
  Epoch next_run() const { return next_run_; }

  /// Forces an inference run over history up to `now`.
  Status RunNow(Epoch now);

  // ---- Results (valid after the first run) ----

  /// Current containment belief: the last run's assignment, overridden by
  /// any detected change point's post-change container.
  TagId ContainerOf(TagId object) const;

  /// Location estimate at epoch `t`, drawing on the accumulated per-run
  /// tracks (each run only covers its own window; the track preserves the
  /// monitoring system's historical view). Falls back to the container's
  /// track for objects.
  LocationId LocationOf(TagId tag, Epoch t) const;

  const RFInfer& engine() const { return *engine_; }

  /// Change points detected by the most recent run / across all runs.
  const std::vector<ChangePointResult>& last_changes() const {
    return last_changes_;
  }
  const std::vector<ChangePointResult>& all_changes() const {
    return all_changes_;
  }

  /// Wall-clock seconds spent inside inference (Appendix C "running
  /// cost"), over all runs / the latest run. A run's timer covers the EM
  /// run, the evidence scan, and the bookkeeping of change points,
  /// critical regions, location tracks and imported beliefs. It starts
  /// after the buffer's Seal and the context installs, and it stops
  /// before CompactBuffer; a caller's EmitEvents and query
  /// feeding (Site::AdvanceTo) are outside it too.
  double total_inference_seconds() const { return total_seconds_; }
  double last_inference_seconds() const { return last_seconds_; }
  int runs() const { return runs_; }

  /// Number of readings currently retained in the history buffer -- the
  /// memory footprint the truncation methods bound. Outside kAll it holds
  /// the next run's window plus, for each object still at the site, the
  /// readings of the object and its candidate containers inside the
  /// object's critical region; an object is forgotten, and its critical
  /// region released, once its newest reading is older than that window.
  size_t buffered_readings() const { return buffer_.size(); }

  // ---- State migration hooks (Section 4.1) ----

  /// Installs imported collapsed weights (and optional critical region /
  /// barrier) for an object arriving from another site.
  void ImportObjectContext(TagId object, ObjectContext context);

  /// Installs the sending site's current belief so queries can be answered
  /// *before* the first local inference run covers the object ("querying
  /// instantly when a tag is in sight, with minimum delay", Section 4). A
  /// local run that assigns the object supersedes it.
  void SetImportedBelief(TagId object, TagId container);

  /// Exports the object's context: its critical region, barrier, and
  /// current collapsed weights.
  ObjectContext ExportObjectContext(TagId object) const;

  /// Readings retained for `tags` within the union of the object's critical
  /// region and the recent history, in RawReadingOrder -- the "full"
  /// (non-collapsed) migration payload for one object. Export at
  /// departure: once the site has forgotten the object, its critical
  /// region is gone with it.
  std::vector<RawReading> ExportReadings(const std::vector<TagId>& tags,
                                         TagId object);

  // ---- Durable checkpoints (dist/durability.h) ----

  /// Serializes the complete cross-run state at full precision: the
  /// retained history buffer, per-object contexts (including the critical
  /// region gap the migration envelope drops), change overrides, imported
  /// beliefs, change-point history, location tracks, the run cursor, and
  /// the engine's last-run containment results. Unordered maps are encoded
  /// in sorted key order so identical state yields identical bytes. Seals
  /// the buffer if needed (canonical re-sort; observably idempotent).
  void EncodeSnapshot(BufferWriter* w);

  /// Restores state written by EncodeSnapshot into a freshly constructed
  /// driver (same model/schedule/options). Fails without partial effects
  /// on malformed input only insofar as the caller discards the driver;
  /// never trust a driver whose restore returned an error.
  Status RestoreSnapshot(BufferReader* r);

 private:
  void CompactBuffer(Epoch next_window_begin);

  const ReadRateModel* model_;
  const InterrogationSchedule* schedule_;
  StreamingOptions options_;
  std::unique_ptr<RFInfer> engine_;

  Trace buffer_;
  Epoch next_run_ = 0;
  Epoch last_run_at_ = -1;

  std::unordered_map<TagId, ObjectContext> contexts_;
  std::unordered_map<TagId, std::vector<TagRead>> location_track_;
  std::unordered_map<TagId, TagId> change_overrides_;
  std::unordered_map<TagId, TagId> imported_beliefs_;
  std::vector<ChangePointResult> last_changes_;
  std::vector<ChangePointResult> all_changes_;
  double total_seconds_ = 0.0;
  double last_seconds_ = 0.0;
  int runs_ = 0;
};

}  // namespace rfid

#endif  // RFID_INFERENCE_STREAMING_H_
