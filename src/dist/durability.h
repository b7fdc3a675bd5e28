// Per-site durability: checkpoints and a frame write-ahead log.
//
// A durable site owns one directory, <dir>/site_<id>/, holding two kinds
// of files:
//
//   checkpoint_<epoch>.ckpt   full site state cut at boundary <epoch>,
//                             stored as one v2 frame (dist/frame.h) of
//                             MessageKind::kCheckpoint -- length-prefixed
//                             header, CRC-32 trailer -- written to a temp
//                             file, fsynced, and renamed into place. The
//                             newest two are kept so a corrupt latest
//                             checkpoint falls back one cut.
//   wal_<epoch>.log           frame WAL segment opened by the checkpoint
//                             cut at <epoch> (segment 0 covers everything
//                             before the first checkpoint). Every inbound
//                             state-bearing frame is appended *before* it
//                             is queued or applied, and the append batch
//                             is fsynced once per delivery drain; a frame
//                             is only consumed from the fabric once its
//                             record is durable, so a torn tail record
//                             never means lost state. Segments older
//                             than the previous retained checkpoint are
//                             deleted.
//
// Checkpoint-cut rule: a checkpoint is cut at an inference boundary C
// after the boundary's serial export phase, one pool task per up site
// (each site encodes its own state into its own directory). At that
// point the site's inbound queue holds exactly the state envelopes with
// arrival epoch > C, still as the bytes that arrived (the checkpoint
// stores them verbatim), and the WAL rotates to a fresh segment -- so
// recovery is: restore checkpoint C, re-feed the post-C WAL segments
// through HandleMessage, re-drain the fabric backlog, then catch up with
// the replay's per-site step (DistributedSystem::StepSite) at the site's
// own event epochs in (C, now). See docs/ARCHITECTURE.md "Durability"
// for the full recovery state machine.
//
// All raw file writes live inside the audited lint:durable-io regions in
// durability.cc; the rfid_lint `durability-fsync` rule flags any other
// write to WAL/checkpoint paths.
#ifndef RFID_DIST_DURABILITY_H_
#define RFID_DIST_DURABILITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/frame.h"

namespace rfid {

/// Durability configuration of one replay. Defaults read the environment:
/// RFID_DURABILITY_DIR selects the directory (unset = durability off) and
/// RFID_DURABILITY_FSYNC=off disables fsync batching for throughput
/// experiments.
struct DurabilityOptions {
  /// Root directory for per-site state; empty = durability off.
  std::string dir;

  /// kData: fdatasync the WAL once per delivery drain and every
  /// checkpoint before rename (the durable default). kOff: no syncs --
  /// the on-disk layout is identical but a host crash may lose the page
  /// cache (process crashes, which our crash model simulates, lose
  /// nothing either way).
  enum class FsyncPolicy : uint8_t { kData = 0, kOff = 1 };
  FsyncPolicy fsync = FsyncPolicy::kData;

  DurabilityOptions();

  bool enabled() const { return !dir.empty(); }
};

/// Operation counters, aggregated into the run's metrics registry.
struct DurabilityStats {
  int64_t wal_appends = 0;
  int64_t wal_bytes = 0;
  int64_t wal_fsyncs = 0;
  int64_t checkpoints = 0;
  int64_t checkpoint_bytes = 0;
  int64_t replayed_frames = 0;      ///< WAL records re-fed at recovery
  int64_t torn_tail_records = 0;    ///< incomplete WAL tail records skipped
  int64_t checkpoint_fallbacks = 0; ///< corrupt checkpoints skipped
};

/// Durable storage of one site. Owned by the replay driver (it outlives
/// crash/recovery site teardown, so a replacement process reopens the
/// same files) and attached to the live Site for WAL appends. Calls
/// happen in the replay's serial phases, from the owning site's handler
/// (which the driver only invokes serially), or -- for WriteCheckpoint
/// at a checkpoint cut -- on a pool thread that handles this one site.
/// Each instance is touched by one thread at a time and shares nothing
/// with other sites' (own directory, WAL and stats), so there is no
/// internal locking.
class SiteDurability {
 public:
  SiteDurability(const DurabilityOptions& options, SiteId site);
  ~SiteDurability();

  SiteDurability(const SiteDurability&) = delete;
  SiteDurability& operator=(const SiteDurability&) = delete;

  /// Creates the site directory and continues its newest WAL segment, so
  /// appends resume where a previous incarnation stopped. The same
  /// directory listing records whether the directory held state.
  Status Open();

  /// Whether Open found state a previous run left behind: a checkpoint
  /// file or a non-empty WAL segment. An absent directory, or one holding
  /// only empty segments, holds none.
  bool HoldsState() const { return holds_state_; }

  // ---- Frame WAL ----

  /// Buffers one inbound frame record (append-before-apply: call this
  /// before the frame's payload mutates site state). `delivery_epoch` is
  /// the drain epoch, recorded for diagnostics. No-op while replaying.
  Status AppendFrame(SiteId from, MessageKind kind,
                     const std::vector<uint8_t>& payload,
                     Epoch delivery_epoch);

  /// Writes buffered appends to the current segment and fsyncs once
  /// (policy permitting). The driver calls this at the end of each
  /// delivery drain -- fsync cost is batched per drain, not per frame.
  Status Flush();

  /// During recovery replay the site re-executes work whose WAL records
  /// already exist; replaying suppresses the appends.
  void set_replaying(bool replaying) { replaying_ = replaying; }

  /// Discards buffered, un-flushed appends -- what a process crash loses.
  /// The crash model calls this when a site goes down; the on-disk state
  /// then reflects exactly the completed flushes.
  void DropPending();

  // ---- Checkpoints ----

  /// Persists `payload` (Site::EncodeCheckpoint bytes) as the checkpoint
  /// cut at `epoch`: temp file + fsync + atomic rename, prune to the
  /// newest two checkpoints, rotate the WAL to segment `epoch`, and
  /// delete segments older than the surviving older checkpoint.
  Status WriteCheckpoint(Epoch epoch, const std::vector<uint8_t>& payload);

  /// Loads the newest checkpoint whose frame decodes cleanly; corrupt
  /// ones are counted (checkpoint_fallbacks) and skipped. Returns OK with
  /// *epoch = 0 and an empty payload when no usable checkpoint exists
  /// (recovery then replays from scratch).
  Status LoadCheckpoint(Epoch* epoch, std::vector<uint8_t>* out);

  /// Appends every WAL record from segments at or after the cut `since`
  /// to `*frames` in append order. A torn (incomplete) tail record is
  /// skipped and counted -- append-before-apply guarantees its frame was
  /// never consumed from the fabric. A mid-stream CRC failure is real
  /// corruption and fails loudly with Status::Corruption.
  Status ReadWalSince(Epoch since, std::vector<Frame>* frames);

  const DurabilityStats& stats() const { return stats_; }

 private:
  Status OpenSegment(Epoch epoch);

  DurabilityOptions options_;
  SiteId site_;
  std::string site_dir_;
  bool opened_ = false;
  bool holds_state_ = false;
  bool replaying_ = false;

  int wal_fd_ = -1;
  std::vector<uint8_t> wal_pending_;
  uint64_t wal_seq_ = 0;

  DurabilityStats stats_;
};

}  // namespace rfid

#endif  // RFID_DIST_DURABILITY_H_
