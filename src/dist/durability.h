// Per-site durability: checkpoints, a frame write-ahead log, and a
// tamper-evident audit log (the ROADMAP's "Durability, recovery, and a
// tamper-evident event log" pillar).
//
// A durable site owns one directory, <dir>/site_<id>/, holding three
// kinds of files:
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
//                             is applied, and the append batch is fsynced
//                             once per delivery drain; a frame is only
//                             consumed from the fabric once its record is
//                             durable, so a torn tail record never means
//                             lost state. Segments older than the
//                             previous retained checkpoint are deleted.
//   audit.log                 hash-chained, per-site-signed alert/movement
//                             records (see AuditRecord below), verified by
//                             tools/log_verify.
//
// Checkpoint-cut rule: a checkpoint is cut at an inference boundary C in
// the replay's serial phase, after the boundary's export phase. At that
// point the site's pending arrival queues hold exactly the envelopes with
// arrival epoch > C, and the WAL rotates to a fresh segment -- so
// recovery is: restore checkpoint C, re-feed the post-C WAL segments
// through HandleMessage, re-drain the fabric backlog, then replay the
// site's own trace boundaries in (C, now]. See docs/ARCHITECTURE.md
// "Durability" for the full recovery state machine.
//
// All raw file writes live inside the audited lint:durable-io regions in
// durability.cc; the rfid_lint `durability-fsync` rule flags any other
// write to WAL/checkpoint paths.
#ifndef RFID_DIST_DURABILITY_H_
#define RFID_DIST_DURABILITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "common/types.h"
#include "dist/frame.h"

namespace rfid {

/// Durability configuration of one replay. Defaults read the environment
/// (like NetworkOptions does for faults): RFID_DURABILITY_DIR selects the
/// directory (unset = durability off) and RFID_DURABILITY_FSYNC=off
/// disables fsync batching for throughput experiments.
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
  int64_t audit_records = 0;
};

/// One tamper-evident audit record. On disk: a varint length prefix, the
/// body {seq, site, kind, epoch, payload}, the 32-byte chain hash
/// h_i = SHA256(h_{i-1} || body) (h_{-1} = 32 zero bytes), and the
/// 32-byte HMAC-SHA256 of h_i under the site's signing key. Editing,
/// reordering, or dropping an interior record breaks the chain at the
/// first affected link; forging a replacement requires the site key.
struct AuditRecord {
  enum class Kind : uint8_t { kAlert = 0, kMovement = 1 };

  uint64_t seq = 0;
  SiteId site = kNoSite;
  Kind kind = Kind::kAlert;
  Epoch epoch = 0;
  std::vector<uint8_t> payload;
  Sha256Digest chain{};
  Sha256Digest mac{};
};

/// Durable storage of one site. Owned by the replay driver (it outlives
/// crash/recovery site teardown, preserving audit-chain continuity) and
/// attached to the live Site for WAL/audit appends. All calls happen in
/// the replay's serial phases or from the owning site's handler, which
/// the driver only invokes serially -- no internal locking.
class SiteDurability {
 public:
  SiteDurability(const DurabilityOptions& options, SiteId site);
  ~SiteDurability();

  SiteDurability(const SiteDurability&) = delete;
  SiteDurability& operator=(const SiteDurability&) = delete;

  /// Creates the site directory and scans any existing state (checkpoint
  /// epochs, WAL segments, the audit chain tail) so appends continue
  /// where a previous incarnation stopped.
  Status Open();

  // ---- Frame WAL ----

  /// Buffers one inbound frame record (append-before-apply: call this
  /// before the frame's payload mutates site state). `delivery_epoch` is
  /// the drain epoch, recorded for diagnostics. No-op while replaying().
  Status AppendFrame(SiteId from, MessageKind kind,
                     const std::vector<uint8_t>& payload,
                     Epoch delivery_epoch);

  /// Writes buffered appends to the current segment and fsyncs once
  /// (policy permitting). The driver calls this at the end of each
  /// delivery drain -- fsync cost is batched per drain, not per frame.
  Status Flush();

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

  // ---- Audit log ----

  /// During recovery replay the site re-executes work whose WAL/audit
  /// records already exist; replaying() suppresses both appends.
  void set_replaying(bool replaying) { replaying_ = replaying; }
  bool replaying() const { return replaying_; }

  /// Appends one hash-chained, MACed record. Flushed with the WAL batch.
  Status AppendAudit(AuditRecord::Kind kind, Epoch epoch,
                     const std::vector<uint8_t>& payload);

  /// Discards buffered, un-flushed appends -- what a process crash loses.
  /// The crash model calls this when a site goes down; the on-disk state
  /// then reflects exactly the completed flushes. The audit chain rewinds
  /// to the last record actually on disk.
  void DropPending();

  const DurabilityStats& stats() const { return stats_; }
  std::string audit_path() const;

  /// Deterministic per-site signing key: SHA256("rfid-site-key:<id>").
  /// A stand-in for real key provisioning -- the verification chain and
  /// tooling are agnostic to where the key comes from.
  static std::vector<uint8_t> SiteKey(SiteId site);

 private:
  Status OpenSegment(Epoch epoch);
  Status ScanAuditTail();

  DurabilityOptions options_;
  SiteId site_;
  std::string site_dir_;
  bool opened_ = false;
  bool replaying_ = false;

  int wal_fd_ = -1;
  Epoch wal_segment_ = 0;
  std::vector<uint8_t> wal_pending_;
  uint64_t wal_seq_ = 0;

  int audit_fd_ = -1;
  std::vector<uint8_t> audit_pending_;
  uint64_t audit_seq_ = 0;
  Sha256Digest audit_chain_{};  ///< chain hash of the last record
  std::vector<uint8_t> audit_key_;

  DurabilityStats stats_;
};

/// Result of verifying an audit log (tools/log_verify and tests).
struct AuditVerifyResult {
  bool ok = false;
  int64_t records = 0;
  /// 0-based index of the first record whose chain or MAC fails
  /// (-1 when the log verifies or is unreadable before any record).
  int64_t first_bad_record = -1;
  std::string error;
  Sha256Digest final_chain{};
};

/// Decodes an audit log without verifying (tooling; stops at the first
/// structurally unreadable record).
Status ReadAuditLog(const std::string& path, std::vector<AuditRecord>* out);

/// Full verification: structural decode, chain recomputation from
/// genesis, and per-record MAC check under `key`.
AuditVerifyResult VerifyAuditLog(const std::string& path,
                                 const std::vector<uint8_t>& key);

}  // namespace rfid

#endif  // RFID_DIST_DURABILITY_H_
