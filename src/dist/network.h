// The message fabric connecting site processors (Section 5.2's deployment):
// a pluggable Transport carrying framed wire messages (dist/frame.h) into
// per-destination delivery queues, plus the byte/message accounting behind
// Table 5 and Figures 5(e)/5(f).
//
// Every Send frames its payload and charges the *framed* wire size -- per
// (from, to) link, per message kind, and in total -- whether or not the
// destination registered a handler, because the paper's communication-cost
// numbers count bytes put on the wire, not bytes usefully consumed.
// Delivery is asynchronous: a sent frame is in flight until the replay's
// serial boundary phase drains it with DeliverDue, at or after its send
// epoch (deliverable at the boundary of the epoch it was sent, unless a
// reorder or duplicate fault moved that epoch later).
//
// Two backends implement Transport:
//   - the in-process fabric (default): frames queue in memory;
//   - SocketTransport (dist/transport_socket.h): each site owns a loopback
//     listener and encoded frames actually cross the kernel.
// Both charge identically (the frame header is fixed-width, so wire size
// depends only on payload length) and both deliver in (send epoch,
// global send sequence) order, so alerts, accuracy, and byte totals are
// bit-identical across backends -- enforced by executor_test's
// DeterminismTest and frame_test's cross-backend accounting check.
//
// On top of the fabric sits an optional reliability layer (tests/
// fault_test.cc, docs/ARCHITECTURE.md "Reliability"): a seeded
// deterministic FaultModel injects per-link drop/duplicate/reorder/corrupt
// faults and epoch-windowed partitions, and a cumulative-ack ARQ protocol
// (per-link sequence numbers in Frame::link_seq, MessageKind::kAck
// carrying the receiver's cumulative ack, retransmit on epoch timeout with
// exponential backoff, bounded in-flight window, duplicate suppression)
// recovers exactly-once delivery. The protocol runs exactly when the fault
// model is enabled: a perfect fabric carries no acks. Fault fates are a
// pure function of (fault seed, global seq, attempt), so the same seed +
// fault config yields bit-identical runs on every backend at every thread
// count.
#ifndef RFID_DIST_NETWORK_H_
#define RFID_DIST_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "dist/frame.h"

namespace rfid {

namespace obs {
class Telemetry;
}  // namespace obs

/// Synthetic node id hosting ONS directory shards when the Ons knows no
/// hosting sites (OnsOptions::num_sites == 0, e.g. standalone unit tests).
/// No site registers a handler for it, so such directory messages are
/// charged (bytes on the wire) but consumed by the in-process Ons
/// directly. A configured deployment instead hosts shard s at real site
/// s % num_sites and charges that link.
inline constexpr SiteId kDirectorySite = -2;

/// Delivery callback: (sender, kind, payload).
using MessageHandler =
    std::function<void(SiteId from, MessageKind kind,
                       const std::vector<uint8_t>& payload)>;

/// Which Transport backend a Network (or a DistributedSystem) uses.
enum class TransportKind : uint8_t {
  kInProcess = 0,
  kSocket = 1,
};

std::string ToString(TransportKind kind);

/// Backend selected by the RFID_TRANSPORT environment variable ("socket"
/// -> kSocket; anything else, or unset -> kInProcess). The default for
/// DistributedOptions::transport, so CI can flip whole test binaries onto
/// the socket backend without code changes.
TransportKind TransportKindFromEnv();

/// A message transport: accepts frames for queued delivery and hands back
/// every frame addressed to a site on request. Implementations need no
/// internal ordering guarantees beyond per-(from, to) FIFO; the Network
/// restores a deterministic total order from the frames' global sequence
/// numbers. All calls happen from the replay's serial phases -- transports
/// are single-threaded by contract.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues `frame` for delivery to `frame.to` (taken by value so
  /// backends can move it straight into their queues). Returns the
  /// frame's wire size (must equal FrameWireSize(frame.payload.size())).
  virtual size_t Send(Frame frame) = 0;

  /// Transmits `frame` with one payload-region byte XORed by `mask`
  /// (the FaultModel's corruption fate). The wire carries the bytes, but
  /// the frame must never be delivered intact: the socket backend really
  /// writes the damaged encoding (the receiver's CRC check drops it and
  /// counts a crc_drop); the default in-process behavior charges nothing
  /// here and simply discards, which is observationally identical at the
  /// Network level. Returns the wire size, like Send.
  virtual size_t SendCorrupt(Frame frame, size_t offset, uint8_t mask) {
    (void)offset;
    (void)mask;
    return FrameWireSize(frame.payload.size());
  }

  /// Appends every frame currently deliverable to `site` onto `*out`
  /// (in unspecified order) and removes them from the transport.
  virtual void Drain(SiteId site, std::vector<Frame>* out) = 0;

  virtual std::string name() const = 0;
};

/// The default backend: frames queue in per-destination in-memory FIFOs.
/// No bytes cross the kernel, but the accounting and delivery semantics
/// are identical to the socket backend's.
class InProcessTransport : public Transport {
 public:
  size_t Send(Frame frame) override;
  void Drain(SiteId site, std::vector<Frame>* out) override;
  std::string name() const override { return "in_process"; }

 private:
  std::unordered_map<SiteId, std::vector<Frame>> queues_;
};

/// What the FaultModel decided for one transmission attempt: pure function
/// of (seed, global seq, attempt), so identical across backends, thread
/// counts, and runs.
struct FrameFate {
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  /// Extra epochs added to the copy's send epoch (reorder fate): the frame
  /// lingers in the fabric and arrives late, possibly after later sends.
  Epoch extra_delay = 0;
  /// Corruption parameters: payload-region byte offset and a nonzero XOR
  /// mask (XOR by nonzero always breaks the CRC -- linearity).
  size_t corrupt_offset = 0;
  uint8_t corrupt_mask = 1;
  /// The duplicate copy's own reorder delay.
  Epoch duplicate_delay = 0;
};

/// One scheduled link outage: frames over (a, b) -- and (b, a) when
/// bidirectional -- sent during [begin, end) are dropped (and counted as
/// partition_drops). kNoSite as an endpoint is a wildcard.
struct LinkPartition {
  SiteId a = kNoSite;
  SiteId b = kNoSite;
  Epoch begin = 0;
  Epoch end = 0;
  bool bidirectional = true;
};

/// Seeded deterministic fault injection, applied uniformly by every
/// backend at the Network layer (so in-process and socket runs inject the
/// identical fault sequence). All probabilities are per transmission
/// attempt -- a retransmit redraws its fate.
struct FaultModel {
  double drop = 0.0;       ///< P(frame silently lost)
  double duplicate = 0.0;  ///< P(frame transmitted twice)
  double reorder = 0.0;    ///< P(frame delayed by extra epochs)
  double corrupt = 0.0;    ///< P(one payload byte flipped on the wire)
  /// Reorder delay is uniform in [reorder_delay_min, reorder_delay_max].
  Epoch reorder_delay_min = 1;
  Epoch reorder_delay_max = 8;
  uint64_t seed = 0x52464944;  // "RFID"
  std::vector<LinkPartition> partitions;

  bool enabled() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0 ||
           !partitions.empty();
  }

  /// The fate of transmission attempt `attempt` (0 = first send) of the
  /// frame with global sequence `seq`.
  FrameFate FateOf(uint64_t seq, uint32_t attempt) const;

  /// True when link (from, to) is inside a partition window at `at`.
  bool Partitioned(SiteId from, SiteId to, Epoch at) const;
};

/// Fault config selected by the RFID_FAULTS environment variable, e.g.
/// RFID_FAULTS="drop=0.05,dup=0.01,reorder=0.02,corrupt=0.001,seed=7".
/// Unset or empty -> no faults. Unknown keys are ignored.
FaultModel FaultModelFromEnv();

/// Reliable-delivery (ARQ) configuration. The protocol runs exactly when
/// the fault model is enabled (it can lose, duplicate or delay frames);
/// on a perfect fabric link_seq stays 0 and no acks flow.
struct ReliabilityOptions {
  /// Max unacked frames per directed link; further sends queue in the
  /// sender until the window opens.
  int window = 64;
  /// Epochs before an unacked frame is retransmitted (then doubled per
  /// attempt, up to a fixed cap). Acks only flow when the replay drains a
  /// site, so the effective round trip is two event-epoch gaps (~120
  /// epochs at the default 60-epoch injection cadence); the default sits
  /// above that to keep retransmits loss-driven rather than spurious.
  Epoch rto = 160;
};

/// Fabric configuration: fault injection and the reliability protocol
/// that recovers from it.
struct NetworkOptions {
  /// Seeded fault injection (defaults to RFID_FAULTS, i.e. no faults when
  /// the variable is unset).
  FaultModel faults;
  ReliabilityOptions reliability;

  NetworkOptions();
};

/// Injected-fault counters (every fault charged its wire bytes -- the
/// frame was transmitted; the fault happened to it afterwards).
struct FaultStats {
  int64_t drops = 0;
  int64_t duplicates = 0;
  int64_t reorders = 0;
  int64_t corrupts = 0;
  int64_t partition_drops = 0;
};

/// Reliability-protocol counters: the retransmission tax Table 5 reports,
/// plus receiver-side duplicate suppression.
struct ReliableStats {
  int64_t retransmits = 0;
  int64_t retransmit_bytes = 0;
  int64_t dup_drops = 0;
};

/// The byte-accounted message fabric. Owns a Transport backend and the
/// per-destination arrival queues. Unsynchronized by design: under the
/// bulk-synchronous executor (common/executor.h) every Send and DeliverDue
/// happens in a serial boundary phase -- never concurrently with per-site
/// parallel work -- which keeps the per-link/per-kind accounting race-free
/// without locks. That contract is machine-checked: the fabric state is
/// GUARDED_BY(phase_), a zero-cost SerialPhase capability
/// (common/thread_annotations.h). Mutators assert exclusive access (debug
/// builds additionally pin them to the one serial thread); the accessors
/// that parallel window phases legitimately read -- IsSiteDown and the
/// counter getters -- assert shared access only.
class Network {
 public:
  /// In-process backend, no faults.
  Network();
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Swaps in a backend. `num_sites` is how many destinations need
  /// listeners (the socket backend binds one per site). Must not be
  /// called while frames are in flight -- they would be stranded in the
  /// old backend (checked).
  void ConfigureTransport(TransportKind kind, int num_sites);

  /// Attaches the run's telemetry (send-phase timers, per-kind wire
  /// counters; obs/telemetry.h) to this network and its socket backend,
  /// current or future. Null detaches. Observation only -- accounting and
  /// delivery are identical with or without it.
  void SetTelemetry(obs::Telemetry* telemetry);

  /// Sets the fault model and the reliability protocol's parameters. Must
  /// happen before anything is in flight (checked): frames already sent
  /// would otherwise be delivered under an ack protocol that did not send
  /// them.
  void Configure(NetworkOptions options);

  /// Advances the send clock: subsequent Sends carry `now` as their send
  /// epoch. The replay calls this once per event epoch.
  void AdvanceClock(Epoch now) {
    phase_.AssertHeld();
    now_ = now;
  }
  Epoch now() const {
    phase_.AssertShared();
    return now_;
  }

  /// Installs the handler for messages addressed to `site`, replacing any
  /// existing one. Handlers run inside DeliverDue, not inside Send.
  void RegisterHandler(SiteId site, MessageHandler handler);

  /// Frames `payload` and queues it from `from` to `to` with the current
  /// clock as send epoch. The framed wire size (header + payload +
  /// checksum) is charged to the (from, to) link and the kind counter even
  /// when `to` has no handler. Returns the frame's wire size.
  ///
  /// Under the reliability protocol the frame is assigned the link's next
  /// link_seq and tracked for ack/retransmit; when the link's in-flight
  /// window is full it is deferred (charged when actually transmitted).
  /// Fault fates (drop/duplicate/reorder/corrupt/partition) apply per
  /// transmission attempt; every attempt that puts bytes on the wire is
  /// charged, including duplicates and retransmits.
  size_t Send(SiteId from, SiteId to, MessageKind kind,
              const std::vector<uint8_t>& payload);

  /// Drains every frame addressed to `site` whose send epoch is <= now
  /// into `site`'s handler, in (send epoch, send sequence) order.
  /// Frames not yet due stay queued (in flight). Returns frames popped
  /// from the arrival queue (kAck frames and suppressed duplicates count
  /// as popped but are consumed by the protocol, not the handler). A site
  /// marked down by SetSiteDown receives nothing. After the sweep the
  /// receiver sends one cumulative kAck per peer link that delivered.
  /// `max_frames` caps the frames popped this sweep (the crash model's
  /// mid-drain kill point: a durable site that dies partway through a
  /// drain leaves the unconsumed suffix queued in the fabric); negative
  /// means unlimited.
  int DeliverDue(SiteId site, Epoch now, int max_frames = -1);

  /// Retransmits every tracked frame whose retry timer expired at `now`
  /// (exponential backoff per attempt) and releases deferred frames into
  /// links with window room. Call once per event epoch, before draining.
  /// No-op when the reliability protocol is off.
  void TickReliability(Epoch now);

  /// Marks `site` crashed (down = true) or recovered (false). Only the
  /// down mark changes: in-flight frames, pending arrivals, and link state
  /// are retained -- the process died, the fabric did not. While down,
  /// DeliverDue delivers nothing and TickReliability does not retransmit
  /// toward it; frames sent to it queue for delivery after recovery.
  void SetSiteDown(SiteId site, bool down);
  /// Read concurrently by window/scan workers (BelievedContainer's
  /// degraded-mode check): shared access to serially-written state.
  bool IsSiteDown(SiteId site) const {
    phase_.AssertShared();
    return down_.count(site) > 0;
  }

  /// True when the reliability protocol still has undelivered work:
  /// unacked or deferred frames on any link whose destination is up.
  bool HasReliabilityWork() const;

  /// True when every tracked link is fully acked (cumulative ack == last
  /// link_seq assigned) with nothing deferred -- the exactly-once
  /// convergence condition fault_test asserts.
  bool AllReliableDelivered() const;

  /// Whether the reliability protocol is active (the fault model was
  /// enabled at Configure time).
  bool reliable() const { return reliable_; }
  const FaultModel& faults() const { return options_.faults; }

  const FaultStats& fault_stats() const {
    phase_.AssertShared();
    return fault_stats_;
  }
  const ReliableStats& reliable_stats() const {
    phase_.AssertShared();
    return reliable_stats_;
  }

  int64_t total_bytes() const {
    phase_.AssertShared();
    return total_bytes_;
  }
  int64_t total_messages() const {
    phase_.AssertShared();
    return total_messages_;
  }

  /// Frames sent but not yet delivered to a handler (still inside the
  /// transport or queued with a future send epoch) -- the
  /// transfers-in-flight state of the replay.
  int64_t in_flight_messages() const {
    phase_.AssertShared();
    return in_flight_messages_;
  }
  int64_t in_flight_bytes() const {
    phase_.AssertShared();
    return in_flight_bytes_;
  }

  /// Bytes sent over the directed link from -> to.
  int64_t BytesOnLink(SiteId from, SiteId to) const;
  /// Messages sent over the directed link from -> to.
  int64_t MessagesOnLink(SiteId from, SiteId to) const;

  /// Bytes sent with the given message kind.
  int64_t BytesOfKind(MessageKind kind) const {
    phase_.AssertShared();
    return kind_bytes_[static_cast<size_t>(kind)];
  }
  int64_t MessagesOfKind(MessageKind kind) const {
    phase_.AssertShared();
    return kind_messages_[static_cast<size_t>(kind)];
  }

  TransportKind transport_kind() const { return transport_kind_; }
  const Transport& transport() const { return *transport_; }

 private:
  struct LaterFrame {
    bool operator()(const Frame& a, const Frame& b) const {
      if (a.send_epoch != b.send_epoch) return a.send_epoch > b.send_epoch;
      return a.seq > b.seq;
    }
  };
  using ArrivalQueue =
      std::priority_queue<Frame, std::vector<Frame>, LaterFrame>;

  /// Ack/retransmit state per transmitted-but-unacked frame.
  struct TrackedFrame {
    Frame frame;
    Epoch next_retry = 0;
    uint32_t attempts = 1;  ///< transmission attempts so far
  };
  /// Sender-side per-directed-link state.
  struct LinkSendState {
    uint64_t next_link_seq = 1;
    std::map<uint64_t, TrackedFrame> unacked;  ///< by link_seq, ordered
    std::deque<Frame> deferred;  ///< window overflow, not yet transmitted
  };
  /// Receiver-side per-directed-link state.
  struct LinkRecvState {
    uint64_t cum = 0;  ///< all link_seq <= cum delivered
    std::set<uint64_t> out_of_order;
    bool ack_pending = false;
  };

  static uint64_t LinkKey(SiteId from, SiteId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }
  static SiteId LinkFrom(uint64_t key) {
    return static_cast<SiteId>(static_cast<int32_t>(key >> 32));
  }
  static SiteId LinkTo(uint64_t key) {
    return static_cast<SiteId>(static_cast<int32_t>(key & 0xffffffffu));
  }

  /// Charges `frame`'s wire size and puts it on the wire, applying the
  /// fault model to this attempt. Enqueued copies raise the in-flight
  /// gauges; faulted-away copies (drop/corrupt/partition) are charged but
  /// never in flight.
  void Transmit(const Frame& frame, uint32_t attempt) REQUIRES(phase_);
  /// Assigns the link's next link_seq, transmits, and tracks for
  /// ack/retransmit.
  void TrackAndTransmit(LinkSendState* link, Frame frame) REQUIRES(phase_);
  /// Processes a received cumulative ack for link (frame.to is the ack's
  /// receiver = the original sender).
  void HandleAck(const Frame& ack) REQUIRES(phase_);
  /// Moves deferred frames into the window while there is room.
  void ReleaseDeferred(LinkSendState* link) REQUIRES(phase_);
  void ChargeCounters(const Frame& frame, size_t wire) REQUIRES(phase_);
  void BumpTelemetry(const char* name, int64_t n);

  /// Serial-phase capability: exclusive in boundary phases, shared from
  /// workers (IsSiteDown, counter reads). See class comment.
  SerialPhase phase_;

  // Configured once before the replay starts (ConfigureTransport /
  // Configure / SetTelemetry, all checked to run with nothing in flight);
  // read-only afterwards, so not phase-guarded.
  std::unique_ptr<Transport> transport_;
  TransportKind transport_kind_ = TransportKind::kInProcess;
  obs::Telemetry* telemetry_ = nullptr;
  NetworkOptions options_;
  bool reliable_ = false;

  Epoch now_ GUARDED_BY(phase_) = 0;
  uint64_t next_seq_ GUARDED_BY(phase_) = 0;

  std::unordered_map<SiteId, MessageHandler> handlers_ GUARDED_BY(phase_);
  /// Frames drained from the transport but not yet due for delivery.
  std::unordered_map<SiteId, ArrivalQueue> pending_ GUARDED_BY(phase_);

  /// Ordered maps: determinism (retransmit/release sweeps iterate them).
  std::map<uint64_t, LinkSendState> send_links_ GUARDED_BY(phase_);
  std::map<uint64_t, LinkRecvState> recv_links_ GUARDED_BY(phase_);
  std::unordered_set<SiteId> down_ GUARDED_BY(phase_);

  std::unordered_map<uint64_t, int64_t> link_bytes_ GUARDED_BY(phase_);
  std::unordered_map<uint64_t, int64_t> link_messages_ GUARDED_BY(phase_);
  int64_t kind_bytes_[kNumMessageKinds] GUARDED_BY(phase_) = {};
  int64_t kind_messages_[kNumMessageKinds] GUARDED_BY(phase_) = {};
  int64_t total_bytes_ GUARDED_BY(phase_) = 0;
  int64_t total_messages_ GUARDED_BY(phase_) = 0;
  int64_t in_flight_bytes_ GUARDED_BY(phase_) = 0;
  int64_t in_flight_messages_ GUARDED_BY(phase_) = 0;
  FaultStats fault_stats_ GUARDED_BY(phase_);
  ReliableStats reliable_stats_ GUARDED_BY(phase_);
};

}  // namespace rfid

#endif  // RFID_DIST_NETWORK_H_
