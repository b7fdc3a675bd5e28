// The distributed-processing driver (Section 5.2, Figure 3): replays a
// completed SupplyChainSim epoch by epoch against a set of per-site
// processors connected by the byte-accounted Network and coordinated by the
// ONS, or against a single centralized server that every remote site ships
// its raw readings to.
//
//   kDistributed -- one Site per warehouse consumes its own trace; when a
//                   pallet group crosses sites, the departing site
//                   serializes inference/query state (per MigrationMode)
//                   and the destination installs it on arrival; the ONS is
//                   kept current so any object can be located, and it is
//                   the driver's only record of which processor owns a
//                   tag.
//   kCentralized -- the Table 5 baseline: remote sites batch their raw
//                   readings per inference period, delta-encode and gzip
//                   them, and ship them to site 0, which runs one global
//                   inference engine (and the queries, when attached).
//
// Accuracy is surfaced the way the paper plots it: containment error
// against trace/ground_truth sampled at every inference boundary
// (Figures 5(e)/5(f)) -- per containment level when the sites run the
// Appendix A.4 hierarchy (snapshots() for items, case_snapshots() for
// cases) -- plus the merged per-site query alerts (Section 5.4).
//
// Execution model: the replay is event-driven and bulk-synchronous. The
// driver precomputes every epoch at which anything can happen (injections,
// transfer departures/arrivals, inference boundaries, flushes) and walks
// only those events; between events each site's window of readings is
// ingested in one batched call. At each event the driver first advances
// the Network/ONS clocks and serially drains every site's delivery queue
// of frames whose send epoch has passed (Network::DeliverDue --
// messages sent at earlier events are in flight until this point, however
// the transport backend carried them). Centralized mode then flushes the
// remote readings to the server. Each site's step (StepSite:
// DeliverArrivals + ObserveBatch when a window is due, then AdvanceTo at
// boundaries) fans out as one SiteExecutor job per event, whose threads
// also split each inference run's E-step, M-step and evidence scan, and
// joins before the serial boundary phase (ONS shard updates/resolves,
// ExportTransfer, Network::Send, accuracy snapshots). A durable run's
// checkpoint cut then fans out one job per up site (EncodeCheckpoint +
// SiteDurability::WriteCheckpoint, each into the site's own directory).
// A recovering site catches up through the same StepSite. Because parallel work touches
// only site-local state and all cross-site effects -- including every
// sharded-directory mutation, cache fill, and frame drain -- are serial,
// results are bit-identical for every num_threads (and directory_shards,
// and transport backend) value.
#ifndef RFID_DIST_DISTRIBUTED_H_
#define RFID_DIST_DISTRIBUTED_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "dist/network.h"
#include "dist/ons.h"
#include "dist/site.h"
#include "obs/telemetry.h"
#include "query/queries.h"
#include "sim/supply_chain.h"
#include "trace/product_catalog.h"

namespace rfid {

enum class ProcessingMode : uint8_t {
  kDistributed = 0,
  kCentralized = 1,
};

std::string ToString(ProcessingMode mode);

/// Where within the crash epoch the process dies. The two later kill
/// points probe the durable-site guarantee at finer grain
/// (tests/durability_test.cc sweeps all three at every boundary).
enum class CrashPhase : uint8_t {
  /// Before the epoch's delivery drain: the site never sees this epoch's
  /// frames (they wait in the fabric when durability retains them).
  kMidWindow = 0,
  /// After the drain and its WAL flush, before the window compute: the
  /// site consumed and durably logged the epoch's frames, then died.
  kPostDrain = 1,
  /// Partway through the drain: the WAL holds a flushed prefix of the
  /// epoch's frames and the fabric still queues the unconsumed suffix
  /// (append-before-apply -- a frame leaves the fabric only once its
  /// record is durable).
  kMidFlush = 2,
};

/// One scheduled site failure: the site's process dies at `at` (losing all
/// in-memory inference/query state) and a replacement process comes up at
/// `recover_at` (`recover_at == at` is an immediate restart). The
/// replacement restores its own checkpoint + frame WAL from
/// DistributedOptions::durability and replays the site's raw trace -- no
/// peer traffic, and frames queued for the site wait out the outage in
/// the fabric.
struct CrashEvent {
  SiteId site = kNoSite;
  Epoch at = 0;
  Epoch recover_at = 0;
  CrashPhase phase = CrashPhase::kMidWindow;
};

/// Deterministic crash schedule: `count` crashes at seeded sites/epochs in
/// the middle half of the horizon, each lasting `outage` epochs (clamped to
/// the horizon). Crashes that would overlap an earlier outage of the same
/// site are dropped, so the result is always a valid schedule.
std::vector<CrashEvent> SeededCrashSchedule(uint64_t seed, int num_sites,
                                            Epoch horizon, int count,
                                            Epoch outage);

struct DistributedOptions {
  ProcessingMode mode = ProcessingMode::kDistributed;
  SiteOptions site;
  /// Transport backend carrying every framed message: the in-process
  /// fabric or real loopback sockets (dist/transport_socket.h). Defaults
  /// to the RFID_TRANSPORT environment variable ("socket" selects the
  /// socket backend), so whole test binaries can be re-run against real
  /// sockets. Results are bit-identical across backends.
  TransportKind transport = TransportKindFromEnv();
  /// Fault injection and the reliability protocol (dist/network.h). With
  /// no faults every message is deliverable at the boundary of the epoch
  /// it was sent.
  NetworkOptions network;
  /// Instantiate Q1/Q2 at every site (requires a catalog and sensor stream
  /// at construction).
  bool attach_queries = false;
  ExposureQueryConfig q1 = ExposureQuery::Q1Config();
  ExposureQueryConfig q2 = ExposureQuery::Q2Config();
  /// Threads executing per-site windows and the loops inside each
  /// inference run, in both modes: 0 (or 1) = serial on the replay thread,
  /// kAutoThreads = hardware concurrency. Alerts, accuracy snapshots, and
  /// byte counts are bit-identical across all values.
  int num_threads = kAutoThreads;
  /// ONS directory shards (hash partition of the tag->site map, each shard
  /// hosted by a real site); 0 = one shard per site. Shard count changes
  /// only which links carry the directory bytes, never the totals.
  int directory_shards = 0;
  /// Per-site resolver caching of directory lookups (invalidated on
  /// moves); repeat resolutions of an unmoved object cost zero wire bytes.
  bool directory_cache = true;
  /// Collect phase histograms and per-kind wire counters during Run
  /// (obs/telemetry.h). Off = no Telemetry is constructed and every
  /// instrumentation point reduces to a null check -- the configuration
  /// the <2% overhead budget is measured against. Telemetry never feeds
  /// back into results either way (executor_test proves bit-identity).
  bool collect_metrics = true;
  /// Also record a Chrome trace (chrome://tracing / Perfetto) and write it
  /// here at the end of Run. Empty = consult the RFID_TRACE environment
  /// variable; set `trace` to false to ignore both (benches that construct
  /// many systems trace only one representative run).
  std::string trace_path;
  bool trace = true;
  /// Scheduled site failures (distributed mode with durability only --
  /// anything else is InvalidArgument; must be sorted by `at`, with
  /// 0 < at <= recover_at, and non-overlapping outages per site). With an
  /// all-zero FaultModel a crashed-and-recovered run ends bit-identical to
  /// the uncrashed run.
  std::vector<CrashEvent> crashes;
  /// Per-site durable storage (dist/durability.h): checkpoints every
  /// SiteOptions::checkpoint_every boundaries and a frame WAL fsynced per
  /// delivery drain. Defaults read RFID_DURABILITY_DIR /
  /// RFID_DURABILITY_FSYNC; disabled when the directory is empty. The
  /// replay starts at epoch 0, so a site directory that already holds a
  /// checkpoint or a non-empty WAL segment is InvalidArgument. A crashed
  /// site recovers from its own disk (checkpoint + WAL replay + trace
  /// replay), and transfers that departed during the outage are exported
  /// during that catch-up replay.
  DurabilityOptions durability;
};

/// Drives a finished simulation through the distributed (or centralized)
/// pipeline. The sim must outlive the system and have been Run() without an
/// external sink (per-site traces materialized).
class DistributedSystem {
 public:
  /// `catalog` and `sensors` are only consulted when
  /// `options.attach_queries` is set; both must outlive the system.
  /// `sensors` must be time-ordered (as GenerateSensorStream produces).
  DistributedSystem(const SupplyChainSim* sim, DistributedOptions options,
                    const ProductCatalog* catalog = nullptr,
                    const std::vector<SensorReading>* sensors = nullptr);
  ~DistributedSystem();

  DistributedSystem(const DistributedSystem&) = delete;
  DistributedSystem& operator=(const DistributedSystem&) = delete;

  /// Replays the whole horizon. Calling Run a second time is a no-op.
  void Run();

  const Network& network() const { return network_; }
  const Ons& ons() const {
    phase_.AssertShared();
    return ons_;
  }
  const DistributedOptions& options() const { return options_; }

  /// This run's telemetry bundle (phase histograms, per-kind wire
  /// counters, optional trace sink); nullptr when collect_metrics is off.
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

  /// Number of site processors (1 in centralized mode).
  int num_processors() const { return static_cast<int>(sites_.size()); }
  const Site& site(SiteId s) const { return *sites_[static_cast<size_t>(s)]; }

  /// The owning processor's current belief about an object's container
  /// (kNoTag for unknown or departed objects). Items answer at the
  /// item→case level; cases at the case→pallet level when
  /// SiteOptions::hierarchical is set.
  TagId BelievedContainer(TagId object) const;

  /// Two-level containment answer (Appendix A.4): the believed pallet of a
  /// case, or of an item resolved transitively through its believed case
  /// (following the case to *its* owning processor, which can differ from
  /// the item's mid-handoff). kNoTag when the hierarchy is disabled or
  /// either hop is unresolved.
  TagId BelievedPallet(TagId object) const;

  struct ErrorSnapshot {
    Epoch epoch = 0;
    double error_percent = 0.0;
    bool operator==(const ErrorSnapshot&) const = default;
  };

  /// Containment error (percent, vs ground truth over items present) at the
  /// accuracy sample nearest to `at`. Valid after Run; NaN when no samples
  /// were recorded (an empty run is not a perfect one).
  double ContainmentErrorPercent(Epoch at) const;

  /// Every accuracy sample recorded during Run (one per inference boundary
  /// that ran, plus a forced sample at the horizon so the final stretch is
  /// always measured), in epoch order -- the raw series behind the error
  /// accessors (and the serial-vs-parallel determinism contract).
  const std::vector<ErrorSnapshot>& snapshots() const { return snapshots_; }

  /// Mean containment error over all accuracy samples at or after `warmup`
  /// -- the continuous-monitoring view of Figures 5(e)/5(f). NaN when no
  /// sample falls in the range.
  double AverageContainmentErrorPercent(Epoch warmup = 0) const;

  /// Case→pallet accuracy series, sampled at the same boundaries as
  /// `snapshots()` when the hierarchy is enabled (always empty otherwise).
  /// A sample scores only cases the ground truth has contained in a pallet
  /// at that epoch -- an unpacked case sitting on a shelf is uncontained
  /// by construction, and counting it would measure shelving, not
  /// inference -- and boundaries where no case is contained record no
  /// sample rather than a fake-perfect one.
  const std::vector<ErrorSnapshot>& case_snapshots() const {
    return case_snapshots_;
  }

  /// Mean case-level error over case samples at or after `warmup`; NaN
  /// when none fall in the range.
  double AverageCaseContainmentErrorPercent(Epoch warmup = 0) const;

  /// All alerts of query `query_index` (0 = Q1, 1 = Q2) merged across
  /// sites, ordered by completion time. Empty when queries not attached.
  std::vector<ExposureAlert> AllAlerts(int query_index) const;

  /// Epochs the run kept ticking past the horizon to let the reliability
  /// layer finish retransmitting (0 when reliable delivery is off or
  /// everything drained at the horizon).
  Epoch reliability_flush_epochs() const { return reliability_flush_epochs_; }

  /// Whether per-site durable storage is attached (durability.dir set).
  bool durable() const { return !durabilities_.empty(); }

  /// Sum of every site's DurabilityStats (all-zero when disabled).
  DurabilityStats DurabilityTotals() const;

 private:
  bool centralized() const {
    return options_.mode == ProcessingMode::kCentralized;
  }
  /// The processor answering for `object`: the server in centralized
  /// mode, else the site the ONS maps it to (nullptr when unregistered).
  Site* OwnerSite(TagId object) const;
  /// Samples containment accuracy at `t`, per level when hierarchical.
  /// The per-tag scans fan out across `executor` (read-only against site
  /// state; integer error counts merge associatively, so results stay
  /// bit-identical at any thread count).
  void RecordSnapshot(Epoch t, SiteExecutor* executor);
  /// One level's containment scan at `t`: tags are scored against their
  /// ground-truth container; with `contained_only`, tags the truth holds
  /// uncontained at `t` are skipped instead of scored.
  ErrorRate ScanContainment(const std::vector<TagId>& tags, Epoch t,
                            SiteExecutor* executor,
                            bool contained_only) const;
  /// True when site `s` has a window due at `t`: a queued arrival or an
  /// unconsumed trace reading at or before `t`.
  bool HasWindow(SiteId s, Epoch t) const;
  /// The only way a site advances, live and in recovery's catch-up: when
  /// a window is due, install the arrivals due at `t` and ingest the
  /// site's readings up to `t` (kWindowCompute span); at a boundary, then
  /// run inference and feed the queries (kInference span). Returns the
  /// inference runs performed. Touches only site `s` and cursors_[s].
  int StepSite(SiteId s, Epoch t, bool boundary);
  /// Builds a fully wired site processor for `s`: telemetry, the network
  /// handler (re-registered, replacing any dead predecessor's), queries,
  /// and the site's sensor slice. Used at construction and when a crashed
  /// site is replaced by a fresh process.
  std::unique_ptr<Site> MakeSite(SiteId s);
  /// Kills site `s` at epoch `at`: snapshots its current containment
  /// answers for every tag the ONS maps to it into degraded_beliefs_ (the
  /// last-known view queries fall back to during the outage), drops its
  /// unflushed WAL bytes, and swaps in a pristine replacement that
  /// stays isolated until recovery.
  void CrashSite(SiteId s, Epoch at) REQUIRES(phase_);
  /// Brings site `s` back at epoch `t`: restores the newest valid
  /// checkpoint from disk, re-feeds the frame-WAL tail through the
  /// handler, drains the outage backlog the fabric retained, then catches
  /// up with StepSite at the site's own event epochs after the checkpoint
  /// cut -- exporting for real any transfer that departed while the
  /// process was down. Zero peer traffic.
  void RecoverSiteDurable(SiteId s, Epoch t) REQUIRES(phase_);

  const SupplyChainSim* sim_;
  DistributedOptions options_;
  const ProductCatalog* catalog_;
  const std::vector<SensorReading>* sensors_;

  /// Owned per-run telemetry; constructed before the network so transport
  /// instrumentation is live from the first frame. Null when disabled.
  std::unique_ptr<obs::Telemetry> telemetry_;
  Network network_;
  std::vector<std::unique_ptr<Site>> sites_;
  /// Run's worker pool while Run executes (null otherwise); every site,
  /// including a crashed site's replacement, runs its inference on it.
  SiteExecutor* pool_ = nullptr;
  /// Per-site durable stores (empty when durability is disabled). Owned
  /// here -- not by the Site -- so the WAL state survives a crashed
  /// site's teardown and the replacement process reopens the same files.
  std::vector<std::unique_ptr<SiteDurability>> durabilities_;

  /// Serial-phase capability over the directory and the crash/recovery
  /// bookkeeping: written only in Run's serial phases (exclusive), read
  /// concurrently by ScanContainment's workers through BelievedContainer
  /// (shared). Same discipline as Network::phase_.
  SerialPhase phase_;

  /// The ONS directory: the owning processor of every tracked tag, kept
  /// current as transfers arrive and objects exit.
  Ons ons_ GUARDED_BY(phase_);
  std::vector<ErrorSnapshot> snapshots_;
  /// Case→pallet samples (hierarchical runs only; see case_snapshots()).
  std::vector<ErrorSnapshot> case_snapshots_;
  /// Per-site read cursor into the raw trace (member so a crashed site's
  /// rebuild can rewind and re-consume its own readings). Partitioned by
  /// site index: StepSite workers write disjoint elements, which
  /// GUARDED_BY cannot express -- keep it that way.
  std::vector<size_t> cursors_;
  /// Last-known containment answer per tag owned by a currently-down site;
  /// queries during the outage answer from this snapshot.
  std::unordered_map<TagId, TagId> degraded_beliefs_ GUARDED_BY(phase_);
  /// Crash epoch of each currently-down site: the catch-up replay exports
  /// the transfers departing at or after it (the dead process never did).
  std::unordered_map<SiteId, Epoch> crash_at_ GUARDED_BY(phase_);
  Epoch reliability_flush_epochs_ = 0;
  bool ran_ = false;
};

}  // namespace rfid

#endif  // RFID_DIST_DISTRIBUTED_H_
