// One site of the distributed deployment (Figure 3): a warehouse-local
// processor that runs streaming inference over the site's own RFID stream,
// optionally evaluates the Q1/Q2 continuous queries against it, and
// exchanges state with peer sites over the byte-accounted Network when
// objects cross site boundaries.
//
// Migration implements Section 4's three techniques:
//   kNone         -- no state transfer; the receiving site starts cold;
//   kCollapsed    -- ship one number per (container, object) pair (the
//                    collapsed co-location weights), plus the critical
//                    region, change barrier, and current belief;
//   kFullReadings -- additionally ship the raw readings of the objects and
//                    their candidate containers inside the critical
//                    regions and recent history ("simply shipping the
//                    inference state"), once per transfer and level: the
//                    objects of one transfer share candidates, so each
//                    distinct reading travels once.
// Inference payloads travel as delta-varint batches (common/serde,
// inference/state) deflated with common/compress; query state migrates per
// object, optionally compressed with the centroid-based sharing of
// Section 4.2 (query/state_sharing).
//
// With SiteOptions::hierarchical set, the site additionally runs the
// Appendix A.4 second containment level: a dedicated StreamingInference
// whose universe is (pallet containers, case objects), fed the non-item
// slice of the same stream. A departing transfer then ships case→pallet
// state (collapsed weights, contexts, and -- under kFullReadings -- one
// list of the case/candidate-pallet readings) alongside the item→case
// batch in the same kInferenceState envelope, and containment answers
// resolve an item's pallet transitively (DistributedSystem::BelievedPallet).
#ifndef RFID_DIST_SITE_H_
#define RFID_DIST_SITE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "common/types.h"
#include "dist/durability.h"
#include "dist/network.h"
#include "inference/state.h"
#include "inference/streaming.h"
#include "query/queries.h"
#include "sim/supply_chain.h"
#include "trace/product_catalog.h"
#include "trace/reading.h"

namespace rfid {

/// How inference state follows an object to its next site (Section 4.1).
enum class MigrationMode : uint8_t {
  kNone = 0,
  kCollapsed = 1,
  kFullReadings = 2,
};

std::string ToString(MigrationMode mode);

/// Per-site processing knobs.
struct SiteOptions {
  MigrationMode migration = MigrationMode::kCollapsed;
  StreamingOptions streaming;
  /// Compress migrated query state with centroid-based sharing
  /// (Section 4.2) instead of shipping each object's state raw.
  bool share_query_state = false;
  /// Run the second containment level (cases within pallets, Appendix
  /// A.4): a per-site pallet-level engine whose state also migrates on
  /// transfers and whose answers back DistributedSystem::BelievedPallet.
  bool hierarchical = false;
  /// Cut a durable checkpoint every this many inference boundaries when
  /// durability is attached (dist/durability.h); 0 = WAL-only recovery
  /// (replay the full frame WAL and site trace from scratch). Only tests
  /// set it: durability_test's crash sweep runs {1, 5, 0} to cover
  /// multi-segment and WAL-only recovery.
  int checkpoint_every = 1;
};

/// A decoded kInferenceState envelope (DecodeInferenceEnvelope). `items`
/// carries the item→case level; `cases` the case→pallet level (empty
/// unless the sender ran hierarchical inference).
struct PendingArrival {
  Epoch arrive = 0;
  MigrationBatch items;
  MigrationBatch cases;
};

/// A decoded kQueryState envelope (DecodeQueryEnvelope): each query's
/// per-object pattern-state bytes.
struct PendingQueryState {
  Epoch arrive = 0;
  std::vector<std::pair<TagId, std::vector<uint8_t>>> q1_states;
  std::vector<std::pair<TagId, std::vector<uint8_t>>> q2_states;
};

/// One site's processor. Owned and driven by DistributedSystem in epoch
/// order. The site itself is unsynchronized: under the bulk-synchronous
/// executor, ObserveBatch/AdvanceTo/DeliverArrivals run inside
/// parallel windows, and EncodeCheckpoint in the checkpoint cut's
/// fan-out (one call per site at a time; an inference run inside it may
/// fan its loops out on the pool, see set_pool), while every method that
/// crosses sites -- ExportTransfer, Retire, and HandleMessage (invoked by
/// Network::DeliverDue when a queued frame's arrival epoch passes) --
/// only runs from the serial phases between windows.
class Site {
 public:
  /// `model`, `schedule`, and `network` must outlive the site. The model
  /// and schedule are the *global* ones: locations are globally numbered,
  /// so a site simply never sees readings outside its own range, and
  /// full-readings imports from other sites stay interpretable.
  Site(SiteId id, const ReadRateModel* model,
       const InterrogationSchedule* schedule, Network* network,
       SiteOptions options);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Runs both containment levels' inference loops on `pool` (see
  /// RFInfer::set_pool); nullptr runs them on the caller.
  void set_pool(SiteExecutor* pool);

  /// Instantiates Q1/Q2 against `catalog` (must outlive the site).
  void AttachQueries(const ProductCatalog* catalog,
                     const ExposureQueryConfig& q1,
                     const ExposureQueryConfig& q2);

  /// Appends one site-local sensor sample; must arrive time-ordered.
  void AddSensor(const SensorReading& reading);

  /// Buffers a whole window of raw readings in one call -- the hot path of
  /// the event-driven replay, which batches every reading between two
  /// scheduling events instead of delivering one reading per epoch.
  void ObserveBatch(const RawReading* readings, size_t n);

  /// Advances local time, running inference at every period boundary up to
  /// `now` and, after each run, feeding any attached queries with that
  /// run's events past the previous boundary (sensor samples interleaved in
  /// time order). Returns inference runs performed.
  int AdvanceTo(Epoch now);

  /// Decodes and installs, in receipt order, every queued inbound state
  /// envelope whose arrival epoch has been reached.
  void DeliverArrivals(Epoch now);

  /// True when a queued inbound envelope has arrival epoch <= now -- the
  /// scheduler's cheap test for whether the site needs a delivery pass.
  bool HasArrivalsDue(Epoch now) const;

  /// Attaches the run's telemetry (migration encode spans; obs/telemetry.h).
  /// Null detaches. Observation only -- results are identical either way.
  void SetTelemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Serializes and transmits the state of a departing transfer group to
  /// `tr.to` (inference state per the migration mode -- per level, the
  /// objects' states and under kFullReadings one list of their readings,
  /// see StreamingInference::ExportReadings; query state when queries are
  /// attached). No-op for inference when mode is kNone.
  void ExportTransfer(const ObjectTransfer& tr);

  /// Drops the local query state of a transfer's items: objects leaving
  /// the tracked supply chain, and -- when a crashed site is rebuilt from
  /// its raw trace -- departures the dead process already exported (the
  /// live sends happened before the crash, but the fresh engine must not
  /// keep state the live one gave away). Sends nothing.
  void Retire(const ObjectTransfer& tr);

  /// Inbound message entry point (registered with the Network). A state
  /// envelope (kInferenceState, kQueryState) is WAL-logged and queued as
  /// the bytes that arrived, keyed by the arrival epoch it leads with;
  /// DeliverArrivals decodes it. A kRawReadings batch is ingested at once.
  void HandleMessage(SiteId from, MessageKind kind,
                     const std::vector<uint8_t>& payload);

  // ---- Durability (dist/durability.h) ----

  /// Attaches the site's durable storage (driver-owned, outlives the
  /// site across crash rebuilds; null detaches). With storage attached,
  /// HandleMessage WAL-logs every state-bearing inbound frame before
  /// queueing or ingesting it.
  void AttachDurability(SiteDurability* durability) {
    durability_ = durability;
  }

  /// Serializes the complete site state as of the boundary cut `epoch`:
  /// both inference levels' snapshots, the queued inbound envelopes
  /// (verbatim, as a kind byte plus the received bytes), query pattern
  /// states and fired alerts, the sensor cursor, and the event watermark.
  /// The caller wraps the bytes in a kCheckpoint frame for storage.
  std::vector<uint8_t> EncodeCheckpoint(Epoch epoch);

  /// Restores EncodeCheckpoint bytes into this freshly built site. The
  /// site must be constructed with the same options, have its queries
  /// attached, and have its sensor stream re-added (AddSensor) first --
  /// restore re-feeds the consumed sensor prefix into the query joins.
  /// `epoch` must equal the encoding cut.
  Status RestoreCheckpoint(Epoch epoch, const std::vector<uint8_t>& bytes);

  /// The site's current belief about an object's container (local
  /// inference, change overrides, or imported belief). Items answer from
  /// the item→case engine; cases answer from the pallet-level engine when
  /// the hierarchy is enabled (kNoTag otherwise -- the flat engine never
  /// assigns a case).
  TagId BelievedContainer(TagId object) const {
    if (object.is_case() && pallet_streaming_ != nullptr) {
      return pallet_streaming_->ContainerOf(object);
    }
    return streaming_.ContainerOf(object);
  }

  SiteId id() const { return id_; }
  const StreamingInference& streaming() const { return streaming_; }
  StreamingInference& streaming() { return streaming_; }
  bool queries_attached() const { return q1_ != nullptr; }
  /// Query 0 (Q1) / 1 (Q2); nullptr when queries are not attached.
  const ExposureQuery* query(int index) const {
    return index == 0 ? q1_.get() : q2_.get();
  }

 private:
  /// A state envelope as received, waiting for its arrival epoch.
  struct InboundEnvelope {
    Epoch arrive = 0;
    MessageKind kind = MessageKind::kInferenceState;
    std::vector<uint8_t> payload;
  };

  void FeedQueries(const std::vector<ObjectEvent>& events);
  void Install(const InboundEnvelope& envelope);

  SiteId id_;
  Network* network_;
  obs::Telemetry* telemetry_ = nullptr;
  SiteDurability* durability_ = nullptr;
  SiteOptions options_;
  /// Scratch for the per-batch non-item split feeding the pallet level;
  /// cleared per batch and its capacity reused, so steady-state batches
  /// allocate nothing.
  std::vector<RawReading> split_rows_;
  StreamingInference streaming_;
  /// Second inference level (pallet containers, case objects); null unless
  /// options_.hierarchical.
  std::unique_ptr<StreamingInference> pallet_streaming_;

  const ProductCatalog* catalog_ = nullptr;
  std::unique_ptr<ExposureQuery> q1_;
  std::unique_ptr<ExposureQuery> q2_;
  std::vector<SensorReading> sensors_;
  size_t sensor_cursor_ = 0;
  /// Boundary of the newest run whose events were fed to the queries (run
  /// windows overlap).
  Epoch event_watermark_ = -1;

  /// Inbound kInferenceState / kQueryState envelopes in receipt order.
  /// Inference installs and query installs touch disjoint state, so one
  /// queue preserves each kind's order.
  std::vector<InboundEnvelope> inbound_;
};

// ---- Wire codecs shared by sites and the centralized driver ----

/// Inference-state envelope: varint arrival epoch, then one deflated block
/// of two length-prefixed EncodeMigrationBatch batches -- the item→case
/// level and the case→pallet level (the latter empty unless the sender
/// runs hierarchical inference). Each batch carries its states, then its
/// level's one reading list.
std::vector<uint8_t> EncodeInferenceEnvelope(Epoch arrive,
                                             const MigrationBatch& items,
                                             const MigrationBatch& cases);
Result<PendingArrival> DecodeInferenceEnvelope(
    const std::vector<uint8_t>& payload);

/// Query-state envelope: varint arrival epoch, shared flag, then one block
/// per query -- raw per-object states, or (when shared) one centroid bundle
/// per same-container group (Section 4.2's "20-50 objects per case"), built
/// from `believed_container` (object -> container at the exit point).
std::vector<uint8_t> EncodeQueryEnvelope(
    Epoch arrive,
    const std::vector<std::pair<TagId, std::vector<uint8_t>>>& q1_states,
    const std::vector<std::pair<TagId, std::vector<uint8_t>>>& q2_states,
    bool share,
    const std::unordered_map<TagId, TagId>& believed_container = {});
Result<PendingQueryState> DecodeQueryEnvelope(
    const std::vector<uint8_t>& payload);

/// Raw-readings batch for the centralized baseline: the trace_io
/// delta-varint encoding "with simple gzip compression" (Table 5), of `n`
/// readings straight out of a larger buffer (e.g. a site trace slice)
/// without an intermediate copy.
std::vector<uint8_t> EncodeReadingBatch(const RawReading* batch, size_t n);
Result<std::vector<RawReading>> DecodeReadingBatch(
    const std::vector<uint8_t>& payload);

}  // namespace rfid

#endif  // RFID_DIST_SITE_H_
