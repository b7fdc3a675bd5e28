#include "dist/site.h"

#include <algorithm>
#include <utility>

#include "common/compress.h"
#include "common/serde.h"
#include "obs/telemetry.h"
#include "query/state_sharing.h"
#include "trace/trace_io.h"

namespace rfid {

namespace {

/// zlib level for migration and raw-reading payloads (Table 5's "simple
/// gzip compression").
constexpr int kPayloadCompressLevel = 6;

/// Encoded form of an idle/default pattern state: objects that never
/// accumulated query state ship nothing.
const std::vector<uint8_t>& DefaultPatternStateBytes() {
  static const std::vector<uint8_t> kDefault = PatternState{}.Encode();
  return kDefault;
}

using TagStateList = std::vector<std::pair<TagId, std::vector<uint8_t>>>;

/// Splits a transfer's states into the paper's sharing groups: objects with
/// the same container at the exit point ("20-50 objects per case"), whose
/// query states are near-duplicates. `believed` maps object -> container.
std::vector<TagStateList> GroupByContainer(
    const TagStateList& states,
    const std::unordered_map<TagId, TagId>& believed) {
  std::vector<TagStateList> groups;
  std::unordered_map<TagId, size_t> group_of;
  for (const auto& entry : states) {
    auto bit = believed.find(entry.first);
    const TagId container = bit == believed.end() ? kNoTag : bit->second;
    auto [git, inserted] = group_of.emplace(container, groups.size());
    if (inserted) groups.emplace_back();
    groups[git->second].push_back(entry);
  }
  return groups;
}

void EncodeStateBlock(BufferWriter& w, const TagStateList& states,
                      const std::vector<TagStateList>& groups, bool share) {
  w.PutVarint(states.size());
  if (states.empty()) return;
  if (!share) {
    for (const auto& [tag, bytes] : states) {
      w.PutCompactTag(tag);
      w.PutVarint(bytes.size());
      w.PutBytes(bytes.data(), bytes.size());
    }
    return;
  }
  w.PutVarint(groups.size());
  for (const TagStateList& group : groups) {
    SharedStateBundle bundle = ShareStates(group);
    w.PutVarint(group.size());
    w.PutVarint(bundle.centroid_index);
    w.PutVarint(bundle.centroid_state.size());
    w.PutBytes(bundle.centroid_state.data(), bundle.centroid_state.size());
    for (size_t i = 0; i < bundle.tags.size(); ++i) {
      w.PutCompactTag(bundle.tags[i]);
      w.PutVarint(bundle.diffs[i].size());
      w.PutBytes(bundle.diffs[i].data(), bundle.diffs[i].size());
    }
  }
}

Status DecodeStateBlock(BufferReader& r, bool share, TagStateList* out) {
  uint64_t n = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&n));
  out->clear();
  if (n == 0) return Status::OK();
  auto read_blob = [&r](std::vector<uint8_t>* blob) -> Status {
    uint64_t len = 0;
    RFID_RETURN_NOT_OK(r.GetVarint(&len));
    if (len > r.remaining()) {
      return Status::Corruption("truncated state blob");
    }
    blob->resize(static_cast<size_t>(len));
    for (size_t i = 0; i < blob->size(); ++i) {
      RFID_RETURN_NOT_OK(r.GetU8(&(*blob)[i]));
    }
    return Status::OK();
  };
  if (!share) {
    for (uint64_t i = 0; i < n; ++i) {
      TagId tag;
      std::vector<uint8_t> bytes;
      RFID_RETURN_NOT_OK(r.GetCompactTag(&tag));
      RFID_RETURN_NOT_OK(read_blob(&bytes));
      out->emplace_back(tag, std::move(bytes));
    }
    return Status::OK();
  }
  uint64_t n_groups = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&n_groups));
  for (uint64_t g = 0; g < n_groups; ++g) {
    SharedStateBundle bundle;
    uint64_t n_tags = 0;
    uint64_t centroid_index = 0;
    RFID_RETURN_NOT_OK(r.GetVarint(&n_tags));
    RFID_RETURN_NOT_OK(r.GetVarint(&centroid_index));
    bundle.centroid_index = static_cast<size_t>(centroid_index);
    RFID_RETURN_NOT_OK(read_blob(&bundle.centroid_state));
    for (uint64_t i = 0; i < n_tags; ++i) {
      TagId tag;
      std::vector<uint8_t> diff;
      RFID_RETURN_NOT_OK(r.GetCompactTag(&tag));
      RFID_RETURN_NOT_OK(read_blob(&diff));
      bundle.tags.push_back(tag);
      bundle.diffs.push_back(std::move(diff));
    }
    if (bundle.centroid_index >= bundle.tags.size()) {
      return Status::Corruption("centroid index out of range");
    }
    RFID_ASSIGN_OR_RETURN(TagStateList group, UnshareStates(bundle));
    out->insert(out->end(), group.begin(), group.end());
  }
  if (out->size() != n) {
    return Status::Corruption("shared-state group count mismatch");
  }
  return Status::OK();
}

/// Audit-logs every alert `q` fired since index `from` (payload: query
/// index, tag, span, event count).
void AppendAlertAudit(SiteDurability* durability, int query_index,
                      const ExposureQuery& q, size_t from) {
  for (size_t i = from; i < q.alerts().size(); ++i) {
    const ExposureAlert& a = q.alerts()[i];
    BufferWriter w;
    w.PutU8(static_cast<uint8_t>(query_index));
    w.PutTagId(a.tag);
    w.PutSignedVarint(a.first_time);
    w.PutSignedVarint(a.last_time);
    w.PutVarint(static_cast<uint64_t>(a.n_events));
    RFID_CHECK_OK(durability->AppendAudit(AuditRecord::Kind::kAlert,
                                          a.last_time, w.Release()));
  }
}

}  // namespace

std::string ToString(MigrationMode mode) {
  switch (mode) {
    case MigrationMode::kNone:
      return "none";
    case MigrationMode::kCollapsed:
      return "collapsed";
    case MigrationMode::kFullReadings:
      return "full_readings";
  }
  return "unknown";
}

Site::Site(SiteId id, const ReadRateModel* model,
           const InterrogationSchedule* schedule, Network* network,
           SiteOptions options)
    : id_(id),
      network_(network),
      options_(std::move(options)),
      streaming_(model, schedule, options_.streaming) {
  if (options_.hierarchical) {
    pallet_streaming_ = std::make_unique<StreamingInference>(
        model, schedule, options_.streaming);
    pallet_streaming_->SetUniverseKinds(TagKind::kPallet, TagKind::kCase);
  }
}

Site::~Site() = default;

void Site::set_pool(SiteExecutor* pool) {
  streaming_.set_pool(pool);
  if (pallet_streaming_ != nullptr) pallet_streaming_->set_pool(pool);
}

void Site::AttachQueries(const ProductCatalog* catalog,
                         const ExposureQueryConfig& q1,
                         const ExposureQueryConfig& q2) {
  catalog_ = catalog;
  q1_ = std::make_unique<ExposureQuery>(catalog, q1);
  q2_ = std::make_unique<ExposureQuery>(catalog, q2);
}

void Site::AddSensor(const SensorReading& reading) {
  sensors_.push_back(reading);
}

void Site::ObserveBatch(const RawReading* readings, size_t n) {
  streaming_.ObserveBatch(readings, n);
  if (pallet_streaming_ == nullptr) return;
  size_t upper_count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!readings[i].tag.is_item()) ++upper_count;
  }
  // Item-only windows (the common case between door events) cost the
  // hierarchy nothing but the count scan; all-non-item batches (case-only
  // tracking) forward without a copy.
  if (upper_count == 0) return;
  if (upper_count == n) {
    pallet_streaming_->ObserveBatch(readings, n);
    return;
  }
  // Mixed batch: stage the non-item slice in the reused split buffer.
  split_rows_.resize(upper_count);
  // lint:hot-loop-begin(batch-split-rows)
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!readings[i].tag.is_item()) split_rows_[m++] = readings[i];
  }
  // lint:hot-loop-end
  pallet_streaming_->ObserveBatch(split_rows_.data(), m);
}

bool Site::HasArrivalsDue(Epoch now) const {
  for (const PendingArrival& p : pending_inference_) {
    if (p.arrive <= now) return true;
  }
  for (const PendingQueryState& p : pending_query_) {
    if (p.arrive <= now) return true;
  }
  return false;
}

int Site::AdvanceTo(Epoch now) {
  // One boundary at a time, both levels, so every run's events reach the
  // queries before the next run replaces the engine's results. Both levels
  // share the streaming options, hence the boundaries.
  int ran = 0;
  for (Epoch b = streaming_.next_run(); b <= now; b = streaming_.next_run()) {
    if (pallet_streaming_ != nullptr) pallet_streaming_->AdvanceTo(b);
    ran += streaming_.AdvanceTo(b);
    if (queries_attached()) {
      // Consecutive run windows overlap (a run re-reads recent history):
      // events at or before the previous boundary were already fed, and
      // the pattern automaton requires per-tag event time to be monotone.
      FeedQueries(streaming_.engine().EmitEvents(event_watermark_));
      event_watermark_ = b;
    }
  }
  return ran;
}

void Site::FeedQueries(const std::vector<ObjectEvent>& events) {
  const size_t q1_fired = q1_->alerts().size();
  const size_t q2_fired = q2_->alerts().size();
  // `events` is sorted by (time, tag), so item events reach the queries in
  // time order.
  for (const ObjectEvent& e : events) {
    if (!e.tag.is_item()) continue;
    // Temperature[Partition By sensor Rows 1]: each event joins with the
    // latest sample at or before its own epoch.
    while (sensor_cursor_ < sensors_.size() &&
           sensors_[sensor_cursor_].time <= e.time) {
      q1_->OnSensor(sensors_[sensor_cursor_]);
      q2_->OnSensor(sensors_[sensor_cursor_]);
      ++sensor_cursor_;
    }
    q1_->OnEvent(e);
    q2_->OnEvent(e);
  }
  if (durability_ != nullptr) {
    AppendAlertAudit(durability_, 0, *q1_, q1_fired);
    AppendAlertAudit(durability_, 1, *q2_, q2_fired);
  }
}

void Site::DeliverArrivals(Epoch now) {
  for (auto it = pending_inference_.begin(); it != pending_inference_.end();) {
    if (it->arrive <= now) {
      InstallInference(*it);
      it = pending_inference_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_query_.begin(); it != pending_query_.end();) {
    if (it->arrive <= now) {
      InstallQueryState(*it);
      it = pending_query_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

/// Installs one level's migrated states into the level's engine.
void InstallStates(StreamingInference& si,
                   const std::vector<ObjectMigrationState>& states) {
  for (const ObjectMigrationState& s : states) {
    ObjectContext ctx;
    ctx.critical_region = s.critical_region;
    ctx.barrier = s.barrier;
    ctx.prior_weights = s.weights;
    si.ImportObjectContext(s.object, ctx);
    // Queries can be answered before the first local run covers the object.
    si.SetImportedBelief(s.object, s.container);
    for (const RawReading& r : s.readings) {
      si.Observe(r);
    }
  }
}

}  // namespace

void Site::InstallInference(const PendingArrival& arrival) {
  InstallStates(streaming_, arrival.states);
  // Case→pallet states from a hierarchical sender are dropped when this
  // site does not run the second level (nothing could consume them).
  if (pallet_streaming_ != nullptr) {
    InstallStates(*pallet_streaming_, arrival.case_states);
  }
}

void Site::InstallQueryState(const PendingQueryState& pending) {
  if (!queries_attached()) return;
  for (const auto& [tag, bytes] : pending.q1_states) {
    RFID_CHECK_OK(q1_->ImportState(tag, bytes));
  }
  for (const auto& [tag, bytes] : pending.q2_states) {
    RFID_CHECK_OK(q2_->ImportState(tag, bytes));
  }
}

void Site::ExportTransfer(const ObjectTransfer& tr) {
  if (tr.to == kNoSite) {
    Retire(tr);
    return;
  }
  if (durability_ != nullptr) {
    // Movement audit record: where the group went and what it carried.
    BufferWriter w;
    w.PutSignedVarint(tr.to);
    w.PutSignedVarint(tr.depart);
    w.PutSignedVarint(tr.arrive);
    w.PutVarint(tr.items.size());
    for (TagId t : tr.items) w.PutTagId(t);
    w.PutVarint(tr.cases.size());
    for (TagId t : tr.cases) w.PutTagId(t);
    RFID_CHECK_OK(durability_->AppendAudit(AuditRecord::Kind::kMovement,
                                           tr.depart, w.Release()));
  }
  // A transfer with cases but no items (e.g. case-level-only tracking)
  // must still ship its case→pallet state when the hierarchy is on.
  const bool has_level_state =
      !tr.items.empty() ||
      (pallet_streaming_ != nullptr && !tr.cases.empty());
  if (options_.migration != MigrationMode::kNone && has_level_state) {
    // Spans the whole export -- state collect, envelope encode (deflate
    // inside), and the Send -- the serialization cost of a migration.
    obs::PhaseTimer span(telemetry_, obs::Phase::kMigrateEncode, tr.depart);
    // One level's departing state, from that level's engine: collapsed
    // weights + context always, plus the object's and its candidate
    // containers' retained readings under kFullReadings.
    auto collect = [&](StreamingInference& si,
                       const std::vector<TagId>& objects) {
      std::vector<ObjectMigrationState> states;
      states.reserve(objects.size());
      for (TagId object : objects) {
        ObjectMigrationState s;
        s.object = object;
        ObjectContext ctx = si.ExportObjectContext(object);
        s.weights = std::move(ctx.prior_weights);
        s.critical_region = ctx.critical_region;
        s.barrier = ctx.barrier;
        s.container = si.ContainerOf(object);
        if (options_.migration == MigrationMode::kFullReadings) {
          std::vector<TagId> tags;
          tags.push_back(object);
          for (TagId c : si.engine().CandidatesOf(object)) {
            tags.push_back(c);
          }
          s.readings = si.ExportReadings(tags, object);
        }
        states.push_back(std::move(s));
      }
      return states;
    };
    std::vector<ObjectMigrationState> states = collect(streaming_, tr.items);
    std::vector<ObjectMigrationState> case_states;
    if (pallet_streaming_ != nullptr) {
      case_states = collect(*pallet_streaming_, tr.cases);
    }
    network_->Send(id_, tr.to, MessageKind::kInferenceState,
                   EncodeInferenceEnvelope(tr.arrive, states, case_states));
  }
  if (queries_attached() && !tr.items.empty()) {
    TagStateList q1_states;
    TagStateList q2_states;
    std::unordered_map<TagId, TagId> believed;
    for (TagId item : tr.items) {
      believed[item] = streaming_.ContainerOf(item);
      std::vector<uint8_t> s1 = q1_->TakeState(item);
      if (s1 != DefaultPatternStateBytes()) {
        q1_states.emplace_back(item, std::move(s1));
      }
      std::vector<uint8_t> s2 = q2_->TakeState(item);
      if (s2 != DefaultPatternStateBytes()) {
        q2_states.emplace_back(item, std::move(s2));
      }
    }
    if (!q1_states.empty() || !q2_states.empty()) {
      network_->Send(id_, tr.to, MessageKind::kQueryState,
                     EncodeQueryEnvelope(tr.arrive, q1_states, q2_states,
                                         options_.share_query_state,
                                         believed));
    }
  }
}

TagId Site::BelievedPallet(TagId tag) const {
  if (pallet_streaming_ == nullptr) return kNoTag;
  if (tag.is_pallet()) return tag;
  if (tag.is_case()) return pallet_streaming_->ContainerOf(tag);
  // Items resolve transitively: item -> believed case -> believed pallet.
  const TagId c = streaming_.ContainerOf(tag);
  if (!c.valid() || !c.is_case()) return kNoTag;
  return pallet_streaming_->ContainerOf(c);
}

void Site::Retire(const ObjectTransfer& tr) {
  if (!queries_attached()) return;
  for (TagId item : tr.items) {
    q1_->TakeState(item);
    q2_->TakeState(item);
  }
}

void Site::HandleMessage(SiteId from, MessageKind kind,
                         const std::vector<uint8_t>& payload) {
  // Append-before-apply: a state-bearing frame reaches the WAL before its
  // payload can mutate site state, so recovery replays exactly what the
  // live site consumed. (No-op during recovery replay -- the record is
  // already on disk.) The batch is fsynced once per delivery drain.
  if (durability_ != nullptr && (kind == MessageKind::kInferenceState ||
                                 kind == MessageKind::kQueryState ||
                                 kind == MessageKind::kRawReadings)) {
    RFID_CHECK_OK(
        durability_->AppendFrame(from, kind, payload, network_->now()));
  }
  switch (kind) {
    case MessageKind::kInferenceState: {
      Result<PendingArrival> arrival = DecodeInferenceEnvelope(payload);
      RFID_CHECK_OK(arrival.status());
      arrival->from = from;
      pending_inference_.push_back(std::move(*arrival));
      break;
    }
    case MessageKind::kQueryState: {
      Result<PendingQueryState> pending = DecodeQueryEnvelope(payload);
      RFID_CHECK_OK(pending.status());
      pending_query_.push_back(std::move(*pending));
      break;
    }
    case MessageKind::kRawReadings: {
      // The centralized server ingests remote readings in one batch --
      // through ObserveBatch so the non-item slice also reaches the
      // pallet-level engine when the hierarchy is on. Identical to the
      // per-reading Observe loop: the history buffer re-sorts at Seal and
      // the batch split selects the same non-item subset in order.
      Result<std::vector<RawReading>> batch = DecodeReadingBatch(payload);
      RFID_CHECK_OK(batch.status());
      ObserveBatch(batch->data(), batch->size());
      break;
    }
    case MessageKind::kDirectory:
      // Directory shards are hosted at sites for the byte accounting, and
      // their frames ride the same transport (and delivery queues) as
      // state migration -- but the payloads are consumed in-process by
      // the Ons; the site itself only carries the charge.
      break;
    case MessageKind::kAck:
      // Acks are consumed by the Network's reliability layer inside
      // DeliverDue and never reach a handler; tolerate one defensively.
      break;
    case MessageKind::kCheckpoint:
      // Disk-only record kind: the durable checkpoint envelope reuses the
      // frame codec as its storage format (dist/durability.cc) but never
      // crosses the network; tolerate one defensively.
      break;
  }
}

// ---- Durable checkpoints ----

namespace {

constexpr uint8_t kCheckpointVersion = 1;

void PutBlob(BufferWriter& w, const std::vector<uint8_t>& bytes) {
  w.PutVarint(bytes.size());
  w.PutBytes(bytes.data(), bytes.size());
}

Status GetBlob(BufferReader& r, std::vector<uint8_t>* out) {
  uint64_t len = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&len));
  if (len > r.remaining()) {
    return Status::Corruption("truncated checkpoint blob");
  }
  out->resize(static_cast<size_t>(len));
  for (size_t i = 0; i < out->size(); ++i) {
    RFID_RETURN_NOT_OK(r.GetU8(&(*out)[i]));
  }
  return Status::OK();
}

/// One query's durable state: pattern automata (sorted by tag for
/// canonical bytes) plus the alerts it has fired.
void EncodeQueryState(BufferWriter& w, const ExposureQuery& q) {
  std::vector<TagId> tags = q.StatefulObjects();
  std::sort(tags.begin(), tags.end());
  w.PutVarint(tags.size());
  for (TagId tag : tags) {
    w.PutTagId(tag);
    PutBlob(w, q.ExportState(tag));
  }
  w.PutVarint(q.alerts().size());
  for (const ExposureAlert& a : q.alerts()) {
    w.PutTagId(a.tag);
    w.PutSignedVarint(a.first_time);
    w.PutSignedVarint(a.last_time);
    w.PutVarint(static_cast<uint64_t>(a.n_events));
  }
}

Status RestoreQueryState(BufferReader& r, ExposureQuery* q) {
  uint64_t n = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&n));
  for (uint64_t i = 0; i < n; ++i) {
    TagId tag;
    std::vector<uint8_t> bytes;
    RFID_RETURN_NOT_OK(r.GetTagId(&tag));
    RFID_RETURN_NOT_OK(GetBlob(r, &bytes));
    RFID_RETURN_NOT_OK(q->ImportState(tag, bytes));
  }
  uint64_t n_alerts = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&n_alerts));
  std::vector<ExposureAlert> alerts;
  alerts.reserve(static_cast<size_t>(n_alerts));
  for (uint64_t i = 0; i < n_alerts; ++i) {
    ExposureAlert a;
    uint64_t n_events = 0;
    RFID_RETURN_NOT_OK(r.GetTagId(&a.tag));
    RFID_RETURN_NOT_OK(r.GetSignedVarint(&a.first_time));
    RFID_RETURN_NOT_OK(r.GetSignedVarint(&a.last_time));
    RFID_RETURN_NOT_OK(r.GetVarint(&n_events));
    a.n_events = static_cast<int64_t>(n_events);
    alerts.push_back(a);
  }
  q->RestoreAlerts(alerts);
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> Site::EncodeCheckpoint(Epoch epoch) {
  BufferWriter w;
  w.PutU8(kCheckpointVersion);
  w.PutSignedVarint(id_);
  w.PutSignedVarint(epoch);
  w.PutU8(pallet_streaming_ != nullptr ? 1 : 0);
  streaming_.EncodeSnapshot(&w);
  if (pallet_streaming_ != nullptr) {
    pallet_streaming_->EncodeSnapshot(&w);
  }
  w.PutSignedVarint(event_watermark_);
  w.PutVarint(sensor_cursor_);
  // Pending arrivals (envelope arrival epoch > the cut). Their weights
  // came off the wire float-collapsed, so re-encoding through the
  // migration codec is lossless here.
  w.PutVarint(pending_inference_.size());
  for (const PendingArrival& p : pending_inference_) {
    w.PutSignedVarint(p.arrive);
    w.PutSignedVarint(p.from);
    PutBlob(w, EncodeMigrationStates(p.states));
    PutBlob(w, EncodeMigrationStates(p.case_states));
  }
  w.PutVarint(pending_query_.size());
  for (const PendingQueryState& p : pending_query_) {
    w.PutSignedVarint(p.arrive);
    for (const auto* states : {&p.q1_states, &p.q2_states}) {
      w.PutVarint(states->size());
      for (const auto& [tag, bytes] : *states) {
        w.PutTagId(tag);
        PutBlob(w, bytes);
      }
    }
  }
  w.PutU8(queries_attached() ? 1 : 0);
  if (queries_attached()) {
    EncodeQueryState(w, *q1_);
    EncodeQueryState(w, *q2_);
  }
  return w.Release();
}

Status Site::RestoreCheckpoint(Epoch epoch,
                               const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  uint8_t version = 0;
  RFID_RETURN_NOT_OK(r.GetU8(&version));
  if (version != kCheckpointVersion) {
    return Status::Corruption("unsupported checkpoint version");
  }
  int64_t site = 0, cut = 0;
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&site));
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&cut));
  if (site != id_ || cut != epoch) {
    return Status::Corruption("checkpoint identity mismatch");
  }
  uint8_t hierarchical = 0;
  RFID_RETURN_NOT_OK(r.GetU8(&hierarchical));
  if ((hierarchical != 0) != (pallet_streaming_ != nullptr)) {
    return Status::Corruption("checkpoint hierarchy mismatch");
  }
  RFID_RETURN_NOT_OK(streaming_.RestoreSnapshot(&r));
  if (pallet_streaming_ != nullptr) {
    RFID_RETURN_NOT_OK(pallet_streaming_->RestoreSnapshot(&r));
  }
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&event_watermark_));
  uint64_t cursor = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&cursor));
  if (cursor > sensors_.size()) {
    return Status::Corruption("sensor cursor past re-added stream");
  }
  uint64_t n = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&n));
  pending_inference_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    PendingArrival p;
    RFID_RETURN_NOT_OK(r.GetSignedVarint(&p.arrive));
    int64_t from = 0;
    RFID_RETURN_NOT_OK(r.GetSignedVarint(&from));
    p.from = static_cast<SiteId>(from);
    for (auto* batch : {&p.states, &p.case_states}) {
      std::vector<uint8_t> blob;
      RFID_RETURN_NOT_OK(GetBlob(r, &blob));
      RFID_ASSIGN_OR_RETURN(*batch, DecodeMigrationStates(blob));
    }
    pending_inference_.push_back(std::move(p));
  }
  RFID_RETURN_NOT_OK(r.GetVarint(&n));
  pending_query_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    PendingQueryState p;
    RFID_RETURN_NOT_OK(r.GetSignedVarint(&p.arrive));
    for (auto* states : {&p.q1_states, &p.q2_states}) {
      uint64_t m = 0;
      RFID_RETURN_NOT_OK(r.GetVarint(&m));
      for (uint64_t j = 0; j < m; ++j) {
        TagId tag;
        std::vector<uint8_t> blob;
        RFID_RETURN_NOT_OK(r.GetTagId(&tag));
        RFID_RETURN_NOT_OK(GetBlob(r, &blob));
        states->emplace_back(tag, std::move(blob));
      }
    }
    pending_query_.push_back(std::move(p));
  }
  uint8_t had_queries = 0;
  RFID_RETURN_NOT_OK(r.GetU8(&had_queries));
  if ((had_queries != 0) != queries_attached()) {
    return Status::Corruption("checkpoint query attachment mismatch");
  }
  if (queries_attached()) {
    // Re-feed the consumed sensor prefix first: each query's latest
    // temperature per location is a function of that prefix alone (a
    // sample changes nothing else), restoring the join state the pattern
    // imports below continue from.
    for (size_t i = 0; i < cursor; ++i) {
      q1_->OnSensor(sensors_[i]);
      q2_->OnSensor(sensors_[i]);
    }
    RFID_RETURN_NOT_OK(RestoreQueryState(r, q1_.get()));
    RFID_RETURN_NOT_OK(RestoreQueryState(r, q2_.get()));
  }
  sensor_cursor_ = static_cast<size_t>(cursor);
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after checkpoint");
  }
  return Status::OK();
}

// ---- Wire codecs ----

std::vector<uint8_t> EncodeInferenceEnvelope(
    Epoch arrive, const std::vector<ObjectMigrationState>& states,
    const std::vector<ObjectMigrationState>& case_states) {
  // Two length-prefixed level batches (item→case, then case→pallet) share
  // one deflate stream: the levels' states reference overlapping tags, so
  // compressing them together is strictly cheaper than two streams.
  BufferWriter inner;
  for (const auto* batch : {&states, &case_states}) {
    std::vector<uint8_t> encoded = EncodeMigrationStates(*batch);
    inner.PutVarint(encoded.size());
    inner.PutBytes(encoded.data(), encoded.size());
  }
  std::vector<uint8_t> compressed;
  RFID_CHECK_OK(
      Compress(inner.Release(), &compressed, kPayloadCompressLevel));
  BufferWriter w;
  w.PutVarint(static_cast<uint64_t>(arrive));
  w.PutBytes(compressed.data(), compressed.size());
  return w.Release();
}

Result<PendingArrival> DecodeInferenceEnvelope(
    const std::vector<uint8_t>& payload) {
  BufferReader r(payload);
  uint64_t arrive = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&arrive));
  // The deflate stream and each inner batch decode straight from their
  // slices -- no tail or per-batch copies.
  std::vector<uint8_t> raw;
  RFID_RETURN_NOT_OK(Decompress(payload.data() + r.position(),
                                payload.size() - r.position(), &raw));
  PendingArrival arrival;
  arrival.arrive = static_cast<Epoch>(arrive);
  BufferReader inner(raw);
  for (auto* batch : {&arrival.states, &arrival.case_states}) {
    uint64_t len = 0;
    RFID_RETURN_NOT_OK(inner.GetVarint(&len));
    if (len > inner.remaining()) {
      return Status::Corruption("truncated migration-state batch");
    }
    const uint8_t* slice = raw.data() + inner.position();
    RFID_RETURN_NOT_OK(inner.Skip(len));
    RFID_ASSIGN_OR_RETURN(*batch, DecodeMigrationStates(slice, len));
  }
  return arrival;
}

std::vector<uint8_t> EncodeQueryEnvelope(
    Epoch arrive, const TagStateList& q1_states,
    const TagStateList& q2_states, bool share,
    const std::unordered_map<TagId, TagId>& believed_container) {
  BufferWriter w;
  w.PutVarint(static_cast<uint64_t>(arrive));
  w.PutU8(share ? 1 : 0);
  EncodeStateBlock(w, q1_states,
                   share ? GroupByContainer(q1_states, believed_container)
                         : std::vector<TagStateList>{},
                   share);
  EncodeStateBlock(w, q2_states,
                   share ? GroupByContainer(q2_states, believed_container)
                         : std::vector<TagStateList>{},
                   share);
  return w.Release();
}

Result<PendingQueryState> DecodeQueryEnvelope(
    const std::vector<uint8_t>& payload) {
  BufferReader r(payload);
  uint64_t arrive = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&arrive));
  uint8_t share = 0;
  RFID_RETURN_NOT_OK(r.GetU8(&share));
  PendingQueryState pending;
  pending.arrive = static_cast<Epoch>(arrive);
  RFID_RETURN_NOT_OK(DecodeStateBlock(r, share != 0, &pending.q1_states));
  RFID_RETURN_NOT_OK(DecodeStateBlock(r, share != 0, &pending.q2_states));
  return pending;
}

std::vector<uint8_t> EncodeReadingBatch(const RawReading* batch, size_t n) {
  Trace trace;
  trace.Append(batch, n);
  trace.Seal();
  std::vector<uint8_t> compressed;
  RFID_CHECK_OK(
      Compress(EncodeTrace(trace), &compressed, kPayloadCompressLevel));
  return compressed;
}

Result<std::vector<RawReading>> DecodeReadingBatch(
    const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> raw;
  RFID_RETURN_NOT_OK(Decompress(payload, &raw));
  RFID_ASSIGN_OR_RETURN(Trace trace, DecodeTrace(raw));
  return trace.TakeReadings();
}

}  // namespace rfid
