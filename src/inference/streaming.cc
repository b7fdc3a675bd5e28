#include "inference/streaming.h"

#include <algorithm>

#include "common/merge_runs.h"
#include "common/stopwatch.h"
#include "trace/trace_io.h"

namespace rfid {

namespace {

/// Sliding-window length w of the critical-region search. Long enough to
/// cover an object's whole pass through a discriminative reader (door
/// dwell + belt transit).
constexpr Epoch kCriticalRegionWindow = 60;
/// Evidence-gap threshold of the critical-region search (heuristic). Must
/// sit above co-location evidence noise (a few log-units per window) yet
/// below the gap a belt-style isolated scan produces even at low read
/// rates (a 5-epoch belt pass at RR 0.6 yields a gap around 35-40).
constexpr double kCriticalRegionGapThreshold = 25.0;

}  // namespace

StreamingInference::StreamingInference(const ReadRateModel* model,
                                       const InterrogationSchedule* schedule,
                                       StreamingOptions options)
    : model_(model), schedule_(schedule), options_(options) {
  engine_ = std::make_unique<RFInfer>(model_, schedule_, options_.inference);
  next_run_ = options_.inference_period;
}

void StreamingInference::Observe(const RawReading& reading) {
  buffer_.Add(reading);
}

void StreamingInference::ObserveBatch(const RawReading* readings, size_t n) {
  buffer_.Append(readings, n);
}

int StreamingInference::AdvanceTo(Epoch now) {
  int ran = 0;
  while (next_run_ <= now) {
    RFID_CHECK_OK(RunNow(next_run_));
    next_run_ += options_.inference_period;
    ++ran;
  }
  return ran;
}

Status StreamingInference::RunNow(Epoch now) {
  buffer_.Seal();
  Epoch window_begin = 0;
  switch (options_.truncation) {
    case TruncationMethod::kAll:
      window_begin = 0;
      break;
    case TruncationMethod::kWindow:
      window_begin = std::max<Epoch>(0, now - options_.window_size + 1);
      break;
    case TruncationMethod::kCriticalRegion:
      window_begin = std::max<Epoch>(0, now - options_.recent_history + 1);
      break;
  }

  engine_->ClearObjectContexts();
  if (options_.truncation == TruncationMethod::kCriticalRegion) {
    for (const auto& [tag, ctx] : contexts_) {
      engine_->SetObjectContext(tag, ctx);
    }
  } else {
    // Barriers and priors still apply without CR truncation.
    for (const auto& [tag, ctx] : contexts_) {
      ObjectContext no_cr = ctx;
      no_cr.critical_region.reset();
      engine_->SetObjectContext(tag, no_cr);
    }
  }

  Stopwatch timer;
  RFID_RETURN_NOT_OK(engine_->Run(buffer_, window_begin, now));

  // One evidence scan per object feeds both change-point detection and
  // the critical-region search.
  std::optional<double> change_threshold;
  if (options_.detect_changes) change_threshold = options_.change_threshold;
  std::optional<CriticalRegionSearch> regions;
  if (options_.truncation == TruncationMethod::kCriticalRegion) {
    regions = CriticalRegionSearch{kCriticalRegionWindow,
                                   kCriticalRegionGapThreshold};
  }
  EvidenceFindings findings = engine_->ScanEvidence(change_threshold, regions);

  last_changes_ = std::move(findings.changes);
  if (options_.detect_changes) {
    for (const ChangePointResult& cp : last_changes_) {
      all_changes_.push_back(cp);
      ObjectContext& ctx = contexts_[cp.object];
      ctx.barrier = std::max(ctx.barrier, cp.time);
      // The critical region preceding the change no longer describes the
      // object's containment.
      if (ctx.critical_region.has_value() &&
          ctx.critical_region->end <= cp.time) {
        ctx.critical_region.reset();
      }
      change_overrides_[cp.object] = cp.new_container;
    }
    // An object whose assignment now matches its override has "caught up".
    for (auto it = change_overrides_.begin();
         it != change_overrides_.end();) {
      if (engine_->ContainerOf(it->first) == it->second) {
        it = change_overrides_.erase(it);
      } else {
        ++it;
      }
    }
  }

  for (const auto& [tag, cr] : findings.critical_regions) {
    ObjectContext& ctx = contexts_[tag];
    // Replace a stored region only when the new one's evidence gap is
    // comparable or better; co-location noise must not displace a
    // genuinely discriminative span.
    if (!ctx.critical_region.has_value() ||
        cr.gap >= 0.5 * ctx.critical_region_gap) {
      ctx.critical_region = cr.window;
      ctx.critical_region_gap = cr.gap;
    }
  }

  // Accumulate the location track: the monitoring system's view of "the
  // latest estimate at or before t" must survive across runs even though
  // each run only covers its own window.
  for (TagId c : engine_->container_tags()) {
    auto& track = location_track_[c];
    for (Epoch t = std::max(window_begin, last_run_at_ + 1); t <= now; ++t) {
      const LocationId loc = engine_->LocationOf(c, t);
      if (loc == kNoLocation) continue;
      // Store change points of the estimate only (sparse).
      if (track.empty() || track.back().reader != loc) {
        track.push_back(TagRead{t, loc});
      }
    }
  }

  // Local evidence supersedes beliefs imported with migrated state.
  for (auto it = imported_beliefs_.begin(); it != imported_beliefs_.end();) {
    if (engine_->ContainerOf(it->first).valid()) {
      it = imported_beliefs_.erase(it);
    } else {
      ++it;
    }
  }

  last_seconds_ = timer.ElapsedSeconds();
  total_seconds_ += last_seconds_;
  ++runs_;
  last_run_at_ = now;

  // Shrink the buffer to what the next run can possibly need.
  const Epoch next_now = now + options_.inference_period;
  switch (options_.truncation) {
    case TruncationMethod::kAll:
      break;  // keep everything
    case TruncationMethod::kWindow:
      CompactBuffer(std::max<Epoch>(0, next_now - options_.window_size + 1));
      break;
    case TruncationMethod::kCriticalRegion:
      CompactBuffer(
          std::max<Epoch>(0, next_now - options_.recent_history + 1));
      break;
  }
  return Status::OK();
}

void StreamingInference::CompactBuffer(Epoch next_window_begin) {
  // An object whose newest reading is older than the next run's window has
  // left the site: forget its context, change override and imported
  // belief, so nothing below keeps readings for it and it drops out of the
  // next run's universe. A context without any buffered reading (an
  // imported object before its first local read) stays.
  for (auto it = contexts_.begin(); it != contexts_.end();) {
    const TagReadSpan history = buffer_.HistoryOf(it->first);
    if (!history.empty() && history.back().time < next_window_begin) {
      change_overrides_.erase(it->first);
      imported_beliefs_.erase(it->first);
      it = contexts_.erase(it);
    } else {
      ++it;
    }
  }
  // Keep recent readings, plus -- per tag -- readings inside the tag's own
  // critical region (objects) or inside the critical region of an object
  // that lists the tag as a candidate container. "Readings of the object
  // and its possible containers outside the critical region will be all
  // ignored" (Section 4.1).
  std::unordered_map<TagId, std::vector<EpochInterval>> keep;
  for (const auto& [tag, ctx] : contexts_) {
    if (!ctx.critical_region.has_value()) continue;
    keep[tag].push_back(*ctx.critical_region);
    for (TagId container : engine_->CandidatesOf(tag)) {
      keep[container].push_back(*ctx.critical_region);
    }
  }
  // In place so the buffer keeps its capacity; the trace is resealed (and
  // the index rebuilt) at the next run.
  buffer_.RetainIf([&](const RawReading& r) {
    if (r.time >= next_window_begin) return true;
    auto it = keep.find(r.tag);
    if (it == keep.end()) return false;
    for (const EpochInterval& iv : it->second) {
      if (iv.Contains(r.time)) return true;
    }
    return false;
  });
}

TagId StreamingInference::ContainerOf(TagId object) const {
  auto it = change_overrides_.find(object);
  if (it != change_overrides_.end()) return it->second;
  TagId local = engine_->ContainerOf(object);
  if (local.valid()) return local;
  auto imported = imported_beliefs_.find(object);
  return imported == imported_beliefs_.end() ? kNoTag : imported->second;
}

void StreamingInference::SetImportedBelief(TagId object, TagId container) {
  if (container.valid()) imported_beliefs_[object] = container;
}

LocationId StreamingInference::LocationOf(TagId tag, Epoch t) const {
  auto it = location_track_.find(tag);
  if (it == location_track_.end()) {
    // Objects inherit their container's track.
    TagId container = ContainerOf(tag);
    if (container.valid() && container != tag) {
      return LocationOf(container, t);
    }
    return engine_->LocationOf(tag, t);
  }
  const auto& track = it->second;
  auto pos = std::upper_bound(
      track.begin(), track.end(), t,
      [](Epoch t_, const TagRead& tr) { return t_ < tr.time; });
  if (pos == track.begin()) return kNoLocation;
  return (pos - 1)->reader;
}

void StreamingInference::ImportObjectContext(TagId object,
                                             ObjectContext context) {
  ObjectContext& ctx = contexts_[object];
  ctx.barrier = std::max(ctx.barrier, context.barrier);
  if (context.critical_region.has_value()) {
    ctx.critical_region = context.critical_region;
  }
  // Imported collapsed weights add to any existing priors: "the inference
  // algorithm at a new location simply adds the old transferred weights to
  // the new weights" (Section 4.1).
  for (const auto& [tag, w] : context.prior_weights) {
    bool merged = false;
    for (auto& [etag, ew] : ctx.prior_weights) {
      if (etag == tag) {
        ew += w;
        merged = true;
        break;
      }
    }
    if (!merged) ctx.prior_weights.emplace_back(tag, w);
  }
}

ObjectContext StreamingInference::ExportObjectContext(TagId object) const {
  ObjectContext ctx;
  auto it = contexts_.find(object);
  if (it != contexts_.end()) ctx = it->second;
  if (runs_ > 0) {
    auto weights = engine_->ExportWeights(object);
    if (!weights.empty()) ctx.prior_weights = std::move(weights);
  }
  return ctx;
}

std::vector<RawReading> StreamingInference::ExportReadings(
    const std::vector<TagId>& tags, TagId object) {
  if (!buffer_.sealed()) buffer_.Seal();
  std::vector<EpochInterval> regions;
  auto it = contexts_.find(object);
  if (it != contexts_.end() && it->second.critical_region.has_value()) {
    regions.push_back(*it->second.critical_region);
  }
  if (last_run_at_ >= 0) {
    regions.push_back(EpochInterval{
        std::max<Epoch>(0, last_run_at_ - options_.recent_history + 1),
        last_run_at_});
  }
  // Each tag's history is sorted by (time, reader), so the per-tag runs
  // are merged into RawReadingOrder rather than sorted.
  std::vector<RawReading> out;
  std::vector<size_t> ends;
  ends.reserve(tags.size());
  for (TagId tag : tags) {
    for (const TagRead& tr : buffer_.HistoryOf(tag)) {
      for (const EpochInterval& iv : regions) {
        if (iv.Contains(tr.time)) {
          out.push_back(RawReading{tr.time, tag, tr.reader});
          break;
        }
      }
    }
    ends.push_back(out.size());
  }
  std::vector<RawReading> tmp;
  MergeRuns(&out, &ends, &tmp, RawReadingOrder{});
  return out;
}

namespace {

// Snapshot framing version; bump on layout changes so a stale checkpoint
// fails loudly instead of decoding garbage.
constexpr uint8_t kSnapshotVersion = 1;

template <typename Map>
std::vector<TagId> SortedKeys(const Map& map) {
  std::vector<TagId> keys;
  keys.reserve(map.size());
  // lint:allow(unordered-iter): keys are collected then sorted; the
  // serialized order is canonical regardless of map iteration order.
  for (const auto& [tag, value] : map) keys.push_back(tag);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void PutChanges(BufferWriter* w, const std::vector<ChangePointResult>& cps) {
  w->PutVarint(cps.size());
  for (const ChangePointResult& cp : cps) {
    w->PutTagId(cp.object);
    w->PutSignedVarint(cp.time);
    w->PutTagId(cp.old_container);
    w->PutTagId(cp.new_container);
    w->PutDouble(cp.delta);
  }
}

Status GetChanges(BufferReader* r, std::vector<ChangePointResult>* out) {
  uint64_t n = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&n));
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    ChangePointResult cp;
    RFID_RETURN_NOT_OK(r->GetTagId(&cp.object));
    RFID_RETURN_NOT_OK(r->GetSignedVarint(&cp.time));
    RFID_RETURN_NOT_OK(r->GetTagId(&cp.old_container));
    RFID_RETURN_NOT_OK(r->GetTagId(&cp.new_container));
    RFID_RETURN_NOT_OK(r->GetDouble(&cp.delta));
    out->push_back(cp);
  }
  return Status::OK();
}

}  // namespace

void StreamingInference::EncodeSnapshot(BufferWriter* w) {
  w->PutU8(kSnapshotVersion);

  // Retained history buffer (the migration codec's shared delta layout).
  if (!buffer_.sealed()) buffer_.Seal();
  const auto& readings = buffer_.readings();
  w->PutVarint(readings.size());
  Epoch prev_time = 0;
  uint64_t prev_tag = 0;
  for (const RawReading& r : readings) {
    PutDeltaReading(*w, r, prev_time, prev_tag);
  }

  // Run cursor.
  w->PutSignedVarint(next_run_);
  w->PutSignedVarint(last_run_at_);
  w->PutVarint(static_cast<uint64_t>(runs_));

  // Per-object contexts, at full double precision (the migration envelope
  // collapses weights to float and drops critical_region_gap; checkpoints
  // must restore the exact local state).
  const std::vector<TagId> ctx_keys = SortedKeys(contexts_);
  w->PutVarint(ctx_keys.size());
  for (TagId tag : ctx_keys) {
    const ObjectContext& ctx = contexts_.at(tag);
    w->PutTagId(tag);
    w->PutU8(ctx.critical_region.has_value() ? 1 : 0);
    if (ctx.critical_region.has_value()) {
      w->PutSignedVarint(ctx.critical_region->begin);
      w->PutSignedVarint(ctx.critical_region->end);
    }
    w->PutDouble(ctx.critical_region_gap);
    w->PutSignedVarint(ctx.barrier);
    w->PutVarint(ctx.prior_weights.size());
    for (const auto& [ctag, weight] : ctx.prior_weights) {
      w->PutTagId(ctag);
      w->PutDouble(weight);
    }
  }

  for (const auto* map : {&change_overrides_, &imported_beliefs_}) {
    const std::vector<TagId> keys = SortedKeys(*map);
    w->PutVarint(keys.size());
    for (TagId tag : keys) {
      w->PutTagId(tag);
      w->PutTagId(map->at(tag));
    }
  }

  PutChanges(w, last_changes_);
  PutChanges(w, all_changes_);

  const std::vector<TagId> track_keys = SortedKeys(location_track_);
  w->PutVarint(track_keys.size());
  for (TagId tag : track_keys) {
    const std::vector<TagRead>& track = location_track_.at(tag);
    w->PutTagId(tag);
    w->PutVarint(track.size());
    for (const TagRead& tr : track) {
      w->PutSignedVarint(tr.time);
      w->PutVarint(static_cast<uint64_t>(tr.reader));
    }
  }

  // Last-run containment results of the engine: universe, candidate
  // weights, assignment.
  w->PutVarint(engine_->container_tags().size());
  for (TagId c : engine_->container_tags()) w->PutTagId(c);
  w->PutVarint(engine_->object_tags().size());
  for (TagId o : engine_->object_tags()) {
    w->PutTagId(o);
    const auto weights = engine_->ExportWeights(o);
    w->PutVarint(weights.size());
    for (const auto& [ctag, weight] : weights) {
      w->PutTagId(ctag);
      w->PutDouble(weight);
    }
    w->PutTagId(engine_->ContainerOf(o));
  }
}

Status StreamingInference::RestoreSnapshot(BufferReader* r) {
  uint8_t version = 0;
  RFID_RETURN_NOT_OK(r->GetU8(&version));
  if (version != kSnapshotVersion) {
    return Status::Corruption("unsupported streaming snapshot version");
  }

  uint64_t n_readings = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&n_readings));
  Epoch prev_time = 0;
  uint64_t prev_tag = 0;
  for (uint64_t i = 0; i < n_readings; ++i) {
    RawReading reading;
    RFID_RETURN_NOT_OK(GetDeltaReading(*r, &reading, prev_time, prev_tag));
    buffer_.Add(reading);
  }

  RFID_RETURN_NOT_OK(r->GetSignedVarint(&next_run_));
  RFID_RETURN_NOT_OK(r->GetSignedVarint(&last_run_at_));
  uint64_t runs = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&runs));
  runs_ = static_cast<int>(runs);

  uint64_t n_contexts = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&n_contexts));
  contexts_.clear();
  for (uint64_t i = 0; i < n_contexts; ++i) {
    TagId tag;
    RFID_RETURN_NOT_OK(r->GetTagId(&tag));
    ObjectContext ctx;
    uint8_t has_cr = 0;
    RFID_RETURN_NOT_OK(r->GetU8(&has_cr));
    if (has_cr != 0) {
      EpochInterval cr;
      RFID_RETURN_NOT_OK(r->GetSignedVarint(&cr.begin));
      RFID_RETURN_NOT_OK(r->GetSignedVarint(&cr.end));
      ctx.critical_region = cr;
    }
    RFID_RETURN_NOT_OK(r->GetDouble(&ctx.critical_region_gap));
    RFID_RETURN_NOT_OK(r->GetSignedVarint(&ctx.barrier));
    uint64_t n_weights = 0;
    RFID_RETURN_NOT_OK(r->GetVarint(&n_weights));
    for (uint64_t j = 0; j < n_weights; ++j) {
      TagId ctag;
      double weight = 0.0;
      RFID_RETURN_NOT_OK(r->GetTagId(&ctag));
      RFID_RETURN_NOT_OK(r->GetDouble(&weight));
      ctx.prior_weights.emplace_back(ctag, weight);
    }
    contexts_[tag] = std::move(ctx);
  }

  for (auto* map : {&change_overrides_, &imported_beliefs_}) {
    uint64_t n = 0;
    RFID_RETURN_NOT_OK(r->GetVarint(&n));
    map->clear();
    for (uint64_t i = 0; i < n; ++i) {
      TagId object;
      TagId container;
      RFID_RETURN_NOT_OK(r->GetTagId(&object));
      RFID_RETURN_NOT_OK(r->GetTagId(&container));
      (*map)[object] = container;
    }
  }

  RFID_RETURN_NOT_OK(GetChanges(r, &last_changes_));
  RFID_RETURN_NOT_OK(GetChanges(r, &all_changes_));

  uint64_t n_tracks = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&n_tracks));
  location_track_.clear();
  for (uint64_t i = 0; i < n_tracks; ++i) {
    TagId tag;
    RFID_RETURN_NOT_OK(r->GetTagId(&tag));
    uint64_t n = 0;
    RFID_RETURN_NOT_OK(r->GetVarint(&n));
    std::vector<TagRead>& track = location_track_[tag];
    for (uint64_t j = 0; j < n; ++j) {
      TagRead tr;
      RFID_RETURN_NOT_OK(r->GetSignedVarint(&tr.time));
      uint64_t reader = 0;
      RFID_RETURN_NOT_OK(r->GetVarint(&reader));
      tr.reader = static_cast<LocationId>(reader);
      track.push_back(tr);
    }
  }

  uint64_t n_containers = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&n_containers));
  std::vector<TagId> container_tags;
  for (uint64_t i = 0; i < n_containers; ++i) {
    TagId tag;
    RFID_RETURN_NOT_OK(r->GetTagId(&tag));
    container_tags.push_back(tag);
  }
  uint64_t n_objects = 0;
  RFID_RETURN_NOT_OK(r->GetVarint(&n_objects));
  std::vector<RFInfer::RestoredObjectResult> objects;
  for (uint64_t i = 0; i < n_objects; ++i) {
    RFInfer::RestoredObjectResult ro;
    RFID_RETURN_NOT_OK(r->GetTagId(&ro.tag));
    uint64_t n_weights = 0;
    RFID_RETURN_NOT_OK(r->GetVarint(&n_weights));
    for (uint64_t j = 0; j < n_weights; ++j) {
      TagId ctag;
      double weight = 0.0;
      RFID_RETURN_NOT_OK(r->GetTagId(&ctag));
      RFID_RETURN_NOT_OK(r->GetDouble(&weight));
      ro.weights.emplace_back(ctag, weight);
    }
    RFID_RETURN_NOT_OK(r->GetTagId(&ro.assigned));
    objects.push_back(std::move(ro));
  }
  engine_->RestoreResults(std::move(container_tags), objects);
  return Status::OK();
}

}  // namespace rfid
