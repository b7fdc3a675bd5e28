#include "query/queries.h"

#include <algorithm>

#include "common/serde.h"

namespace rfid {

std::vector<uint8_t> PatternState::Encode() const {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(phase));
  w.PutSignedVarint(first_time);
  w.PutSignedVarint(last_time);
  w.PutVarint(value_log.size());
  Epoch prev = 0;
  for (const auto& [t, v] : value_log) {
    w.PutSignedVarint(t - prev);
    w.PutDouble(v);
    prev = t;
  }
  return w.Release();
}

Result<PatternState> PatternState::Decode(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  PatternState s;
  uint8_t phase = 0;
  RFID_RETURN_NOT_OK(r.GetU8(&phase));
  if (phase > static_cast<uint8_t>(RunPhase::kAlerted)) {
    return Status::Corruption("bad pattern phase");
  }
  s.phase = static_cast<RunPhase>(phase);
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&s.first_time));
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&s.last_time));
  uint64_t n = 0;
  RFID_RETURN_NOT_OK(r.GetVarint(&n));
  Epoch prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    int64_t dt = 0;
    double v = 0;
    RFID_RETURN_NOT_OK(r.GetSignedVarint(&dt));
    RFID_RETURN_NOT_OK(r.GetDouble(&v));
    prev += dt;
    s.value_log.emplace_back(prev, v);
  }
  return s;
}

ExposureQuery::ExposureQuery(const ProductCatalog* catalog,
                             ExposureQueryConfig config)
    : catalog_(catalog), config_(config) {}

void ExposureQuery::OnEvent(const ObjectEvent& event) {
  // Inner block: frozen products whose container fails the freezer test
  // (or is NULL) -- or every frozen product for Q2...
  const ProductInfo* info = catalog_->FindProduct(event.tag);
  if (info == nullptr || !info->frozen) return;
  if (config_.check_container && event.container.valid() &&
      catalog_->IsA(event.container, ContainerClass::kFreezer)) {
    return;
  }
  // ...joined with the latest sample at their location, "T.temp >
  // threshold" (written so a NaN sample fails it).
  auto sample = latest_temp_.find(event.loc);
  if (sample == latest_temp_.end()) return;
  const double temp = sample->second;
  if (!(temp > config_.temp_threshold)) return;

  // Outer block: advance the tag's SEQ(A+) run.
  PatternState& s = runs_[event.tag];
  if (s.phase != RunPhase::kIdle &&
      event.time - s.last_time > config_.max_gap) {
    s = PatternState{};  // the event stream went quiet: the run lapsed
  }
  if (s.phase == RunPhase::kIdle) {
    s.phase = RunPhase::kAccumulating;
    s.first_time = event.time;
    s.value_log.clear();
  }
  s.last_time = event.time;
  s.value_log.emplace_back(event.time, temp);
  if (s.phase == RunPhase::kAccumulating &&
      s.last_time > s.first_time + config_.duration) {
    alerts_.push_back(ExposureAlert{event.tag, s.first_time, s.last_time,
                                    static_cast<int64_t>(s.value_log.size())});
    s.phase = RunPhase::kAlerted;  // fire once per run
  }
}

void ExposureQuery::OnSensor(const SensorReading& reading) {
  latest_temp_[reading.loc] = reading.value;
}

std::vector<uint8_t> ExposureQuery::ExportState(TagId tag) const {
  auto it = runs_.find(tag);
  return it == runs_.end() ? PatternState{}.Encode() : it->second.Encode();
}

Status ExposureQuery::ImportState(TagId tag,
                                  const std::vector<uint8_t>& bytes) {
  RFID_ASSIGN_OR_RETURN(runs_[tag], PatternState::Decode(bytes));
  return Status::OK();
}

std::vector<uint8_t> ExposureQuery::TakeState(TagId tag) {
  auto it = runs_.find(tag);
  if (it == runs_.end()) return PatternState{}.Encode();
  std::vector<uint8_t> bytes = it->second.Encode();
  runs_.erase(it);
  return bytes;
}

std::vector<TagId> ExposureQuery::StatefulObjects() const {
  std::vector<TagId> tags;
  tags.reserve(runs_.size());
  for (const auto& [tag, unused] : runs_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  return tags;
}

}  // namespace rfid
