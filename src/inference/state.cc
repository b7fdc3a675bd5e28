#include "inference/state.h"

#include <cmath>

#include "common/serde.h"
#include "trace/trace_io.h"

namespace rfid {

namespace {
constexpr uint32_t kBatchMagic = 0x52464d42;  // "RFMB"
}  // namespace

std::vector<uint8_t> EncodeMigrationBatch(const MigrationBatch& batch) {
  BufferWriter w;
  w.PutU32(kBatchMagic);
  w.PutVarint(batch.states.size());
  for (const ObjectMigrationState& s : batch.states) {
    w.PutCompactTag(s.object);
    w.PutCompactTag(s.container);
    w.PutSignedVarint(s.barrier);
    w.PutU8(s.critical_region.has_value() ? 1 : 0);
    if (s.critical_region.has_value()) {
      w.PutSignedVarint(s.critical_region->begin);
      w.PutSignedVarint(s.critical_region->end);
    }
    // "Collapse the inference state to a single number for each
    // container-object pair": float resolution is ample for weights whose
    // argmax decides containment.
    w.PutVarint(s.weights.size());
    for (const auto& [tag, weight] : s.weights) {
      w.PutCompactTag(tag);
      w.PutFloat(static_cast<float>(weight));
    }
  }
  w.PutVarint(batch.readings.size());
  Epoch prev_time = 0;
  uint64_t prev_tag = 0;
  for (const RawReading& r : batch.readings) {
    PutDeltaReading(w, r, prev_time, prev_tag);
  }
  return w.Release();
}

Result<MigrationBatch> DecodeMigrationBatch(const uint8_t* data,
                                            size_t size) {
  BufferReader reader(data, size);
  uint32_t magic;
  RFID_RETURN_NOT_OK(reader.GetU32(&magic));
  if (magic != kBatchMagic) {
    return Status::Corruption("bad migration-batch magic");
  }
  uint64_t count;
  RFID_RETURN_NOT_OK(reader.GetVarint(&count));
  MigrationBatch batch;
  // Counts are untrusted wire data: a corrupt payload must surface as a
  // Status below, not as a length_error/bad_alloc from reserve.
  for (uint64_t i = 0; i < count; ++i) {
    ObjectMigrationState s;
    RFID_RETURN_NOT_OK(reader.GetCompactTag(&s.object));
    RFID_RETURN_NOT_OK(reader.GetCompactTag(&s.container));
    RFID_RETURN_NOT_OK(reader.GetSignedVarint(&s.barrier));
    uint8_t has_cr = 0;
    RFID_RETURN_NOT_OK(reader.GetU8(&has_cr));
    if (has_cr > 1) return Status::Corruption("bad critical-region flag");
    if (has_cr != 0) {
      EpochInterval cr;
      RFID_RETURN_NOT_OK(reader.GetSignedVarint(&cr.begin));
      RFID_RETURN_NOT_OK(reader.GetSignedVarint(&cr.end));
      s.critical_region = cr;
    }
    uint64_t n_weights = 0;
    RFID_RETURN_NOT_OK(reader.GetVarint(&n_weights));
    for (uint64_t k = 0; k < n_weights; ++k) {
      TagId tag;
      float weight = 0;
      RFID_RETURN_NOT_OK(reader.GetCompactTag(&tag));
      RFID_RETURN_NOT_OK(reader.GetFloat(&weight));
      if (std::isnan(weight)) return Status::Corruption("NaN weight");
      s.weights.emplace_back(tag, static_cast<double>(weight));
    }
    batch.states.push_back(std::move(s));
  }
  uint64_t n_readings;
  RFID_RETURN_NOT_OK(reader.GetVarint(&n_readings));
  Epoch prev_time = 0;
  uint64_t prev_tag = 0;
  const RawReadingOrder less;
  for (uint64_t k = 0; k < n_readings; ++k) {
    RawReading r;
    RFID_RETURN_NOT_OK(GetDeltaReading(reader, &r, prev_time, prev_tag));
    if (r.time < 0 ||
        (!batch.readings.empty() && !less(batch.readings.back(), r))) {
      return Status::Corruption("migration readings out of order");
    }
    batch.readings.push_back(r);
  }
  if (!reader.exhausted()) {
    return Status::Corruption("trailing bytes after migration batch");
  }
  return batch;
}

}  // namespace rfid
