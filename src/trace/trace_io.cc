#include "trace/trace_io.h"

#include <limits>

#include "common/serde.h"

namespace rfid {

namespace {
constexpr uint32_t kTraceMagic = 0x52464454;  // "RFDT"
}  // namespace

void PutDeltaReading(BufferWriter& w, const RawReading& r, Epoch& prev_time,
                     uint64_t& prev_tag) {
  w.PutSignedVarint(r.time - prev_time);
  w.PutVarint(static_cast<uint64_t>(r.reader));
  // Tag deltas wrap in uint64 space (see the header comment).
  w.PutSignedVarint(static_cast<int64_t>(r.tag.raw() - prev_tag));
  prev_time = r.time;
  prev_tag = r.tag.raw();
}

Status GetDeltaReading(BufferReader& r, RawReading* out, Epoch& prev_time,
                       uint64_t& prev_tag) {
  int64_t dt = 0;
  int64_t dtag = 0;
  uint64_t rd = 0;
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&dt));
  RFID_RETURN_NOT_OK(r.GetVarint(&rd));
  RFID_RETURN_NOT_OK(r.GetSignedVarint(&dtag));
  if (rd > static_cast<uint64_t>(std::numeric_limits<LocationId>::max())) {
    return Status::Corruption("reader id out of range");
  }
  // Both deltas are untrusted wire data: accumulate in uint64 space so a
  // corrupt payload yields a garbage value (caught by callers or harmless),
  // never signed-overflow UB.
  prev_time = static_cast<Epoch>(static_cast<uint64_t>(prev_time) +
                                 static_cast<uint64_t>(dt));
  prev_tag += static_cast<uint64_t>(dtag);
  *out = RawReading{prev_time, TagId::FromRaw(prev_tag),
                    static_cast<LocationId>(rd)};
  return Status::OK();
}

std::vector<uint8_t> EncodeTrace(const Trace& trace) {
  BufferWriter w;
  w.PutU32(kTraceMagic);
  w.PutVarint(trace.size());
  Epoch prev_time = 0;
  uint64_t prev_tag = 0;
  for (const RawReading& r : trace.readings()) {
    PutDeltaReading(w, r, prev_time, prev_tag);
  }
  return w.Release();
}

Result<Trace> DecodeTrace(const std::vector<uint8_t>& bytes) {
  BufferReader reader(bytes);
  uint32_t magic;
  RFID_RETURN_NOT_OK(reader.GetU32(&magic));
  if (magic != kTraceMagic) {
    return Status::Corruption("bad trace magic");
  }
  uint64_t count;
  RFID_RETURN_NOT_OK(reader.GetVarint(&count));
  Trace trace;
  Epoch prev_time = 0;
  uint64_t prev_tag = 0;
  for (uint64_t i = 0; i < count; ++i) {
    RawReading r;
    RFID_RETURN_NOT_OK(GetDeltaReading(reader, &r, prev_time, prev_tag));
    trace.Add(r);
  }
  trace.Seal();
  return trace;
}

}  // namespace rfid
