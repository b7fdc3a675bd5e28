// Trace codec: a compact binary format (delta-encoded varints). It is what
// the centralized baseline ships over the network before gzip (Table 5).
#ifndef RFID_TRACE_TRACE_IO_H_
#define RFID_TRACE_TRACE_IO_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "trace/trace.h"

namespace rfid {

/// One reading of a delta stream: signed-varint time delta, varint reader,
/// signed-varint tag-raw delta (wrapping in uint64 space -- raw ids carry
/// the packaging kind in the top bits, so cross-kind deltas can exceed the
/// int64 range). Shared by the trace codec and the migration-state codec
/// (inference/state.cc); `prev_time`/`prev_tag` thread the delta context.
class BufferWriter;
class BufferReader;
void PutDeltaReading(BufferWriter& w, const RawReading& r, Epoch& prev_time,
                     uint64_t& prev_tag);
Status GetDeltaReading(BufferReader& r, RawReading* out, Epoch& prev_time,
                       uint64_t& prev_tag);

/// Serializes a sealed trace. Encoding: magic, count, then per reading
/// delta-varint time, varint reader, varint tag-raw delta (zigzag).
std::vector<uint8_t> EncodeTrace(const Trace& trace);

/// Parses bytes produced by EncodeTrace.
Result<Trace> DecodeTrace(const std::vector<uint8_t>& bytes);

}  // namespace rfid

#endif  // RFID_TRACE_TRACE_IO_H_
