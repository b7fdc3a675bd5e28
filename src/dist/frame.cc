#include "dist/frame.h"

#include <zlib.h>

#include <cstring>

namespace rfid {

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

uint32_t Crc32Of(const uint8_t* data, size_t size) {
  return static_cast<uint32_t>(
      crc32(crc32(0L, Z_NULL, 0), data, static_cast<uInt>(size)));
}

}  // namespace

std::string ToString(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRawReadings:
      return "raw_readings";
    case MessageKind::kInferenceState:
      return "inference_state";
    case MessageKind::kQueryState:
      return "query_state";
    case MessageKind::kDirectory:
      return "directory";
    case MessageKind::kAck:
      return "ack";
    case MessageKind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->reserve(start + FrameWireSize(frame.payload.size()));
  PutU32(out, kFrameMagic);
  out->push_back(kFrameVersion);
  out->push_back(static_cast<uint8_t>(frame.kind));
  PutU32(out, static_cast<uint32_t>(frame.from));
  PutU32(out, static_cast<uint32_t>(frame.to));
  PutU64(out, static_cast<uint64_t>(frame.send_epoch));
  PutU64(out, frame.seq);
  PutU64(out, frame.link_seq);
  PutU32(out, static_cast<uint32_t>(frame.payload.size()));
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
  PutU32(out, Crc32Of(out->data() + start, out->size() - start));
}

std::vector<uint8_t> EncodeFrameToBytes(const Frame& frame) {
  std::vector<uint8_t> out;
  EncodeFrame(frame, &out);
  return out;
}

Status DecodeFrameView(const uint8_t* data, size_t size, FrameView* out,
                       size_t* consumed) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) {
    return Status::ResourceExhausted("frame header incomplete");
  }
  if (ReadU32(data) != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  if (data[4] != kFrameVersion) {
    return Status::Corruption("unsupported frame version");
  }
  const uint32_t payload_len = ReadU32(data + 38);
  if (payload_len > kMaxFramePayloadBytes) {
    return Status::Corruption("frame payload length implausible");
  }
  const size_t wire = FrameWireSize(payload_len);
  if (size < wire) {
    return Status::ResourceExhausted("frame body incomplete");
  }
  // CRC before the kind check: a checksum failure (including a flipped
  // kind byte) is in-frame corruption with a trustworthy length, so the
  // caller can skip the frame and resynchronize -- signalled by
  // *consumed = wire size.
  const uint32_t stored_crc = ReadU32(data + kFrameHeaderBytes + payload_len);
  const uint32_t actual_crc =
      Crc32Of(data, kFrameHeaderBytes + payload_len);
  if (stored_crc != actual_crc) {
    *consumed = wire;
    return Status::Corruption("frame checksum mismatch");
  }
  if (data[5] >= static_cast<uint8_t>(kNumMessageKinds)) {
    *consumed = wire;
    return Status::Corruption("unknown message kind");
  }
  out->kind = static_cast<MessageKind>(data[5]);
  out->from = static_cast<SiteId>(ReadU32(data + 6));
  out->to = static_cast<SiteId>(ReadU32(data + 10));
  out->send_epoch = static_cast<Epoch>(ReadU64(data + 14));
  out->seq = ReadU64(data + 22);
  out->link_seq = ReadU64(data + 30);
  out->payload = data + kFrameHeaderBytes;
  out->payload_len = payload_len;
  *consumed = wire;
  return Status::OK();
}

Status DecodeFrame(const uint8_t* data, size_t size, Frame* out,
                   size_t* consumed) {
  FrameView view;
  RFID_RETURN_NOT_OK(DecodeFrameView(data, size, &view, consumed));
  *out = view.ToFrame();
  return Status::OK();
}

}  // namespace rfid
