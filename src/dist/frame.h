// Framed wire protocol for inter-site messages (Section 5.2's real
// message-passing deployment): every payload the sites or the ONS exchange
// travels inside one self-describing frame, whether the transport is the
// in-process fabric or a real socket.
//
// Frame layout (little-endian, fixed-width header so the wire size of a
// message depends only on its payload length -- the property that makes
// byte accounting backend-invariant):
//
//   offset  size  field
//   0       4     magic      0x44494652 ("RFID")
//   4       1     version    kFrameVersion
//   5       1     kind       MessageKind
//   6       4     from       SiteId (int32)
//   10      4     to         SiteId (int32)
//   14      8     send_epoch Epoch (int64) -- the epoch from which the
//                            frame is due for delivery (a reorder or
//                            duplicate fault moves it later)
//   22      8     seq        global send sequence; total order across
//                            senders, so queued delivery is deterministic
//   30      8     link_seq   per-(from,to)-link sequence, 1-based, assigned
//                            by the reliability layer; 0 = unreliable send
//                            (no ack/retransmit tracking)
//   38      4     payload_len (uint32)
//   42      N     payload
//   42+N    4     crc32      zlib CRC-32 over bytes [0, 42+N)
//
// Table 5's communication-cost accounting charges these framed bytes
// (header + payload + checksum), i.e. real wire overhead, not bare
// payloads.
#ifndef RFID_DIST_FRAME_H_
#define RFID_DIST_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace rfid {

/// Message classes the distributed experiments account separately: raw
/// readings (the centralized baseline), collapsed/full inference state
/// (Section 4.1), per-object query state (Section 4.2), ONS directory
/// traffic (registrations, moves, and lookups -- the "similar to a DNS
/// service" load of Section 5.2, charged per (site, shard host) link since
/// the directory is sharded across sites; see dist/ons.h), and cumulative
/// per-link acknowledgements (the reliability tax). kCheckpoint never
/// crosses the network: it is the on-disk record kind of a durable site
/// checkpoint (dist/durability.h), which reuses the v2 frame encoder as its
/// CRC-framed storage envelope. Kinds are dense: per-kind counters are
/// arrays indexed by kind.
enum class MessageKind : uint8_t {
  kRawReadings = 0,
  kInferenceState = 1,
  kQueryState = 2,
  kDirectory = 3,
  kAck = 4,
  kCheckpoint = 5,
};

inline constexpr int kNumMessageKinds = 6;

std::string ToString(MessageKind kind);

inline constexpr uint32_t kFrameMagic = 0x44494652;  // "RFID" little-endian
inline constexpr uint8_t kFrameVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 42;
inline constexpr size_t kFrameTrailerBytes = 4;  // crc32
inline constexpr size_t kFrameOverheadBytes =
    kFrameHeaderBytes + kFrameTrailerBytes;
/// Sanity cap on payload_len while decoding: a corrupt length field must
/// not make a reader allocate gigabytes.
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 30;

/// One wire message. `seq` is assigned by the sending Network in global
/// send order; receivers deliver queued frames in (send epoch, seq)
/// order so every backend processes messages identically. `link_seq` is
/// the per-link contiguous sequence the reliability layer acks/dedups by
/// (0 when the send is untracked).
struct Frame {
  SiteId from = kNoSite;
  SiteId to = kNoSite;
  MessageKind kind = MessageKind::kRawReadings;
  Epoch send_epoch = 0;
  uint64_t seq = 0;
  uint64_t link_seq = 0;
  std::vector<uint8_t> payload;

  bool operator==(const Frame&) const = default;
};

/// Bytes `frame` occupies on the wire: header + payload + checksum.
inline constexpr size_t FrameWireSize(size_t payload_size) {
  return kFrameOverheadBytes + payload_size;
}

/// Appends the framed encoding of `frame` to `*out`. Always writes exactly
/// FrameWireSize(frame.payload.size()) bytes.
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

/// Convenience: the framed encoding alone.
std::vector<uint8_t> EncodeFrameToBytes(const Frame& frame);

/// Non-owning decode result: header fields plus a span over the payload
/// bytes *inside the caller's buffer*. Valid only while that buffer is
/// alive and unmodified -- transports decode a view per frame, then
/// materialize (ToFrame) only the frames they must queue, skipping the
/// payload copy into an intermediate decode buffer. The CRC has already
/// been verified over the viewed bytes.
struct FrameView {
  SiteId from = kNoSite;
  SiteId to = kNoSite;
  MessageKind kind = MessageKind::kRawReadings;
  Epoch send_epoch = 0;
  uint64_t seq = 0;
  uint64_t link_seq = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;

  /// Materializes an owning Frame (copies the payload once).
  Frame ToFrame() const {
    Frame f;
    f.from = from;
    f.to = to;
    f.kind = kind;
    f.send_epoch = send_epoch;
    f.seq = seq;
    f.link_seq = link_seq;
    f.payload.assign(payload, payload + payload_len);
    return f;
  }
};

/// Decodes one frame from the front of [data, data+size).
///
/// Returns OK with `*consumed` = the frame's wire size when a complete,
/// checksum-valid frame was decoded; ResourceExhausted (and *consumed = 0)
/// when the buffer holds only a prefix of a frame (read more bytes and
/// retry -- the streaming-socket case); Corruption otherwise. Two
/// Corruption classes differ by `*consumed`:
///   - *consumed = 0: the header itself is untrustworthy (bad magic,
///     unsupported version, implausible payload length) -- the stream has
///     lost framing and cannot be resynchronized.
///   - *consumed = wire size: the header parsed but the CRC-32 failed (or
///     the checksummed kind byte is unknown) -- in-frame corruption; the
///     caller may skip `*consumed` bytes, count the drop, and continue
///     decoding at the next frame boundary.
Status DecodeFrame(const uint8_t* data, size_t size, Frame* out,
                   size_t* consumed);

/// Zero-copy variant of DecodeFrame: identical validation, status, and
/// `*consumed` semantics, but `out->payload` points into [data, data+size)
/// instead of copying. DecodeFrame is implemented on top of this.
Status DecodeFrameView(const uint8_t* data, size_t size, FrameView* out,
                       size_t* consumed);

/// True when `status` is DecodeFrame's "need more bytes" condition rather
/// than a real error.
inline bool FrameIncomplete(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted;
}

}  // namespace rfid

#endif  // RFID_DIST_FRAME_H_
