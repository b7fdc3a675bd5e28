// Tests for the framed wire protocol (dist/frame.h) and the transport
// backends behind Network: codec round-trip, rejection of truncated and
// corrupted frames, streaming (partial-buffer) decode, and byte-accounting
// equality between the in-process and socket backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dist/frame.h"
#include "dist/network.h"
#include "dist/transport_socket.h"

namespace rfid {
namespace {

Frame SampleFrame() {
  Frame f;
  f.from = 3;
  f.to = 7;
  f.kind = MessageKind::kQueryState;
  f.send_epoch = 123456789;
  f.seq = 42;
  f.link_seq = 17;
  f.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  return f;
}

TEST(FrameTest, RoundTrip) {
  const Frame f = SampleFrame();
  const std::vector<uint8_t> wire = EncodeFrameToBytes(f);
  EXPECT_EQ(wire.size(), FrameWireSize(f.payload.size()));
  EXPECT_EQ(wire.size(), kFrameOverheadBytes + f.payload.size());

  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(wire.data(), wire.size(), &decoded, &consumed)
                  .ok());
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded, f);
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  Frame f = SampleFrame();
  f.payload.clear();
  const std::vector<uint8_t> wire = EncodeFrameToBytes(f);
  EXPECT_EQ(wire.size(), kFrameOverheadBytes);
  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(wire.data(), wire.size(), &decoded, &consumed)
                  .ok());
  EXPECT_EQ(decoded, f);
}

TEST(FrameTest, TruncatedPrefixesAreIncompleteNeverDecoded) {
  const Frame f = SampleFrame();
  const std::vector<uint8_t> wire = EncodeFrameToBytes(f);
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame decoded;
    size_t consumed = 1;
    const Status st = DecodeFrame(wire.data(), len, &decoded, &consumed);
    ASSERT_FALSE(st.ok()) << "prefix length " << len;
    EXPECT_TRUE(FrameIncomplete(st)) << "prefix length " << len;
    EXPECT_EQ(consumed, 0u) << "prefix length " << len;
  }
}

TEST(FrameTest, CorruptionIsRejected) {
  const Frame f = SampleFrame();
  const std::vector<uint8_t> wire = EncodeFrameToBytes(f);
  // Flipping any single byte must fail the decode (magic, version, kind,
  // ids, epoch, seq, length, payload, or checksum -- the CRC covers them
  // all), and never look like a short read.
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> bad = wire;
    bad[i] ^= 0xff;
    Frame decoded;
    size_t consumed = 0;
    const Status st = DecodeFrame(bad.data(), bad.size(), &decoded,
                                  &consumed);
    // A corrupted length field may also read as "incomplete" (the frame
    // now claims to be longer); both rejections are acceptable, silent
    // success is not.
    EXPECT_FALSE(st.ok()) << "flipped byte " << i;
    if (!FrameIncomplete(st)) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << "flipped byte " << i;
    }
  }
  // An implausible payload length is rejected before any allocation, and
  // marked unresynchronizable (consumed = 0): the length cannot be
  // trusted to skip the frame.
  std::vector<uint8_t> huge = wire;
  huge[38] = 0xff;
  huge[39] = 0xff;
  huge[40] = 0xff;
  huge[41] = 0xff;
  Frame decoded;
  size_t consumed = 0;
  const Status st = DecodeFrame(huge.data(), huge.size(), &decoded,
                                &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(consumed, 0u);
}

TEST(FrameTest, ChecksumMismatchIsResyncable) {
  // A payload flip keeps the header trustworthy: the decode must fail
  // with Corruption but report the full wire size so a streaming reader
  // can skip the frame and keep decoding at the next boundary.
  Frame a = SampleFrame();
  Frame b = SampleFrame();
  b.seq = 43;
  b.payload = {7, 8, 9, 10};
  std::vector<uint8_t> stream;
  EncodeFrame(a, &stream);
  const size_t a_wire = stream.size();
  EncodeFrame(b, &stream);
  stream[kFrameHeaderBytes + 2] ^= 0x5a;  // corrupt a's payload

  Frame decoded;
  size_t consumed = 0;
  const Status st =
      DecodeFrame(stream.data(), stream.size(), &decoded, &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  ASSERT_EQ(consumed, a_wire);

  size_t consumed2 = 0;
  ASSERT_TRUE(DecodeFrame(stream.data() + consumed, stream.size() - consumed,
                          &decoded, &consumed2)
                  .ok());
  EXPECT_EQ(decoded, b);
}

TEST(FrameTest, UnsupportedVersionIsFatal) {
  // A version-1 (or any non-current) frame is a framing-level failure:
  // the layout after the version byte is unknown, so no resync.
  std::vector<uint8_t> wire = EncodeFrameToBytes(SampleFrame());
  wire[4] = 1;
  Frame decoded;
  size_t consumed = 0;
  const Status st = DecodeFrame(wire.data(), wire.size(), &decoded,
                                &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(consumed, 0u);
}

TEST(FrameTest, UnknownKindWithValidChecksumIsResyncable) {
  // The encoder checksums whatever kind byte it is given, so this frame
  // passes the CRC and only the kind check rejects it: in-frame
  // corruption with a trustworthy length, like a checksum mismatch.
  Frame f = SampleFrame();
  f.kind = static_cast<MessageKind>(kNumMessageKinds);
  const std::vector<uint8_t> wire = EncodeFrameToBytes(f);
  ASSERT_EQ(wire[5], kNumMessageKinds);
  Frame decoded;
  size_t consumed = 0;
  const Status st = DecodeFrame(wire.data(), wire.size(), &decoded,
                                &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.ToString().find("unknown message kind"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(consumed, wire.size());
}

// ---- FrameView: the zero-copy decode the transports use ----

TEST(FrameViewTest, ViewMatchesOwningDecodeAndPointsIntoBuffer) {
  for (const bool empty_payload : {false, true}) {
    Frame f = SampleFrame();
    if (empty_payload) f.payload.clear();
    const std::vector<uint8_t> wire = EncodeFrameToBytes(f);
    FrameView view;
    size_t consumed = 0;
    ASSERT_TRUE(
        DecodeFrameView(wire.data(), wire.size(), &view, &consumed).ok());
    EXPECT_EQ(consumed, wire.size());
    // The payload span aliases the wire buffer: zero-copy by
    // construction, not by measurement.
    EXPECT_EQ(view.payload, wire.data() + kFrameHeaderBytes);
    EXPECT_EQ(view.payload_len, f.payload.size());
    EXPECT_EQ(view.ToFrame(), f);
  }
}

TEST(FrameViewTest, StatusAndConsumedMatchOwningDecodeExhaustively) {
  // DecodeFrame is documented as DecodeFrameView + ToFrame; prove the
  // contract holds on every truncation and every single-byte flip, so
  // the socket pump's switch to views cannot have changed what gets
  // dropped, resynced, or aborted on.
  const std::vector<uint8_t> wire = EncodeFrameToBytes(SampleFrame());
  for (size_t len = 0; len <= wire.size(); ++len) {
    Frame owned;
    FrameView view;
    size_t consumed_f = 0;
    size_t consumed_v = 0;
    const Status sf = DecodeFrame(wire.data(), len, &owned, &consumed_f);
    const Status sv =
        DecodeFrameView(wire.data(), len, &view, &consumed_v);
    EXPECT_EQ(sf.code(), sv.code()) << "prefix " << len;
    EXPECT_EQ(consumed_f, consumed_v) << "prefix " << len;
  }
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> bad = wire;
    bad[i] ^= 0xff;
    Frame owned;
    FrameView view;
    size_t consumed_f = 0;
    size_t consumed_v = 0;
    const Status sf =
        DecodeFrame(bad.data(), bad.size(), &owned, &consumed_f);
    const Status sv =
        DecodeFrameView(bad.data(), bad.size(), &view, &consumed_v);
    EXPECT_EQ(sf.code(), sv.code()) << "flipped byte " << i;
    EXPECT_EQ(consumed_f, consumed_v) << "flipped byte " << i;
  }
}

TEST(FrameTest, StreamingDecodeOfConcatenatedFrames) {
  Frame a = SampleFrame();
  Frame b = SampleFrame();
  b.seq = 43;
  b.payload = {1, 2, 3};
  std::vector<uint8_t> stream;
  EncodeFrame(a, &stream);
  EncodeFrame(b, &stream);

  size_t pos = 0;
  std::vector<Frame> decoded;
  while (pos < stream.size()) {
    Frame f;
    size_t consumed = 0;
    const Status st =
        DecodeFrame(stream.data() + pos, stream.size() - pos, &f, &consumed);
    ASSERT_TRUE(st.ok());
    pos += consumed;
    decoded.push_back(std::move(f));
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], a);
  EXPECT_EQ(decoded[1], b);
}

// ---- Cross-backend equality ----

struct Delivered {
  SiteId to;
  SiteId from;
  MessageKind kind;
  std::vector<uint8_t> payload;
  bool operator==(const Delivered&) const = default;
};

/// Drives an identical message sequence through a Network on the given
/// backend and returns (deliveries in order, the network) for comparison.
std::vector<Delivered> DriveBackend(Network* net, int num_sites) {
  std::vector<Delivered> log;
  for (SiteId s = 0; s < num_sites; ++s) {
    net->RegisterHandler(s, [&log, s](SiteId from, MessageKind kind,
                                      const std::vector<uint8_t>& payload) {
      log.push_back(Delivered{s, from, kind, payload});
    });
  }
  std::vector<uint8_t> big(100000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  net->AdvanceClock(0);
  net->Send(0, 1, MessageKind::kInferenceState, {1, 2, 3});
  net->Send(1, 2, MessageKind::kDirectory, {});
  net->Send(2, 0, MessageKind::kRawReadings, big);
  net->AdvanceClock(5);
  net->Send(0, 2, MessageKind::kQueryState, {9});
  net->Send(0, 1, MessageKind::kInferenceState, {4, 5});
  for (Epoch t : {0, 5, 10}) {
    for (SiteId s = 0; s < num_sites; ++s) net->DeliverDue(s, t);
  }
  return log;
}

TEST(TransportBackendTest, SocketMatchesInProcessBitForBit) {
  constexpr int kSites = 3;
  Network inproc;
  Network socket;
  socket.ConfigureTransport(TransportKind::kSocket, kSites);
  ASSERT_EQ(socket.transport_kind(), TransportKind::kSocket);
  ASSERT_EQ(socket.transport().name(), "socket");

  const std::vector<Delivered> a = DriveBackend(&inproc, kSites);
  const std::vector<Delivered> b = DriveBackend(&socket, kSites);

  // Identical deliveries in identical order (the 100 KB payload forces
  // multi-read reassembly on the socket side), and identical accounting:
  // framed wire size depends only on payload length, so every counter --
  // totals, per kind, per link, in flight -- matches exactly.
  EXPECT_EQ(a, b);
  EXPECT_EQ(inproc.total_bytes(), socket.total_bytes());
  EXPECT_EQ(inproc.total_messages(), socket.total_messages());
  EXPECT_EQ(inproc.in_flight_messages(), 0);
  EXPECT_EQ(socket.in_flight_messages(), 0);
  for (int k = 0; k < kNumMessageKinds; ++k) {
    const MessageKind kind = static_cast<MessageKind>(k);
    EXPECT_EQ(inproc.BytesOfKind(kind), socket.BytesOfKind(kind))
        << ToString(kind);
    EXPECT_EQ(inproc.MessagesOfKind(kind), socket.MessagesOfKind(kind))
        << ToString(kind);
  }
  for (SiteId x = 0; x < kSites; ++x) {
    for (SiteId y = 0; y < kSites; ++y) {
      EXPECT_EQ(inproc.BytesOnLink(x, y), socket.BytesOnLink(x, y))
          << x << "->" << y;
    }
  }
}

TEST(TransportBackendTest, SocketSurvivesPayloadsBeyondKernelBuffers) {
  // A payload far beyond the default AF_UNIX buffer (~200 KB) forces the
  // sender's write to hit EAGAIN mid-frame; the transport must pump the
  // receive side and finish, and the frame must reassemble intact.
  Network net;
  net.ConfigureTransport(TransportKind::kSocket, 2);
  std::vector<uint8_t> huge(2 * 1024 * 1024);
  for (size_t i = 0; i < huge.size(); ++i) {
    huge[i] = static_cast<uint8_t>((i >> 3) * 131 + i);
  }
  std::vector<uint8_t> got;
  net.RegisterHandler(1, [&](SiteId, MessageKind,
                             const std::vector<uint8_t>& payload) {
    got = payload;
  });
  net.Send(0, 1, MessageKind::kRawReadings, huge);
  EXPECT_EQ(net.DeliverDue(1, 0), 1);
  EXPECT_EQ(got, huge);
}

TEST(TransportBackendTest, SocketFallsBackForUnhostedDestinations) {
  // kDirectorySite has no listener; the socket backend must still queue,
  // charge, and deliver (to no handler) exactly like the in-process one.
  Network net;
  net.ConfigureTransport(TransportKind::kSocket, 2);
  net.Send(0, kDirectorySite, MessageKind::kDirectory, {1, 2, 3});
  EXPECT_EQ(net.total_bytes(), static_cast<int64_t>(FrameWireSize(3)));
  EXPECT_EQ(net.in_flight_messages(), 1);
  EXPECT_EQ(net.DeliverDue(kDirectorySite, 0), 1);
  EXPECT_EQ(net.in_flight_messages(), 0);
}

TEST(TransportBackendTest, TransportKindFromEnvParsesSocket) {
  // The test binary may itself run under RFID_TRANSPORT=socket (the CI
  // socket pass); assert consistency rather than a fixed value.
  const char* env = std::getenv("RFID_TRANSPORT");
  const TransportKind kind = TransportKindFromEnv();
  if (env != nullptr && std::string(env) == "socket") {
    EXPECT_EQ(kind, TransportKind::kSocket);
  } else {
    EXPECT_EQ(kind, TransportKind::kInProcess);
  }
  EXPECT_EQ(ToString(TransportKind::kSocket), "socket");
  EXPECT_EQ(ToString(TransportKind::kInProcess), "in_process");
}

}  // namespace
}  // namespace rfid
