#include "dist/network.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "dist/transport_socket.h"
#include "obs/telemetry.h"

namespace rfid {

namespace {

/// Cap on the retransmission backoff: an unacked frame's timer doubles per
/// attempt up to rto << kMaxBackoffShift.
constexpr int kMaxBackoffShift = 6;

}  // namespace

std::string ToString(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "in_process";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

TransportKind TransportKindFromEnv() {
  const char* env = std::getenv("RFID_TRANSPORT");
  if (env != nullptr && std::strcmp(env, "socket") == 0) {
    return TransportKind::kSocket;
  }
  return TransportKind::kInProcess;
}

// ---- FaultModel ----

FrameFate FaultModel::FateOf(uint64_t seq, uint32_t attempt) const {
  // A private SplitMix64 stream per (seed, seq, attempt): the fate of a
  // transmission attempt depends on nothing else -- not the backend, not
  // the thread count, not how many other frames were sent -- which is what
  // makes faulty runs bit-identical. A fixed draw schedule keeps the
  // stream layout stable regardless of which fates trigger.
  uint64_t state = seed;
  state += (seq + 1) * 0x9e3779b97f4a7c15ull;
  state += (static_cast<uint64_t>(attempt) + 1) * 0xbf58476d1ce4e5b9ull;
  auto unit = [&state]() {
    return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
  };
  const double u_drop = unit();
  const double u_corrupt = unit();
  const double u_dup = unit();
  const double u_reorder = unit();
  const uint64_t r_offset = SplitMix64(state);
  const uint64_t r_mask = SplitMix64(state);
  const uint64_t r_delay = SplitMix64(state);
  const uint64_t r_dup_delay = SplitMix64(state);

  FrameFate fate;
  if (u_drop < drop) {
    fate.drop = true;
    return fate;
  }
  if (u_corrupt < corrupt) {
    fate.corrupt = true;
    fate.corrupt_offset = static_cast<size_t>(r_offset);
    fate.corrupt_mask = static_cast<uint8_t>(r_mask) | 1;  // nonzero
    return fate;
  }
  const Epoch span = reorder_delay_max >= reorder_delay_min
                         ? reorder_delay_max - reorder_delay_min + 1
                         : 1;
  if (u_reorder < reorder) {
    fate.extra_delay =
        reorder_delay_min + static_cast<Epoch>(r_delay % span);
  }
  if (u_dup < duplicate) {
    fate.duplicate = true;
    fate.duplicate_delay =
        reorder_delay_min + static_cast<Epoch>(r_dup_delay % span);
  }
  return fate;
}

bool FaultModel::Partitioned(SiteId from, SiteId to, Epoch at) const {
  for (const LinkPartition& p : partitions) {
    if (at < p.begin || at >= p.end) continue;
    const bool fwd = (p.a == kNoSite || p.a == from) &&
                     (p.b == kNoSite || p.b == to);
    const bool rev = p.bidirectional && (p.a == kNoSite || p.a == to) &&
                     (p.b == kNoSite || p.b == from);
    if (fwd || rev) return true;
  }
  return false;
}

// ---- InProcessTransport ----

size_t InProcessTransport::Send(Frame frame) {
  const size_t wire = FrameWireSize(frame.payload.size());
  queues_[frame.to].push_back(std::move(frame));
  return wire;
}

void InProcessTransport::Drain(SiteId site, std::vector<Frame>* out) {
  auto it = queues_.find(site);
  if (it == queues_.end()) return;
  out->insert(out->end(), std::make_move_iterator(it->second.begin()),
              std::make_move_iterator(it->second.end()));
  it->second.clear();
}

// ---- Network ----

Network::Network() : transport_(std::make_unique<InProcessTransport>()) {}

Network::~Network() = default;

void Network::ConfigureTransport(TransportKind kind, int num_sites) {
  phase_.AssertHeld();
  RFID_CHECK_OK(in_flight_messages_ == 0
                    ? Status::OK()
                    : Status::Internal("ConfigureTransport with frames in "
                                       "flight would strand them"));
  transport_kind_ = kind;
  switch (kind) {
    case TransportKind::kInProcess:
      transport_ = std::make_unique<InProcessTransport>();
      break;
    case TransportKind::kSocket: {
      auto socket = std::make_unique<SocketTransport>(num_sites);
      socket->SetTelemetry(telemetry_);
      transport_ = std::move(socket);
      break;
    }
  }
}

void Network::SetTelemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (transport_kind_ == TransportKind::kSocket) {
    static_cast<SocketTransport*>(transport_.get())->SetTelemetry(telemetry);
  }
}

void Network::Configure(NetworkOptions options) {
  phase_.AssertHeld();
  RFID_CHECK_OK(in_flight_messages_ == 0
                    ? Status::OK()
                    : Status::Internal("Configure with frames in flight "
                                       "would switch their ack protocol"));
  options_ = std::move(options);
  reliable_ = options_.faults.enabled();
}

void Network::RegisterHandler(SiteId site, MessageHandler handler) {
  phase_.AssertHeld();
  handlers_[site] = std::move(handler);
}

void Network::BumpTelemetry(const char* name, int64_t n) {
  if (telemetry_ != nullptr) {
    telemetry_->registry().GetCounter(name)->Add(n);
  }
}

void Network::ChargeCounters(const Frame& frame, size_t wire) {
  const int64_t n = static_cast<int64_t>(wire);
  link_bytes_[LinkKey(frame.from, frame.to)] += n;
  link_messages_[LinkKey(frame.from, frame.to)] += 1;
  kind_bytes_[static_cast<size_t>(frame.kind)] += n;
  kind_messages_[static_cast<size_t>(frame.kind)] += 1;
  total_bytes_ += n;
  total_messages_ += 1;
  if (telemetry_ != nullptr) {
    telemetry_->AddWireBytes(static_cast<int>(frame.kind),
                             ToString(frame.kind), n);
  }
}

void Network::Transmit(const Frame& frame, uint32_t attempt) {
  const size_t wire = FrameWireSize(frame.payload.size());
  // Every transmission attempt is charged: bytes hit the wire whether or
  // not a fault eats them afterwards. Only copies that actually land in a
  // delivery queue count as in flight.
  ChargeCounters(frame, wire);
  if (options_.faults.Partitioned(frame.from, frame.to, now_)) {
    ++fault_stats_.partition_drops;
    BumpTelemetry("fault/partition_drops", 1);
    return;
  }
  const FrameFate fate = options_.faults.enabled()
                             ? options_.faults.FateOf(frame.seq, attempt)
                             : FrameFate{};
  if (fate.drop) {
    ++fault_stats_.drops;
    BumpTelemetry("fault/drops", 1);
    return;
  }
  if (fate.corrupt) {
    ++fault_stats_.corrupts;
    BumpTelemetry("fault/corrupts", 1);
    // Flip one byte past the header (payload or CRC region) so the frame
    // stays parseable but fails its checksum: the socket receiver drops
    // and counts it; the in-process default discards outright.
    const size_t region = frame.payload.size() + kFrameTrailerBytes;
    const size_t offset =
        kFrameHeaderBytes + (fate.corrupt_offset % region);
    const size_t got =
        transport_->SendCorrupt(frame, offset, fate.corrupt_mask);
    RFID_CHECK_OK(got == wire ? Status::OK()
                              : Status::Internal("corrupt wire size "
                                                 "disagrees with codec"));
    return;
  }
  Frame copy = frame;
  if (fate.extra_delay > 0) {
    ++fault_stats_.reorders;
    BumpTelemetry("fault/reorders", 1);
    copy.send_epoch += fate.extra_delay;
  }
  const size_t got = transport_->Send(std::move(copy));
  RFID_CHECK_OK(got == wire
                    ? Status::OK()
                    : Status::Internal("transport wire size disagrees with "
                                       "the frame codec"));
  in_flight_bytes_ += static_cast<int64_t>(wire);
  in_flight_messages_ += 1;
  if (fate.duplicate) {
    ++fault_stats_.duplicates;
    BumpTelemetry("fault/duplicates", 1);
    ChargeCounters(frame, wire);
    Frame dup = frame;
    dup.send_epoch += fate.duplicate_delay;
    transport_->Send(std::move(dup));
    in_flight_bytes_ += static_cast<int64_t>(wire);
    in_flight_messages_ += 1;
  }
}

void Network::TrackAndTransmit(LinkSendState* link, Frame frame) {
  frame.link_seq = link->next_link_seq++;
  Transmit(frame, 0);
  const uint64_t ls = frame.link_seq;
  TrackedFrame tf;
  tf.next_retry = now_ + options_.reliability.rto;
  tf.attempts = 1;
  tf.frame = std::move(frame);
  link->unacked.emplace(ls, std::move(tf));
}

void Network::ReleaseDeferred(LinkSendState* link) {
  while (!link->deferred.empty() &&
         static_cast<int>(link->unacked.size()) <
             options_.reliability.window) {
    Frame f = std::move(link->deferred.front());
    link->deferred.pop_front();
    f.send_epoch = now_;
    TrackAndTransmit(link, std::move(f));
  }
}

void Network::HandleAck(const Frame& ack) {
  // The ack travels receiver -> sender, so the link it acknowledges is
  // (ack.to -> ack.from).
  BufferReader r(ack.payload);
  uint64_t cum = 0;
  if (!r.GetVarint(&cum).ok()) return;
  auto it = send_links_.find(LinkKey(ack.to, ack.from));
  if (it == send_links_.end()) return;
  LinkSendState& link = it->second;
  while (!link.unacked.empty() && link.unacked.begin()->first <= cum) {
    link.unacked.erase(link.unacked.begin());
  }
  ReleaseDeferred(&link);
}

size_t Network::Send(SiteId from, SiteId to, MessageKind kind,
                     const std::vector<uint8_t>& payload) {
  phase_.AssertHeld();
  obs::PhaseTimer span(telemetry_, obs::Phase::kTransportSend, now_);
  Frame frame;
  frame.from = from;
  frame.to = to;
  frame.kind = kind;
  frame.send_epoch = now_;
  frame.seq = next_seq_++;
  frame.payload = payload;
  const size_t wire = FrameWireSize(payload.size());
  if (reliable_ && kind != MessageKind::kAck) {
    LinkSendState& link = send_links_[LinkKey(from, to)];
    if (static_cast<int>(link.unacked.size()) >=
        options_.reliability.window) {
      // Window full: the frame waits in the sender, uncharged until it is
      // actually transmitted (acks or retransmission ticks release it).
      link.deferred.push_back(std::move(frame));
    } else {
      TrackAndTransmit(&link, std::move(frame));
    }
  } else {
    Transmit(frame, 0);
  }
  return wire;
}

int Network::DeliverDue(SiteId site, Epoch now, int max_frames) {
  phase_.AssertHeld();
  // A crashed site receives nothing; its backlog and anything sent during
  // the outage wait in the transport/pending queue for recovery.
  if (down_.count(site) > 0) return 0;
  // Pull everything the transport has for this site and merge it into the
  // site's pending queue. The transport may hand frames back in any order;
  // (send epoch, seq) restores the deterministic total order.
  std::vector<Frame> drained;
  transport_->Drain(site, &drained);
  if (!drained.empty()) {
    ArrivalQueue& q = pending_[site];
    for (Frame& f : drained) q.push(std::move(f));
  }
  auto it = pending_.find(site);
  if (it == pending_.end()) return 0;
  ArrivalQueue& q = it->second;
  int delivered = 0;
  auto handler_it = handlers_.find(site);
  MessageHandler* handler =
      handler_it != handlers_.end() && handler_it->second
          ? &handler_it->second
          : nullptr;
  // Peers owed a cumulative ack, in first-delivery order (deduplicated by
  // the per-link ack_pending flag); one kAck per peer goes out after the
  // sweep with the final cumulative value.
  std::vector<SiteId> ack_peers;
  while (!q.empty() && q.top().send_epoch <= now &&
         (max_frames < 0 || delivered < max_frames)) {
    const Frame& f = q.top();
    in_flight_messages_ -= 1;
    in_flight_bytes_ -=
        static_cast<int64_t>(FrameWireSize(f.payload.size()));
    bool deliver = true;
    if (f.kind == MessageKind::kAck) {
      HandleAck(f);
      deliver = false;
    } else if (reliable_ && f.link_seq > 0) {
      LinkRecvState& rs = recv_links_[LinkKey(f.from, site)];
      if (f.link_seq <= rs.cum || rs.out_of_order.count(f.link_seq) > 0) {
        // Retransmitted or fault-duplicated copy of something already
        // delivered: suppress, but still re-ack (the sender clearly
        // missed our last ack).
        ++reliable_stats_.dup_drops;
        BumpTelemetry("reliable/dup_drops", 1);
        deliver = false;
      } else {
        rs.out_of_order.insert(f.link_seq);
        while (rs.out_of_order.count(rs.cum + 1) > 0) {
          rs.out_of_order.erase(rs.cum + 1);
          ++rs.cum;
        }
      }
      if (!rs.ack_pending) {
        rs.ack_pending = true;
        ack_peers.push_back(f.from);
      }
    }
    if (deliver && handler != nullptr) {
      (*handler)(f.from, f.kind, f.payload);
    }
    q.pop();
    ++delivered;
  }
  for (SiteId peer : ack_peers) {
    LinkRecvState& rs = recv_links_[LinkKey(peer, site)];
    rs.ack_pending = false;
    BufferWriter w;
    w.PutVarint(rs.cum);
    Send(site, peer, MessageKind::kAck, w.bytes());
  }
  return delivered;
}

void Network::TickReliability(Epoch now) {
  phase_.AssertHeld();
  if (!reliable_) return;
  // send_links_ is an ordered map, so the retransmission sweep visits
  // links in a deterministic order on every backend.
  for (auto& [key, link] : send_links_) {
    if (down_.count(LinkTo(key)) > 0) continue;
    for (auto& [ls, tf] : link.unacked) {
      if (tf.next_retry > now) continue;
      Frame copy = tf.frame;
      copy.send_epoch = now;
      const int64_t wire =
          static_cast<int64_t>(FrameWireSize(copy.payload.size()));
      ++reliable_stats_.retransmits;
      reliable_stats_.retransmit_bytes += wire;
      BumpTelemetry("reliable/retransmits", 1);
      BumpTelemetry("reliable/retransmit_bytes", wire);
      Transmit(copy, tf.attempts);
      ++tf.attempts;
      const int shift =
          std::min(static_cast<int>(tf.attempts) - 1, kMaxBackoffShift);
      tf.next_retry = now + (options_.reliability.rto << shift);
    }
    ReleaseDeferred(&link);
  }
}

void Network::SetSiteDown(SiteId site, bool down) {
  phase_.AssertHeld();
  if (down) {
    down_.insert(site);
  } else {
    down_.erase(site);
  }
}

bool Network::HasReliabilityWork() const {
  phase_.AssertShared();
  for (const auto& [key, link] : send_links_) {
    if (down_.count(LinkTo(key)) > 0) continue;
    if (!link.unacked.empty() || !link.deferred.empty()) return true;
  }
  return false;
}

bool Network::AllReliableDelivered() const {
  phase_.AssertShared();
  for (const auto& [key, link] : send_links_) {
    if (!link.unacked.empty() || !link.deferred.empty()) return false;
    auto rit = recv_links_.find(key);
    const uint64_t cum = rit == recv_links_.end() ? 0 : rit->second.cum;
    if (cum != link.next_link_seq - 1) return false;
  }
  return true;
}

int64_t Network::BytesOnLink(SiteId from, SiteId to) const {
  phase_.AssertShared();
  auto it = link_bytes_.find(LinkKey(from, to));
  return it == link_bytes_.end() ? 0 : it->second;
}

int64_t Network::MessagesOnLink(SiteId from, SiteId to) const {
  phase_.AssertShared();
  auto it = link_messages_.find(LinkKey(from, to));
  return it == link_messages_.end() ? 0 : it->second;
}

}  // namespace rfid
