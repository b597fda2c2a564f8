#include "core/analyzer.h"

namespace zpm::core {

namespace {

/// Flaws that indicate mangled bytes (as opposed to merely
/// undocumented-but-well-formed traffic); these feed quarantine.
bool is_malformed(zoom::DissectFlaw flaw) {
  return flaw == zoom::DissectFlaw::TruncatedSfu ||
         flaw == zoom::DissectFlaw::TruncatedMediaEncap ||
         flaw == zoom::DissectFlaw::BadRtp || flaw == zoom::DissectFlaw::BadRtcp;
}

}  // namespace

Analyzer::Analyzer(AnalyzerConfig config)
    : config_(std::move(config)),
      p2p_(config_.p2p_timeout),
      streams_(config_.duplicate_match) {
  streams_.set_metrics_config_factory(
      [keep = config_.keep_frames,
       every = config_.frame_sample_every](zoom::MediaKind kind) {
        auto c = metrics::default_config(kind);
        c.keep_frames = keep;
        c.frame_sample_every = every;
        return c;
      });
}

void AnalyzerCounters::merge(const AnalyzerCounters& other) {
  util::merge_fields(*this, other, kCounterFields);
  for (std::size_t i = 0; i < encap_tally.size(); ++i) {
    encap_tally[i].packets += other.encap_tally[i].packets;
    encap_tally[i].bytes += other.encap_tally[i].bytes;
  }
  for (std::size_t i = 0; i < payload_tally.size(); ++i) {
    payload_tally[i].packets += other.payload_tally[i].packets;
    payload_tally[i].bytes += other.payload_tally[i].bytes;
  }
}

std::map<std::uint8_t, Tally> AnalyzerCounters::encap_types() const {
  std::map<std::uint8_t, Tally> out;
  for (std::size_t i = 0; i < encap_tally.size(); ++i) {
    if (encap_tally[i].packets != 0 || encap_tally[i].bytes != 0)
      out.emplace(static_cast<std::uint8_t>(i), encap_tally[i]);
  }
  return out;
}

std::map<std::pair<std::uint8_t, std::uint8_t>, Tally>
AnalyzerCounters::payload_types() const {
  std::map<std::pair<std::uint8_t, std::uint8_t>, Tally> out;
  for (std::size_t i = 0; i < payload_tally.size(); ++i) {
    if (payload_tally[i].packets != 0 || payload_tally[i].bytes != 0)
      out.emplace(std::pair{static_cast<std::uint8_t>(i / 256),
                            static_cast<std::uint8_t>(i % 256)},
                  payload_tally[i]);
  }
  return out;
}

void Analyzer::flag(HealthCounter field, util::Timestamp ts) {
  ++(health_.*field);
  if (config_.strict && !violation_) {
    // Sequence numbers are 1-based offer indices; in sharded mode the
    // journal carries the dispatcher's 0-based global sequence.
    violation_ = StrictViolation{
        health_name(field), journal_ ? journal_->seq + 1 : counters_.total_packets,
        ts};
  }
}

void Analyzer::note_decode_failure(net::DecodeFailure df, util::Timestamp ts) {
  const HealthCounter mangled = apply_decode_failure(health_, df);
  if (mangled != nullptr && config_.strict && !violation_)
    violation_ = StrictViolation{health_name(mangled), counters_.total_packets, ts};
}

void Analyzer::note_dissect_flaw(zoom::DissectFlaw flaw, util::Timestamp ts) {
  switch (flaw) {
    // Undocumented type bytes are expected wild traffic, not corruption.
    case zoom::DissectFlaw::None:
    case zoom::DissectFlaw::UnknownMediaType:
      return;
    case zoom::DissectFlaw::TruncatedSfu:
      flag(&AnalyzerHealth::bad_sfu_encap, ts);
      return;
    case zoom::DissectFlaw::TruncatedMediaEncap:
      flag(&AnalyzerHealth::bad_media_encap, ts);
      return;
    case zoom::DissectFlaw::BadRtp:
      flag(&AnalyzerHealth::malformed_rtp, ts);
      return;
    case zoom::DissectFlaw::BadRtcp:
      flag(&AnalyzerHealth::malformed_rtcp, ts);
      return;
  }
}

void Analyzer::note_stream_order(util::Timestamp ts) {
  if (last_offer_ts_ && ts < *last_offer_ts_) ++health_.non_monotonic_ts;
  last_offer_ts_ = ts;
}

void Analyzer::note_flow_quality(const net::FiveTuple& flow, bool malformed,
                                 util::Timestamp ts) {
  if (config_.quarantine_threshold == 0) return;
  if (!malformed) {
    // A well-formed packet only needs to reset a streak that exists; the
    // filter answers "this flow was never malformed" without touching
    // the hash table at all.
    if (!malformed_streaks_.empty() && bloom_maybe_contains(flow))
      malformed_streaks_.erase(flow);
    return;
  }
  bloom_mark(flow);
  std::uint32_t& streak = malformed_streaks_[flow];
  if (++streak >= config_.quarantine_threshold) {
    malformed_streaks_.erase(flow);
    quarantined_.insert(flow);
    flag(&AnalyzerHealth::quarantined_flows, ts);
  }
}

bool Analyzer::offer(const net::RawPacketView& pkt, bool covered) {
  covered_packet_ = covered;
  ++counters_.total_packets;
  counters_.total_bytes += pkt.data.size();
  if (journal_ == nullptr) {
    // Capture-quality observations belong to the global offer order; in
    // sharded mode the dispatcher performs them instead.
    note_stream_order(pkt.ts);
    if (pkt.is_truncated()) ++health_.snaplen_truncated;
  }
  net::DecodeFailure df = net::DecodeFailure::None;
  auto view = net::decode_packet(pkt.ts, pkt.data, &df);
  if (!view) {
    if (journal_ == nullptr) note_decode_failure(df, pkt.ts);
    return false;
  }
  return process_decoded(*view);
}

void Analyzer::account_frontend_rejected(const net::RawPacketView& pkt) {
  // Mirrors offer() up to (but excluding) the decode; the front end only
  // rejects packets whose decode provably succeeds without touching any
  // other counter or flow state.
  ++counters_.total_packets;
  counters_.total_bytes += pkt.data.size();
  if (journal_ == nullptr) {
    note_stream_order(pkt.ts);
    if (pkt.is_truncated()) ++health_.snaplen_truncated;
  }
  ++health_.frontend_rejected;
}

bool Analyzer::process(const net::PacketView& view, bool covered) {
  covered_packet_ = covered;
  ++counters_.total_packets;
  counters_.total_bytes += view.wire_length();
  if (journal_ == nullptr) note_stream_order(view.ts);
  return process_decoded(view);
}

bool Analyzer::process_decoded(const net::PacketView& view) {
  const auto& db = config_.server_db;
  bool src_is_server = db.contains(view.ip.src);
  bool dst_is_server = db.contains(view.ip.dst);

  if (view.l4 == net::L4Proto::Udp) {
    if (src_is_server || dst_is_server) {
      // STUN pre-flight with a zone controller (§4.1).
      if ((dst_is_server && view.udp.dst_port == zoom::kStunServerPort) ||
          (src_is_server && view.udp.src_port == zoom::kStunServerPort)) {
        return handle_stun(view, src_is_server);
      }
      return handle_server_udp(view);
    }
    return handle_p2p_udp(view);
  }
  if (view.l4 == net::L4Proto::Tcp && (src_is_server || dst_is_server)) {
    return handle_tcp(view);
  }
  return false;
}

void Analyzer::account_zoom(const net::PacketView& view) {
  ++counters_.zoom_packets;
  counters_.zoom_bytes += view.wire_length();
  net::FiveTuple flow = view.five_tuple().canonical();
  if (!last_zoom_flow_ || !(flow == *last_zoom_flow_)) {
    zoom_flows_.insert(flow);
    last_zoom_flow_ = flow;
  }
}

bool Analyzer::handle_stun(const net::PacketView& view, bool server_is_src) {
  auto zp = zoom::dissect_stun(view.l4_payload);
  if (!zp) {
    // Port 3478 to/from a Zoom zone controller that does not parse as
    // STUN: mangled in flight, or a squatter on the STUN port.
    flag(&AnalyzerHealth::malformed_stun, view.ts);
    return false;
  }
  account_zoom(view);
  ++counters_.stun_packets;
  // The campus endpoint that will later carry the P2P flow is the
  // non-server side (§4.1).
  if (server_is_src) {
    p2p_.on_stun_exchange(view.ts, view.ip.dst, view.udp.dst_port);
  } else {
    p2p_.on_stun_exchange(view.ts, view.ip.src, view.udp.src_port);
  }
  return true;
}

void Analyzer::register_stun_candidate(util::Timestamp ts, net::Ipv4Addr ip,
                                       std::uint16_t port) {
  p2p_.on_stun_exchange(ts, ip, port);
}

bool Analyzer::handle_server_udp(const net::PacketView& view) {
  bool dst_is_server = config_.server_db.contains(view.ip.dst);
  // Media flows use server port 8801 (§3); anything else to a Zoom IP is
  // still Zoom traffic (counted) but not dissected as media.
  std::uint16_t server_port = dst_is_server ? view.udp.dst_port : view.udp.src_port;
  account_zoom(view);
  ++counters_.server_udp_packets;
  if (server_port != zoom::kServerMediaPort) {
    ++counters_.unknown_media_packets;
    return true;
  }
  const net::FiveTuple flow = view.five_tuple().canonical();
  if (is_quarantined(flow)) {
    ++health_.quarantined_packets;
    return true;
  }
  zoom::DissectFlaw flaw = zoom::DissectFlaw::None;
  auto zp = zoom::dissect(view.l4_payload, zoom::Transport::ServerBased, &flaw);
  note_dissect_flaw(flaw, view.ts);
  note_flow_quality(flow, is_malformed(flaw), view.ts);
  if (!zp) {
    ++counters_.unknown_media_packets;
    return true;
  }
  handle_dissected(view, *zp,
                   dst_is_server ? StreamDirection::ToSfu : StreamDirection::FromSfu);
  return true;
}

bool Analyzer::handle_p2p_udp(const net::PacketView& view) {
  const net::FiveTuple flow = view.five_tuple();
  bool known = p2p_.is_confirmed(flow);
  if (!known) {
    bool candidate = p2p_.is_candidate(view.ts, view.ip.src, view.udp.src_port) ||
                     p2p_.is_candidate(view.ts, view.ip.dst, view.udp.dst_port);
    if (!candidate) return false;
  }
  if (known && is_quarantined(flow.canonical())) {
    ++health_.quarantined_packets;
    return false;
  }
  zoom::DissectFlaw flaw = zoom::DissectFlaw::None;
  auto zp = zoom::dissect(view.l4_payload, zoom::Transport::P2P, &flaw);
  if (known) {
    // On a confirmed Zoom flow a parse failure is corruption, not a
    // port-reuse false positive — account for it instead of silently
    // discarding the record.
    note_dissect_flaw(flaw, view.ts);
    note_flow_quality(flow.canonical(), is_malformed(flaw), view.ts);
  }
  if (!zp) {
    if (!known) {
      // Port reuse false positive: the payload is not Zoom (§4.1).
      ++counters_.p2p_false_positives;
      p2p_.reject_flow(flow);
    }
    return false;
  }
  p2p_.confirm_flow(flow);
  account_zoom(view);
  ++counters_.p2p_udp_packets;
  handle_dissected(view, *zp, StreamDirection::P2p);
  return true;
}

bool Analyzer::handle_tcp(const net::PacketView& view) {
  // Zoom control connections use server port 443 (§3).
  bool dst_is_server = config_.server_db.contains(view.ip.dst);
  std::uint16_t server_port = dst_is_server ? view.tcp.dst_port : view.tcp.src_port;
  if (server_port != 443) return false;
  account_zoom(view);
  ++counters_.tcp_control_packets;
  if (config_.track_tcp_rtt) {
    auto& estimator = tcp_rtt_[view.five_tuple().canonical()];
    estimator.on_packet(view.ts, view.tcp, view.l4_payload.size(), dst_is_server);
  }
  return true;
}

StreamInfo& Analyzer::stream_for(const net::PacketView& view,
                                 const zoom::ZoomPacket& zp,
                                 StreamDirection direction, std::uint32_t ssrc,
                                 std::uint32_t first_rtp_ts) {
  StreamKey key{view.five_tuple(), ssrc};
  // Client side: for server traffic the non-server endpoint; for P2P the
  // sender (both sides are clients — the peer endpoint is registered
  // with the grouper separately).
  net::Ipv4Addr client_ip;
  std::uint16_t client_port;
  if (direction == StreamDirection::ToSfu || direction == StreamDirection::P2p) {
    client_ip = view.ip.src;
    client_port = view.udp.src_port;
  } else {
    client_ip = view.ip.dst;
    client_port = view.udp.dst_port;
  }

  auto kind = zp.media_kind().value_or(zoom::MediaKind::Audio);
  // Single probe: get_or_create reports whether it inserted, so the
  // common case (existing stream) does one hash lookup, not two.
  bool created = false;
  StreamInfo& stream =
      streams_.get_or_create(key, kind, zp.transport, direction, client_ip,
                             client_port, first_rtp_ts, view.ts, &created);
  if (!created) return stream;
  std::optional<std::pair<net::Ipv4Addr, std::uint16_t>> peer;
  if (direction == StreamDirection::P2p)
    peer = std::pair{view.ip.dst, view.udp.dst_port};
  if (journal_) {
    // The merge step re-runs duplicate matching globally and assigns
    // media/meeting ids there; the shard-local ids are placeholders.
    journal_->events.push_back(ShardJournal::Event{
        journal_->seq, static_cast<std::uint32_t>(stream.index), view.ts,
        ShardJournal::StreamCreate{key.flow, kind, first_rtp_ts,
                                   stream.last_ext_rtp_ts, client_ip, client_port,
                                   direction == StreamDirection::P2p, peer}});
  } else {
    stream.meeting_id = grouper_.assign(stream.media_id, client_ip, client_port,
                                        view.ts,
                                        direction == StreamDirection::P2p, peer);
  }
  return stream;
}

void Analyzer::handle_dissected(const net::PacketView& view,
                                const zoom::ZoomPacket& zp,
                                StreamDirection direction) {
  switch (zp.category) {
    case zoom::PacketCategory::UnknownSfu:
      ++counters_.unknown_sfu_packets;
      return;
    case zoom::PacketCategory::UnknownMedia:
      ++counters_.unknown_media_packets;
      return;
    case zoom::PacketCategory::Stun:
      ++counters_.stun_packets;
      return;
    case zoom::PacketCategory::Rtcp: {
      ++counters_.rtcp_packets;
      auto& tally = counters_.encap(zp.media->type);
      ++tally.packets;
      tally.bytes += view.l4_payload.size();
      // RTCP accompanies a media stream: attribute bytes to it if the
      // stream exists (it may briefly precede the first media packet),
      // and feed sender reports to the stream's clock mapper (§4.2.3).
      if (auto ssrc = zp.ssrc()) {
        StreamKey key{view.five_tuple(), *ssrc};
        if (StreamInfo* stream = streams_.find(key)) {
          stream->metrics->on_rtcp_packet(view.ts, view.l4_payload.size());
          for (const auto& pkt : zp.rtcp) {
            if (const auto* sr = std::get_if<proto::SenderReport>(&pkt)) {
              stream->metrics->on_sender_report(sr->ntp.to_unix(),
                                                sr->rtp_timestamp,
                                                sr->packet_count);
            }
          }
        }
      }
      return;
    }
    case zoom::PacketCategory::Media:
      break;
  }

  const auto& encap = *zp.media;
  const auto& rtp = *zp.rtp;
  ++counters_.media_packets;
  {
    auto& tally = counters_.encap(encap.type);
    ++tally.packets;
    tally.bytes += view.l4_payload.size();
  }
  auto kind = zp.media_kind().value_or(zoom::MediaKind::Audio);
  {
    auto& tally =
        counters_.payload(static_cast<std::uint8_t>(kind), rtp.payload_type);
    ++tally.packets;
    tally.bytes += view.l4_payload.size();
  }
  // Payload types outside Table 3 are analyzed normally but recorded as
  // a health observation (could be a new Zoom mode — or a flipped bit).
  if (!zoom::is_known_payload_type(kind, rtp.payload_type))
    ++health_.unknown_payload_type;

  StreamInfo& stream = stream_for(view, zp, direction, rtp.ssrc, rtp.timestamp);
  streams_.touch(stream, rtp.timestamp, view.ts);
  if (journal_) {
    journal_->events.push_back(ShardJournal::Event{
        journal_->seq, static_cast<std::uint32_t>(stream.index), view.ts,
        ShardJournal::StreamTouch{stream.last_ext_rtp_ts, stream.last_seen}});
  } else {
    grouper_.touch(stream.meeting_id, view.ts);
  }
  stream.metrics->on_media_packet(view.ts, encap, rtp, zp.rtp_payload.size(),
                                  view.l4_payload.size(), covered_packet_);

  // Offload-covered packets skip the copy matcher entirely: the data
  // plane's spin-bit probe already derived their RTT samples into its
  // histogram registers.
  if (covered_packet_) return;

  // §5.3 method 1: RTT via SFU-forwarded copies. Egress and ingress
  // copies ride different flows, so in sharded mode the match itself is
  // deferred to the merge step's global replay.
  if (direction == StreamDirection::ToSfu) {
    if (journal_) {
      journal_->events.push_back(ShardJournal::Event{
          journal_->seq, static_cast<std::uint32_t>(stream.index), view.ts,
          ShardJournal::RtpEgress{rtp.ssrc, rtp.sequence, rtp.timestamp}});
    } else {
      copy_matcher_.on_egress(view.ts, rtp.ssrc, rtp.sequence, rtp.timestamp);
    }
  } else if (direction == StreamDirection::FromSfu) {
    if (journal_) {
      journal_->events.push_back(ShardJournal::Event{
          journal_->seq, static_cast<std::uint32_t>(stream.index), view.ts,
          ShardJournal::RtpIngress{rtp.ssrc, rtp.sequence, rtp.timestamp}});
    } else if (auto sample = copy_matcher_.on_ingress(view.ts, rtp.ssrc,
                                                      rtp.sequence, rtp.timestamp)) {
      stream.metrics->on_rtt_sample(*sample);
      grouper_.add_rtt_sample(stream.meeting_id, *sample);
    }
  }
}

void Analyzer::finish() {
  for (const auto& stream : streams_.streams()) stream->metrics->finish();
}

}  // namespace zpm::core
