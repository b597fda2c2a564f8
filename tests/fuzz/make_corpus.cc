// Seed-corpus generator for the fuzz targets. Writes one directory per
// target under the output root (default tests/fuzz/corpus), each seeded
// with well-formed protocol bytes produced by the same builders the
// simulator uses — the fuzzer then only has to mutate its way into the
// interesting malformed neighborhoods instead of rediscovering the
// formats from scratch.
//
// Usage: make_fuzz_corpus [output_root]
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/snapshot.h"
#include "capture/offload.h"
#include "net/build.h"
#include "net/pcap.h"
#include "query/query.h"
#include "sketch/sketch.h"
#include "proto/rtcp.h"
#include "proto/rtp.h"
#include "proto/stun.h"
#include "sim/wire.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "zoom/constants.h"

using namespace zpm;

namespace {

namespace fs = std::filesystem;

void write_seed(const fs::path& dir, const std::string& name,
                std::span<const std::uint8_t> bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> media_payload(zoom::MediaEncapType type,
                                        std::uint8_t payload_type,
                                        std::size_t bytes, util::Rng& rng) {
  sim::MediaPacketSpec spec;
  spec.encap_type = type;
  spec.payload_type = payload_type;
  spec.ssrc = 17;
  spec.rtp_seq = 1000;
  spec.rtp_timestamp = 90'000;
  spec.media_encap_seq = 42;
  spec.media_encap_ts = 123'456;
  spec.packets_in_frame = 3;
  spec.payload_bytes = bytes;
  return sim::build_media_payload(spec, rng);
}

std::vector<std::uint8_t> rtcp_payload(util::Rng& rng, bool with_sdes) {
  proto::SenderReport sr;
  sr.sender_ssrc = 17;
  sr.ntp = proto::NtpTimestamp::from_unix(util::Timestamp::from_seconds(1'000));
  sr.rtp_timestamp = 90'000;
  sr.packet_count = 250;
  sr.octet_count = 250'000;
  return sim::build_rtcp_payload(17, sr, with_sdes, 7, rng);
}

std::vector<std::uint8_t> stun_bytes(bool response) {
  proto::StunMessage msg;
  msg.type = response ? proto::kStunBindingResponse : proto::kStunBindingRequest;
  for (std::size_t i = 0; i < msg.transaction_id.size(); ++i)
    msg.transaction_id[i] = static_cast<std::uint8_t>(0xA0 + i);
  if (response) {
    proto::StunAttribute attr;
    attr.type = proto::kStunAttrXorMappedAddress;
    attr.value = {0x00, 0x01, 0x51, 0x43, 0x5e, 0x12, 0xa4, 0x43};
    msg.attributes.push_back(attr);
  } else {
    proto::StunAttribute software;
    software.type = proto::kStunAttrSoftware;
    software.value = {'z', 'o', 'o', 'm'};
    msg.attributes.push_back(software);
  }
  util::ByteWriter w;
  msg.serialize(w);
  return {w.view().begin(), w.view().end()};
}

/// [flags u8][len u16le][payload] — the fuzz_pipeline record format.
void append_record(std::vector<std::uint8_t>& out, std::uint8_t flags,
                   std::span<const std::uint8_t> payload) {
  out.push_back(flags);
  out.push_back(static_cast<std::uint8_t>(payload.size() & 0xFF));
  out.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  out.insert(out.end(), payload.begin(), payload.end());
}

void le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void le16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

/// Minimal valid pcapng: SHB + IDB (with if_tsresol option) + one EPB.
std::vector<std::uint8_t> pcapng_bytes(std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> out;
  auto block = [&out](std::uint32_t type, std::vector<std::uint8_t> body) {
    while (body.size() % 4 != 0) body.push_back(0);
    auto total = static_cast<std::uint32_t>(12 + body.size());
    le32(out, type);
    le32(out, total);
    out.insert(out.end(), body.begin(), body.end());
    le32(out, total);
  };
  {
    // Section Header Block.
    std::vector<std::uint8_t> body;
    le32(body, 0x1A2B3C4D);  // byte-order magic
    le16(body, 1);           // major
    le16(body, 0);           // minor
    le32(body, 0xFFFFFFFF);  // section length unknown (64-bit -1)
    le32(body, 0xFFFFFFFF);
    block(0x0A0D0D0A, std::move(body));
  }
  {
    // Interface Description Block: linktype 1, if_tsresol = 6 (micros).
    std::vector<std::uint8_t> body;
    le16(body, 1);  // LINKTYPE_ETHERNET
    le16(body, 0);  // reserved
    le32(body, 0);  // snaplen unlimited
    le16(body, 9);  // if_tsresol
    le16(body, 1);  // option length (value padded to 4)
    body.insert(body.end(), {6, 0, 0, 0});
    le16(body, 0);  // opt_endofopt
    le16(body, 0);
    block(0x00000001, std::move(body));
  }
  {
    // Enhanced Packet Block.
    std::vector<std::uint8_t> body;
    le32(body, 0);  // interface 0
    std::uint64_t ts = 1'000'000'000ull;  // 1000 s in micros (tsresol 6)
    le32(body, static_cast<std::uint32_t>(ts >> 32));
    le32(body, static_cast<std::uint32_t>(ts));
    auto captured = static_cast<std::uint32_t>(frame.size());
    le32(body, captured);
    le32(body, captured);
    body.insert(body.end(), frame.begin(), frame.end());
    block(0x00000006, std::move(body));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path("tests/fuzz/corpus");
  util::Rng rng(0xF022);

  auto video = media_payload(zoom::MediaEncapType::Video, zoom::pt::kVideoMain,
                             600, rng);
  auto audio = media_payload(zoom::MediaEncapType::Audio,
                             zoom::pt::kAudioSpeaking, 120, rng);
  auto screen = media_payload(zoom::MediaEncapType::ScreenShare,
                              zoom::pt::kScreenShareMain, 800, rng);
  auto rtcp = rtcp_payload(rng, false);
  auto rtcp_sdes = rtcp_payload(rng, true);
  auto unknown = sim::build_unknown_payload(24, 5, 90, rng);
  auto sfu_video = sim::wrap_sfu(video, 100, true);
  auto sfu_audio = sim::wrap_sfu(audio, 101, false);
  auto sfu_screen = sim::wrap_sfu(screen, 102, true);
  auto sfu_rtcp = sim::wrap_sfu(rtcp, 103, true);
  auto sfu_rtcp_sdes = sim::wrap_sfu(rtcp_sdes, 104, true);
  auto sfu_unknown = sim::wrap_sfu(unknown, 105, false);
  auto sfu_odd = sim::wrap_sfu(video, 106, true, 0x07);

  // fuzz_encap: SFU-wrapped (server transport) and bare (P2P) payloads.
  write_seed(root / "fuzz_encap", "sfu_video.bin", sfu_video);
  write_seed(root / "fuzz_encap", "sfu_audio.bin", sfu_audio);
  write_seed(root / "fuzz_encap", "sfu_screen.bin", sfu_screen);
  write_seed(root / "fuzz_encap", "sfu_rtcp.bin", sfu_rtcp);
  write_seed(root / "fuzz_encap", "sfu_rtcp_sdes.bin", sfu_rtcp_sdes);
  write_seed(root / "fuzz_encap", "sfu_unknown.bin", sfu_unknown);
  write_seed(root / "fuzz_encap", "sfu_odd_type.bin", sfu_odd);
  write_seed(root / "fuzz_encap", "p2p_video.bin", video);
  write_seed(root / "fuzz_encap", "p2p_audio.bin", audio);

  // fuzz_rtp: the RTP portion (skip the media encap header).
  {
    std::size_t off = zoom::media_payload_offset(
        static_cast<std::uint8_t>(zoom::MediaEncapType::Video));
    std::span<const std::uint8_t> v(video);
    write_seed(root / "fuzz_rtp", "video_rtp.bin", v.subspan(off));
    off = zoom::media_payload_offset(
        static_cast<std::uint8_t>(zoom::MediaEncapType::Audio));
    std::span<const std::uint8_t> a(audio);
    write_seed(root / "fuzz_rtp", "audio_rtp.bin", a.subspan(off));
    // One with CSRCs and an extension block.
    proto::RtpHeader h;
    h.csrc_count = 2;
    h.csrcs = {1, 2};
    h.extension = true;
    h.extension_profile = 0xBEDE;
    h.extension_data = {1, 2, 3, 4};
    h.payload_type = zoom::pt::kVideoMain;
    h.sequence = 7;
    h.timestamp = 1234;
    h.ssrc = 99;
    util::ByteWriter w;
    h.serialize(w);
    std::vector<std::uint8_t> bytes(w.view().begin(), w.view().end());
    bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    write_seed(root / "fuzz_rtp", "csrc_ext.bin", bytes);
  }

  // fuzz_rtcp: compound bodies (strip media encap + the RTCP offset).
  {
    std::size_t off = zoom::media_payload_offset(
        static_cast<std::uint8_t>(zoom::MediaEncapType::RtcpSr));
    std::span<const std::uint8_t> r1(rtcp);
    write_seed(root / "fuzz_rtcp", "sr.bin", r1.subspan(off));
    std::span<const std::uint8_t> r2(rtcp_sdes);
    write_seed(root / "fuzz_rtcp", "sr_sdes.bin", r2.subspan(off));
  }

  // fuzz_stun.
  write_seed(root / "fuzz_stun", "binding_request.bin", stun_bytes(false));
  write_seed(root / "fuzz_stun", "binding_response.bin", stun_bytes(true));

  // fuzz_capture_file: classic pcap + pcapng wrapping real frames.
  auto ts = util::Timestamp::from_seconds(1000);
  net::Ipv4Addr client(10, 8, 0, 1);
  net::Ipv4Addr server(170, 114, 0, 10);
  auto frame1 = net::build_udp(ts, client, 45000, server, 8801, sfu_video);
  auto frame2 = net::build_udp(ts + util::Duration::millis(20), server, 8801,
                               client, 45000, sfu_audio);
  auto frame3 = net::build_udp(ts + util::Duration::millis(40), client, 52000,
                               server, 3478, stun_bytes(false));
  {
    std::ostringstream buf;
    net::PcapWriter writer(buf);
    writer.write(frame1);
    writer.write(frame2);
    writer.write(frame3);
    std::string s = buf.str();
    write_seed(root / "fuzz_capture_file", "three_packets.pcap",
               {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  {
    std::ostringstream buf;
    net::PcapWriter writer(buf, 96);  // snaplen-truncating writer
    writer.write(frame1);
    std::string s = buf.str();
    write_seed(root / "fuzz_capture_file", "truncated.pcap",
               {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  write_seed(root / "fuzz_capture_file", "one_packet.pcapng",
             pcapng_bytes(frame1.data));

  // fuzz_pipeline: a record stream touching every flag mode.
  {
    std::vector<std::uint8_t> stream;
    append_record(stream, 0x00, sfu_video);          // client -> server media
    append_record(stream, 0x04, sfu_audio);          // server -> client media
    append_record(stream, 0x00, sfu_rtcp);           // RTCP
    append_record(stream, 0x02, stun_bytes(false));  // STUN request
    append_record(stream, 0x06, stun_bytes(true));   // STUN response
    append_record(stream, 0x08, video);              // P2P-shaped media
    append_record(stream, 0x10, sfu_screen);         // timestamp regression
    append_record(stream, 0x00, unknown);            // undecodable control
    append_record(stream, 0x01, frame1.data);        // raw frame mode
    write_seed(root / "fuzz_pipeline", "mixed.bin", stream);

    std::vector<std::uint8_t> hostile;
    std::vector<std::uint8_t> shortv(sfu_video.begin(), sfu_video.begin() + 6);
    append_record(hostile, 0x00, shortv);  // truncated SFU encap
    std::vector<std::uint8_t> bad_rtp = sfu_video;
    bad_rtp[8 + 27] = 0x00;  // RTP version byte zeroed (media offset 27)
    append_record(hostile, 0x00, bad_rtp);
    std::vector<std::uint8_t> garbage(64, 0xAA);
    append_record(hostile, 0x02, garbage);  // not-STUN on 3478
    append_record(hostile, 0x01, garbage);  // undecodable raw frame
    write_seed(root / "fuzz_pipeline", "hostile.bin", hostile);
  }

  // fuzz_batch_filter: same record framing as fuzz_pipeline but replayed
  // through the scalar-vs-SIMD differential front-end harness. Seeds cover
  // server media both directions, STUN arming an external peer (so the
  // candidate-endpoint path admits its later media), port squatters that
  // must stay un-Zoom-shaped, and raw frames with arbitrary layouts.
  {
    std::vector<std::uint8_t> stream;
    append_record(stream, 0x00, sfu_video);          // client -> server media
    append_record(stream, 0x04, sfu_audio);          // server -> client media
    append_record(stream, 0x02, stun_bytes(false));  // STUN to a server
    append_record(stream, 0x0A, stun_bytes(true));   // STUN with external peer
    append_record(stream, 0x08, video);              // external peer, armed above
    append_record(stream, 0x00, sfu_rtcp);           // RTCP encap
    append_record(stream, 0x01, frame1.data);        // raw well-formed frame
    write_seed(root / "fuzz_batch_filter", "mixed.bin", stream);

    std::vector<std::uint8_t> squatters;
    std::vector<std::uint8_t> garbage(96, 0x5A);
    append_record(squatters, 0x08, garbage);  // external 8801 squatter
    append_record(squatters, 0x0A, garbage);  // external 3478 squatter
    append_record(squatters, 0x00, garbage);  // server-port garbage
    std::vector<std::uint8_t> shortv(sfu_video.begin(), sfu_video.begin() + 6);
    append_record(squatters, 0x04, shortv);   // truncated encap from server
    append_record(squatters, 0x01, garbage);  // raw undecodable frame
    // Clean-looking IPv4 prefix cut inside the address fields: the
    // probe must refuse it without reading past the frame end.
    std::vector<std::uint8_t> cut(32, 0);
    cut[12] = 0x08;
    cut[14] = 0x45;
    cut[17] = 40;  // plausible total_length
    cut[23] = 17;
    append_record(squatters, 0x01, cut);
    write_seed(root / "fuzz_batch_filter", "squatters.bin", squatters);
  }

  // fuzz_sketch: [budget-exponent u8] then [op u8][flow u16le][val u16le]
  // records driving the FlowTier-vs-exact differential harness. One seed
  // under constant eviction pressure (tiny budget, wide flow spread) and
  // one exercising the promote/demote round trip on a comfortable budget.
  {
    auto record = [](std::vector<std::uint8_t>& out, std::uint8_t op,
                     std::uint16_t flow, std::uint16_t val) {
      out.push_back(op);
      le16(out, flow);
      le16(out, val);
    };
    std::vector<std::uint8_t> pressure;
    pressure.push_back(0);  // 1-byte budget: minimum tables
    for (std::uint16_t n = 0; n < 96; ++n)
      record(pressure, 0, static_cast<std::uint16_t>(n * 5), 700);
    write_seed(root / "fuzz_sketch", "eviction_pressure.bin", pressure);

    std::vector<std::uint8_t> churn;
    churn.push_back(18);  // 256 KiB budget
    for (std::uint16_t n = 0; n < 8; ++n) {
      for (int rep = 0; rep < 4; ++rep) record(churn, 0, n, 1200);
      record(churn, 2, n, 0);  // promote
      record(churn, 3, n, 64); // demote back
      record(churn, 1, n, 900);
    }
    write_seed(root / "fuzz_sketch", "promote_demote.bin", churn);
  }

  // fuzz_snapshot: [selector u8][file image] — selector % 5 routes to
  // the snapshot, epoch-file, or FlowTier-image parser, or (3, 4) to
  // the snapshot / epoch-file parser after the target frames a bare
  // payload. Seeds are well-formed images of each so the fuzzer starts
  // past the CRC and only has to mutate its way into the framing and
  // payload decoders.
  {
    analysis::EpochReport rep;
    rep.seq = 2;
    rep.first_packet = 1400;
    rep.packets = 700;
    rep.first_ts = util::Timestamp::from_seconds(1'000);
    rep.last_ts = util::Timestamp::from_seconds(1'007);
    rep.counters.total_packets = 700;
    rep.counters.zoom_packets = 320;
    rep.counters.zoom_bytes = 280'000;
    rep.counters.encap_tally[5] = {100, 90'000};
    rep.counters.payload_tally[98] = {80, 70'000};
    rep.health.frontend_rejected = 380;
    rep.health.epoch_evicted_flows = 3;
    rep.stream_count = 4;
    rep.zoom_flow_count = 3;
    rep.tier_stats.absorbed_packets = 380;
    sketch::HeavyHitter h;
    h.flow = net::FiveTuple{net::Ipv4Addr(10, 8, 1, 20),
                            net::Ipv4Addr(170, 114, 0, 10), 52'000, 8801, 17};
    h.packets = 120;
    h.bytes = 140'000;
    rep.heavy_hitters.push_back(h);

    analysis::SnapshotData snap;
    snap.next_epoch_seq = 3;
    snap.packets_consumed = 2100;
    snap.cumulative_counters.merge(rep.counters);
    snap.cumulative_health.merge(rep.health);
    snap.recent_epochs.push_back(rep);

    sketch::FlowTier tier(std::size_t{1} << 14);
    for (std::uint16_t n = 0; n < 40; ++n) {
      net::FiveTuple t;
      t.src_ip = net::Ipv4Addr(10, 8, 0, static_cast<std::uint8_t>(n));
      t.dst_ip = net::Ipv4Addr(93, 184, 216, 34);
      t.src_port = static_cast<std::uint16_t>(40'000 + n);
      t.dst_port = 443;
      t.protocol = 17;
      const net::PackedFlowKey key(t);
      tier.absorb(key, net::canonical_flow_hash(key), 900);
    }
    util::ByteWriter tw;
    tier.serialize(tw);
    snap.background_tier = tw.data();

    std::vector<std::uint8_t> seed;
    seed.push_back(0);  // selector: snapshot
    const auto snap_bytes = analysis::encode_snapshot(snap);
    seed.insert(seed.end(), snap_bytes.begin(), snap_bytes.end());
    write_seed(root / "fuzz_snapshot", "snapshot.bin", seed);

    seed.clear();
    seed.push_back(1);  // selector: epoch file
    const auto epoch_bytes = analysis::encode_epoch_file(rep);
    seed.insert(seed.end(), epoch_bytes.begin(), epoch_bytes.end());
    write_seed(root / "fuzz_snapshot", "epoch.bin", seed);

    seed.clear();
    seed.push_back(2);   // selector: tier image
    seed.push_back(14);  // budget exponent matching the tier above
    seed.insert(seed.end(), tw.data().begin(), tw.data().end());
    write_seed(root / "fuzz_snapshot", "tier.bin", seed);

    // Payload-only seeds: every counter of the four field-table structs
    // (AnalyzerCounters' scalars, AnalyzerHealth, TierStats and the
    // OffloadReport scalars) holds a distinct value, stored in
    // declaration order without the tables, so a reordered table row
    // decodes them into the wrong fields (tests/test_crc32.cc WireOrder).
    analysis::EpochReport dense = rep;
    std::uint64_t next = 1;
    const auto fill = [&next](void* first, std::size_t bytes) {
      for (std::size_t at = 0; at < bytes; at += sizeof next, ++next)
        std::memcpy(static_cast<std::uint8_t*>(first) + at, &next, sizeof next);
    };
    fill(&dense.counters, offsetof(core::AnalyzerCounters, encap_tally));
    fill(&dense.health, sizeof dense.health);
    fill(&dense.tier_stats, sizeof dense.tier_stats);
    fill(&dense.offload.covered_packets,
         sizeof dense.offload - offsetof(capture::OffloadReport, covered_packets));
    dense.offload.jitter.add(900);
    dense.offload.rtt.add(18'000);
    analysis::SnapshotData dense_snap = snap;
    dense_snap.cumulative_counters = dense.counters;
    dense_snap.cumulative_health = dense.health;
    dense_snap.recent_epochs = {dense};

    constexpr std::size_t kFrameHeader = 20;  // magic, version, len, crc
    seed.assign(1, 3);  // selector: framed snapshot payload
    const auto dense_snap_bytes = analysis::encode_snapshot(dense_snap);
    seed.insert(seed.end(), dense_snap_bytes.begin() + kFrameHeader,
                dense_snap_bytes.end());
    write_seed(root / "fuzz_snapshot", "snapshot_payload.bin", seed);

    seed.assign(1, 4);  // selector: framed epoch-file payload
    const auto dense_epoch_bytes = analysis::encode_epoch_file(dense);
    seed.insert(seed.end(), dense_epoch_bytes.begin() + kFrameHeader,
                dense_epoch_bytes.end());
    write_seed(root / "fuzz_snapshot", "epoch_payload.bin", seed);
  }

  // fuzz_overload: [selector u8] routes even -> governor observation
  // stream ([cfg 6 bytes] then [kind u8][value u16le] records), odd ->
  // PressureSchedule::parse over the rest as a spec string. One seed
  // rides the ladder up and back down through the default-ish tuning
  // (with a mid-stream 0xff retune record), one hands the parser a
  // valid multi-range spec to mutate from.
  {
    std::vector<std::uint8_t> ladder;
    ladder.push_back(0);   // selector: governor
    ladder.push_back(254); // alpha ~1.0
    ladder.push_back(109); // high watermark ~0.85
    ladder.push_back(45);  // low watermark ~0.35
    ladder.push_back(1);   // escalate_after 2
    ladder.push_back(3);   // recover_after 4
    ladder.push_back(128); // spins_hi
    auto obs = [&ladder](std::uint8_t kind, std::uint16_t value) {
      ladder.push_back(kind);
      le16(ladder, value);
    };
    for (int i = 0; i < 10; ++i) obs(0, 100);  // raw pressure 1.0: climb
    obs(0xff, 0);                              // retune record...
    ladder.push_back(128);                     // ...new config, 6 bytes
    ladder.push_back(109);
    ladder.push_back(45);
    ladder.push_back(2);
    ladder.push_back(2);
    ladder.push_back(64);
    for (int i = 0; i < 12; ++i) obs(0, 0);    // calm: recover
    obs(1, 0x800f);  // live path: full ring + a kernel drop
    obs(1, 0x3f00);  // live path: high latency only
    write_seed(root / "fuzz_overload", "ladder.bin", ladder);

    const std::string spec = "0-128:0.5,5000-20000:0.95,30000-40000:1.2";
    std::vector<std::uint8_t> sched;
    sched.push_back(1);  // selector: schedule parser
    sched.insert(sched.end(), spec.begin(), spec.end());
    write_seed(root / "fuzz_overload", "schedule.bin", sched);
  }

  // fuzz_offload: [selector u8] routes 0 -> the register-vs-reference
  // update-stream differential, 1 -> the OffloadReport codec, 2 -> field
  // extraction over a raw frame. Seeds: a two-stream update schedule
  // with both SFU directions (so the probe arms and matches), a valid
  // encoded report, and a well-formed covered media frame.
  {
    std::vector<std::uint8_t> updates;
    updates.push_back(0);  // selector: update stream
    auto op = [&updates](std::uint8_t dir_media, std::uint8_t ssrc,
                         std::uint16_t seq, std::uint16_t ts,
                         std::int16_t dt) {
      updates.push_back(dir_media);
      updates.push_back(ssrc);
      le16(updates, seq);
      le16(updates, ts);
      le16(updates, static_cast<std::uint16_t>(dt));
    };
    for (std::uint16_t i = 0; i < 24; ++i) {
      op(0, 3, i, static_cast<std::uint16_t>(i * 4), 33);  // video up
      op(1, 3, i, static_cast<std::uint16_t>(i * 4), 8);   // forwarded copy
      op(2, 9, i, static_cast<std::uint16_t>(i * 2), 20);  // audio up
    }
    op(0, 3, 50, 200, -500);  // hostile: timestamp regression
    write_seed(root / "fuzz_offload", "update_stream.bin", updates);

    capture::OffloadReport orep;
    orep.jitter.add(900);
    orep.jitter.add(2'400);
    orep.rtt.add(18'000);
    orep.covered_packets = 3;
    orep.probe_arms = 2;
    orep.flow_evictions = 1;
    util::ByteWriter ow;
    capture::encode_offload_report(orep, ow);
    std::vector<std::uint8_t> codec;
    codec.push_back(1);  // selector: codec
    codec.insert(codec.end(), ow.view().begin(), ow.view().end());
    write_seed(root / "fuzz_offload", "report.bin", codec);

    std::vector<std::uint8_t> frame;
    frame.push_back(2);  // selector: field extraction
    frame.insert(frame.end(), frame1.data.begin(), frame1.data.end());
    write_seed(root / "fuzz_offload", "covered_frame.bin", frame);
  }

  // fuzz_query: [selector u8] routes 0 -> journal file image, 1 ->
  // record payload, 2 -> query-request text, 3 -> MANIFEST text, 4 ->
  // journal image with its CRCs recomputed. Seeds: a sealed two-record
  // journal and its unsealed (scan-path) twin, the sealed one again
  // under the re-framing selector, one encoded record, and canonical
  // request/manifest text, so the fuzzer starts past the CRC framing
  // and the header grammar.
  {
    query::EpochSlice slice;
    slice.seq = 0;
    slice.packets = 500;
    slice.first_us = 1'700'000'000'000'000;
    slice.last_us = slice.first_us + 5'000'000;

    query::MeetingRow meeting;
    meeting.meeting_key =
        (std::uint64_t{net::Ipv4Addr(10, 8, 1, 20).value()} << 16) | 52'000;
    meeting.stream_rows = 1;
    meeting.participants = 2;
    meeting.first_us = slice.first_us;
    meeting.last_us = slice.last_us;
    meeting.sfu_rtt_us.add(12'000);
    slice.meetings.push_back(meeting);

    query::StreamRow stream;
    net::FiveTuple t{net::Ipv4Addr(10, 8, 1, 20),
                     net::Ipv4Addr(170, 114, 0, 10), 52'000, 8801, 17};
    stream.flow = net::PackedFlowKey(t);
    stream.ssrc = 17;
    stream.meeting_key = meeting.meeting_key;
    stream.client_ip = net::Ipv4Addr(10, 8, 1, 20).value();
    stream.client_port = 52'000;
    stream.first_us = slice.first_us;
    stream.last_us = slice.last_us;
    stream.media_packets = 480;
    stream.media_payload_bytes = 400'000;
    stream.received = 480;
    stream.unique_packets = 478;
    stream.duplicates = 2;
    stream.frames = 150;
    stream.seconds = 5;
    stream.rtt_us.add(20'000);
    stream.jitter_us.add(900);
    stream.bitrate_kbps.add(640);
    slice.streams.push_back(stream);

    query::EpochSlice slice2 = slice;
    slice2.seq = 1;
    slice2.first_packet = slice.packets;
    slice2.first_us = slice.last_us + 1;
    slice2.last_us = slice2.first_us + 5'000'000;

    const auto journal_bytes = [&](bool finalize) {
      const fs::path tmp = root / "tmp_journal.zpmj";
      query::JournalWriter writer;
      std::string error;
      writer.open(tmp.string(), "lab", 1, &error);
      writer.append(slice, &error);
      writer.append(slice2, &error);
      if (finalize)
        writer.finalize(&error);
      else
        writer.abandon();
      std::ifstream in(tmp, std::ios::binary);
      std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()};
      fs::remove(tmp);
      return bytes;
    };
    std::vector<std::uint8_t> seed;
    seed.push_back(0);  // selector: journal image
    const auto sealed = journal_bytes(true);
    seed.insert(seed.end(), sealed.begin(), sealed.end());
    write_seed(root / "fuzz_query", "journal_sealed.bin", seed);

    seed.clear();
    seed.push_back(0);
    const auto unsealed = journal_bytes(false);
    seed.insert(seed.end(), unsealed.begin(), unsealed.end());
    write_seed(root / "fuzz_query", "journal_unsealed.bin", seed);

    seed.clear();
    seed.push_back(4);  // selector: re-framed journal image
    seed.insert(seed.end(), sealed.begin(), sealed.end());
    write_seed(root / "fuzz_query", "journal_reframed.bin", seed);

    seed.clear();
    seed.push_back(1);  // selector: record payload
    util::ByteWriter sw;
    query::encode_epoch_slice(slice, sw);
    seed.insert(seed.end(), sw.view().begin(), sw.view().end());
    write_seed(root / "fuzz_query", "slice.bin", seed);

    query::QueryRequest request;
    request.from_us = slice.first_us;
    request.to_us = slice2.last_us;
    request.metric = query::QueryMetric::SfuRtt;
    request.group = query::QueryGroupBy::Meeting;
    request.has_meeting = true;
    request.meeting_key = meeting.meeting_key;
    const std::string spec = query::format_query_request(request);
    seed.assign(1, 2);  // selector: request text
    seed.insert(seed.end(), spec.begin(), spec.end());
    write_seed(root / "fuzz_query", "request.bin", seed);

    query::Manifest manifest;
    manifest.entries.push_back({"journal-lab-000000000000.zpmj", "lab",
                                slice.first_us, slice2.last_us, 2, 2});
    const std::string text = query::format_manifest(manifest);
    seed.assign(1, 3);  // selector: manifest text
    seed.insert(seed.end(), text.begin(), text.end());
    write_seed(root / "fuzz_query", "manifest.bin", seed);
  }

  // fuzz_crc32: [seed u32le][offset u8][split u16le][data]. The check
  // string with a zero seed, and a 1100-byte random block with a
  // nonzero seed, an odd offset and a split inside the folding bulk.
  {
    const std::string check = "123456789";
    std::vector<std::uint8_t> seed(7, 0);
    seed.insert(seed.end(), check.begin(), check.end());
    write_seed(root / "fuzz_crc32", "check_string.bin", seed);

    util::Rng rng(1100);
    seed = {0x78, 0x56, 0x34, 0x12, 5, 0x2c, 0x01};  // seed, offset, split 300
    for (int i = 0; i < 1100; ++i)
      seed.push_back(static_cast<std::uint8_t>(rng.next_u32()));
    write_seed(root / "fuzz_crc32", "random_1100.bin", seed);
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
