#include "synth.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "net/build.h"
#include "net/pcap.h"
#include "sim/meeting.h"
#include "util/rng.h"
#include "zoom/server_db.h"

namespace zpm::perfbench {

namespace {

using util::Duration;
using util::Timestamp;

const net::Ipv4Addr kCampusBase(10, 8, 0, 0);

/// One meeting of the fixed shape; the rng draws addresses and paths.
sim::MeetingConfig make_meeting(const TraceShape& shape, std::size_t index,
                                Timestamp start, Duration span,
                                util::Rng& rng) {
  sim::MeetingConfig mc;
  mc.seed = rng.next_u64();
  mc.start = start + Duration::seconds(rng.uniform(0.0, 2.0));
  mc.duration = span + Duration::seconds(60.0);  // runs past the capture
  const auto& sites = zoom::census_sites();
  const auto& site = sites[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1))];
  mc.sfu_ip = net::Ipv4Addr(site.subnet.base().value() + 3000 +
                            static_cast<std::uint32_t>(rng.uniform_int(0, 900)));
  mc.zone_controller_ip =
      net::Ipv4Addr(sites[0].subnet.base().value() + 1500 +
                    static_cast<std::uint32_t>(rng.uniform_int(0, 60)));
  mc.ssrc_base = static_cast<std::uint32_t>((index % 40) * 64);
  for (std::size_t p = 0; p < shape.participants; ++p) {
    sim::ParticipantConfig pc;
    pc.on_campus = p < 2;
    const auto host = static_cast<std::uint32_t>(index * 16 + p);
    pc.ip = pc.on_campus
                ? net::Ipv4Addr(kCampusBase.value() + 256 + host)
                : net::Ipv4Addr(0x62000000u /*98.0.0.0*/ + 0x100 + host * 7);
    // Every fourth meeting is a presentation: one screen share.
    pc.send_screen_share = index % 4 == 0 && p == 0;
    pc.wan_path.base_delay_ms = rng.uniform(8.0, 35.0);
    pc.wan_path.jitter_ms = rng.uniform(0.6, 3.5);
    pc.wan_path.loss = rng.uniform(0.0005, 0.004);
    pc.access_path.base_delay_ms = rng.uniform(0.8, 4.0);
    mc.participants.push_back(std::move(pc));
  }
  return mc;
}

/// A campus <-> Internet packet that matches no Zoom subnet or port.
net::RawPacket make_background(Timestamp t, util::Rng& rng,
                               std::vector<std::uint8_t>& payload) {
  const net::Ipv4Addr campus(kCampusBase.value() + 40000 +
                             rng.next_u32() % 20000);
  net::Ipv4Addr external(0x17000000u /*23.0.0.0*/ + rng.next_u32() % 0x00ffffff);
  if (zoom::ServerDb::official().contains(external))
    external = net::Ipv4Addr(0x17000001u);
  const bool outbound = rng.chance(0.5);
  payload.assign(static_cast<std::size_t>(rng.uniform_int(0, 1300)), 0xaa);
  const auto sport = static_cast<std::uint16_t>(rng.uniform_int(1024, 65000));
  if (rng.chance(0.7)) {
    return outbound ? net::build_tcp(t, campus, sport, external, 443,
                                     rng.next_u32(), rng.next_u32(),
                                     net::kTcpAck, payload)
                    : net::build_tcp(t, external, 443, campus, sport,
                                     rng.next_u32(), rng.next_u32(),
                                     net::kTcpAck, payload);
  }
  const auto dport = static_cast<std::uint16_t>(rng.uniform_int(1024, 65000));
  return outbound ? net::build_udp(t, campus, sport, external, dport, payload)
                  : net::build_udp(t, external, dport, campus, sport, payload);
}

}  // namespace

bool synthesize(const TraceShape& shape, std::uint64_t seed, double start_s,
                const std::string& path, TraceInfo& out) {
  util::Rng rng(seed);
  const Timestamp start = Timestamp::from_seconds(start_s);
  const Duration span = Duration::seconds(shape.seconds);
  const Timestamp end = start + span;

  std::vector<std::unique_ptr<sim::MeetingSim>> meetings;
  for (std::size_t i = 0; i < shape.meetings; ++i)
    meetings.push_back(std::make_unique<sim::MeetingSim>(
        make_meeting(shape, i, start, span, rng)));

  // Timestamp merge of the meetings and the background stream (index
  // meetings.size()).
  struct Head {
    Timestamp t;
    std::size_t src;
    bool operator>(const Head& o) const {
      return t != o.t ? t > o.t : src > o.src;
    }
  };
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  std::vector<std::optional<net::RawPacket>> staged(meetings.size() + 1);
  const std::size_t bg = meetings.size();
  std::vector<std::uint8_t> payload;
  Timestamp bg_next = start;
  const auto stage = [&](std::size_t src) {
    if (src == bg) {
      staged[src].reset();
      if (shape.background_pps <= 0) return;
      bg_next += Duration::seconds(rng.exponential(1.0 / shape.background_pps));
      if (bg_next < end) staged[src] = make_background(bg_next, rng, payload);
    } else {
      staged[src] = meetings[src]->next_packet();
    }
    if (staged[src] && staged[src]->ts < end) heap.push(Head{staged[src]->ts, src});
  };
  for (std::size_t src = 0; src <= bg; ++src) stage(src);

  out = TraceInfo{};
  out.path = path;
  out.meetings = meetings.size();
  {
    net::PcapWriter writer(path);
    while (!heap.empty()) {
      const Head head = heap.top();
      heap.pop();
      writer.write(*staged[head.src]);
      if (head.src != bg) ++out.zoom_packets;
      stage(head.src);
    }
    out.packets = writer.packets_written();
    if (!writer.ok()) return false;
  }
  std::error_code ec;
  out.bytes = std::filesystem::file_size(path, ec);
  return !ec;
}

bool sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  return synced;
}

}  // namespace zpm::perfbench
