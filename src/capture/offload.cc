#include "capture/offload.h"

#include <bit>

#include "zoom/classify.h"
#include "zoom/constants.h"

namespace zpm::capture {

namespace {

inline std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}

inline std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline std::uint64_t mix64(std::uint64_t key) {
  std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}

/// Jitter scratch key: one stream per (SSRC, direction, media type).
/// Never zero — media_type is one of {13, 15, 16}.
inline std::uint64_t stream_tag(const OffloadFields& f) {
  return (std::uint64_t{f.ssrc} << 16) | (std::uint64_t{f.direction} << 8) |
         f.media_type;
}

/// Probe word: the same (ssrc, seq, rtp_ts) triple on both sides of the
/// SFU hop identifies the upstream packet and its forwarded copy.
inline std::uint64_t probe_word(const OffloadFields& f) {
  const std::uint64_t word = (std::uint64_t{f.ssrc} << 32) ^
                             (std::uint64_t{f.rtp_ts} << 16) ^ f.seq;
  return word == 0 ? 1 : word;  // 0 marks an empty slot
}

/// SSRC-tag register index (flow_slots is a power of two).
inline std::size_t ssrc_slot(std::uint32_t ssrc, std::size_t slots) {
  std::uint64_t x = ssrc * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return static_cast<std::size_t>(x & (slots - 1));
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

std::size_t offload_bucket(std::uint64_t us) {
  if (us < 2) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(us)) - 1;
  return b < kOffloadBuckets - 1 ? b : kOffloadBuckets - 1;
}

void OffloadReport::merge(const OffloadReport& other) {
  jitter.merge(other.jitter);
  rtt.merge(other.rtt);
  util::merge_fields(*this, other, kOffloadReportFields);
}

void encode_offload_report(const OffloadReport& report, util::ByteWriter& w) {
  w.u32be(static_cast<std::uint32_t>(kOffloadBuckets));
  for (std::uint64_t b : report.jitter.buckets) w.u64be(b);
  w.u64be(report.jitter.samples);
  for (std::uint64_t b : report.rtt.buckets) w.u64be(b);
  w.u64be(report.rtt.samples);
  util::encode_fields(report, kOffloadReportFields, w);
}

std::optional<OffloadReport> decode_offload_report(util::ByteReader& r) {
  if (r.u32be() != kOffloadBuckets) return std::nullopt;
  OffloadReport report;
  auto histogram = [&](OffloadHistogram& h) {
    std::uint64_t sum = 0;
    for (std::uint64_t& b : h.buckets) {
      b = r.u64be();
      sum += b;
    }
    h.samples = r.u64be();
    return h.samples == sum;  // counters only ever increment together
  };
  if (!histogram(report.jitter) || !histogram(report.rtt)) return std::nullopt;
  if (!util::decode_fields(r, report, kOffloadReportFields)) return std::nullopt;
  return report;
}

std::optional<OffloadFields> extract_offload_fields(
    std::span<const std::uint8_t> d) {
  // The same clean fixed layout the front end's shape probe verifies:
  // Ethernet + exactly-20-byte IPv4, first fragment, complete UDP
  // header, server media port on either side.
  if (d.size() < 42) return std::nullopt;
  if (d[12] != 0x08 || d[13] != 0x00 || d[14] != 0x45) return std::nullopt;
  if ((be16(d.data() + 20) & 0x1fff) != 0) return std::nullopt;
  if (d[23] != 17) return std::nullopt;
  const std::uint16_t udp_len = be16(d.data() + 38);
  if (udp_len < 8) return std::nullopt;
  const std::uint16_t src_port = be16(d.data() + 34);
  const std::uint16_t dst_port = be16(d.data() + 36);
  if (src_port != zoom::kServerMediaPort && dst_port != zoom::kServerMediaPort)
    return std::nullopt;
  const std::size_t plen = std::min(d.size() - 42, std::size_t{udp_len} - 8);
  const std::uint8_t* pl = d.data() + 42;

  // SFU media encap with a known direction word and one of the three
  // RTP-carrying media types; the full 12-byte RTP fixed header must be
  // present so seq/ts/ssrc are real fields, not padding.
  if (plen < 9 || pl[0] != zoom::kSfuTypeMedia) return std::nullopt;
  const std::uint8_t direction = pl[7];
  if (direction != zoom::kSfuDirToSfu && direction != zoom::kSfuDirFromSfu)
    return std::nullopt;
  const std::uint8_t media_type = pl[8];
  const auto kind = zoom::media_kind_of(media_type);
  if (!kind) return std::nullopt;
  const std::size_t rtp_off = 8 + zoom::media_payload_offset(media_type);
  if (plen < rtp_off + 12) return std::nullopt;
  const std::uint8_t payload_type = pl[rtp_off + 1] & 0x7f;
  if (!zoom::is_known_rtp_payload_type(payload_type)) return std::nullopt;

  OffloadFields f;
  f.direction = direction;
  f.media_type = media_type;
  f.seq = be16(pl + rtp_off + 2);
  f.rtp_ts = be32(pl + rtp_off + 4);
  f.ssrc = be32(pl + rtp_off + 8);
  f.clock_hz =
      *kind == zoom::MediaKind::Audio ? zoom::kAudioClockHz : zoom::kVideoClockHz;
  f.payload_bytes = static_cast<std::uint32_t>(plen);
  return f;
}

// ---------------------------------------------------------------------------
// DataPlaneOffload

DataPlaneOffload::DataPlaneOffload(OffloadConfig config)
    : config_{pow2_at_least(config.flow_slots), pow2_at_least(config.probe_slots)},
      flows_(config_.flow_slots),
      probes_(config_.probe_slots),
      ssrc_tags_(config_.flow_slots) {}

OffloadUpdate DataPlaneOffload::on_media_packet(util::Timestamp arrival,
                                                const OffloadFields& f) {
  OffloadUpdate update;
  ++report_.covered_packets;
  const std::int64_t arr = arrival.us();

  // SSRC tag: a valid slot holding another SSRC is overwritten.
  std::uint64_t& ssrc_tag = ssrc_tags_[ssrc_slot(f.ssrc, config_.flow_slots)];
  const std::uint64_t want = (std::uint64_t{1} << 32) | f.ssrc;
  if (ssrc_tag != 0 && ssrc_tag != want) {
    update.telemetry_collisions = 1;
    ++report_.telemetry_collisions;
  }
  ssrc_tag = want;

  // Interarrival-jitter scratch + global histogram. A sample exists
  // from the third packet of a stream's residency: the first stores the
  // arrival, the second seeds the EWMA with its delta.
  const std::uint64_t tag = stream_tag(f);
  FlowSlot& fs = flows_[mix64(tag) & (config_.flow_slots - 1)];
  if (fs.tag != tag) {
    if (fs.tag != 0) {
      update.flow_evictions = 1;
      ++report_.flow_evictions;
    }
    fs = FlowSlot{tag, arr, 0, false};
  } else {
    std::int64_t delta = arr - fs.last_arrival_us;
    if (delta < 0) delta = 0;  // hostile traces: timestamp regressions
    if (!fs.have_delta) {
      fs.ewma_us = delta;
      fs.have_delta = true;
    } else {
      const std::int64_t dev = delta - fs.ewma_us;
      report_.jitter.add(static_cast<std::uint64_t>(dev < 0 ? -dev : dev));
      fs.ewma_us += (delta - fs.ewma_us) >> 4;  // RFC 3550-style gain 1/16
    }
    fs.last_arrival_us = arr;
  }

  // Spin-bit probe: upstream stamps, the SFU's forwarded copy reads.
  const std::uint64_t word = probe_word(f);
  ProbeSlot& ps = probes_[mix64(word) & (config_.probe_slots - 1)];
  if (f.direction == zoom::kSfuDirToSfu) {
    if (ps.tag != 0 && ps.tag != word) {
      update.probe_collisions = 1;
      ++report_.probe_collisions;
    }
    ps = ProbeSlot{word, arr};
    ++report_.probe_arms;
  } else if (ps.tag == word) {
    const std::int64_t rtt = arr - ps.arrival_us;
    if (rtt >= 0) report_.rtt.add(static_cast<std::uint64_t>(rtt));
    ps.tag = 0;
  }
  return update;
}

OffloadReport DataPlaneOffload::report() const { return report_; }

// ---------------------------------------------------------------------------
// OffloadReference

OffloadReference::OffloadReference(OffloadConfig config)
    : config_{pow2_at_least(config.flow_slots), pow2_at_least(config.probe_slots)},
      flows_(config_.flow_slots),
      probes_(config_.probe_slots),
      ssrcs_(config_.flow_slots) {}

void OffloadReference::on_media_packet(util::Timestamp arrival,
                                       const OffloadFields& f) {
  ++covered_packets_;
  const std::int64_t arr = arrival.us();
  std::uint64_t h = f.ssrc * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  std::optional<std::uint32_t>& owner = ssrcs_[h % ssrcs_.size()];
  if (owner && *owner != f.ssrc) ++telemetry_collisions_;
  owner = f.ssrc;

  const std::uint64_t tag = stream_tag(f);
  FlowState& fs = flows_[mix64(tag) & (config_.flow_slots - 1)];
  if (fs.tag != tag) {
    if (fs.tag != 0) ++flow_evictions_;
    fs = FlowState{tag, arr, 0, false};
  } else {
    std::int64_t delta = arr - fs.last_arrival_us;
    if (delta < 0) delta = 0;
    if (!fs.have_delta) {
      fs.ewma_us = delta;
      fs.have_delta = true;
    } else {
      const std::int64_t dev = delta - fs.ewma_us;
      jitter_samples_.push_back(static_cast<std::uint64_t>(dev < 0 ? -dev : dev));
      fs.ewma_us += (delta - fs.ewma_us) >> 4;
    }
    fs.last_arrival_us = arr;
  }

  const std::uint64_t word = probe_word(f);
  ProbeState& ps = probes_[mix64(word) & (config_.probe_slots - 1)];
  if (f.direction == zoom::kSfuDirToSfu) {
    if (ps.tag != 0 && ps.tag != word) ++probe_collisions_;
    ps = ProbeState{word, arr};
    ++probe_arms_;
  } else if (ps.tag == word) {
    const std::int64_t rtt = arr - ps.arrival_us;
    if (rtt >= 0) rtt_samples_.push_back(static_cast<std::uint64_t>(rtt));
    ps.tag = 0;
  }
}

OffloadReport OffloadReference::report() const {
  OffloadReport report;
  // Loop-based bucket search — an independent formulation of the same
  // [2^b, 2^(b+1)) boundaries the priority-encoder path computes.
  auto bucket_slow = [](std::uint64_t us) {
    std::size_t b = 0;
    while (b + 1 < kOffloadBuckets && us >= (std::uint64_t{1} << (b + 1))) ++b;
    return b;
  };
  for (std::uint64_t us : jitter_samples_) {
    ++report.jitter.buckets[bucket_slow(us)];
    ++report.jitter.samples;
  }
  for (std::uint64_t us : rtt_samples_) {
    ++report.rtt.buckets[bucket_slow(us)];
    ++report.rtt.samples;
  }
  report.covered_packets = covered_packets_;
  report.probe_arms = probe_arms_;
  report.probe_collisions = probe_collisions_;
  report.flow_evictions = flow_evictions_;
  report.telemetry_collisions = telemetry_collisions_;
  return report;
}

// ---------------------------------------------------------------------------
// Resource model

std::vector<ComponentSpec> offload_program_components(const OffloadConfig& config) {
  const std::size_t flow_slots = pow2_at_least(config.flow_slots);
  const std::size_t probe_slots = pow2_at_least(config.probe_slots);
  std::vector<ComponentSpec> components;

  // Histogram stages: media-type dispatch (clock + RTP offset as action
  // data), the jitter scratch read-modify-write, the bucket priority
  // encoder, and the two counter arrays. The embedded per-SSRC
  // telemetry registers ride in the same stages.
  ComponentSpec hist;
  hist.name = "RTT/Jitter Histograms";
  hist.stages = 4;
  hist.instructions = 14;
  hist.hash_units = 1;
  hist.tables.push_back(TableSpec{"media_type_dispatch", MatchType::Exact,
                                  /*entries=*/8, /*key_bits=*/8,
                                  /*action_data_bits=*/40});
  hist.registers.push_back(RegisterSpec{"jitter_scratch", flow_slots, 192});
  hist.registers.push_back(RegisterSpec{"jitter_hist", kOffloadBuckets, 64});
  hist.registers.push_back(RegisterSpec{"rtt_hist", kOffloadBuckets, 64});
  // The SSRC tag behind telemetry_collisions: a 32-bit SSRC plus a
  // valid bit per flow slot (DataPlaneOffload::ssrc_tags_).
  hist.registers.push_back(RegisterSpec{"ssrc_telemetry", flow_slots, 33});
  components.push_back(std::move(hist));

  // Spin-bit probe: one hash over (ssrc, seq, ts), a stamp/match/clear
  // register, and the RTT subtraction feeding the histogram above.
  ComponentSpec probe;
  probe.name = "Spin-Bit RTT Probe";
  probe.stages = 3;
  probe.instructions = 10;
  probe.hash_units = 1;
  probe.registers.push_back(RegisterSpec{"rtt_probe", probe_slots, 128});
  components.push_back(std::move(probe));
  return components;
}

}  // namespace zpm::capture
