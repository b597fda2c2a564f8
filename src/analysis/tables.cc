#include "analysis/tables.h"

#include <algorithm>

namespace zpm::analysis {

namespace {

std::string encap_type_label(std::uint8_t value) {
  switch (static_cast<zoom::MediaEncapType>(value)) {
    case zoom::MediaEncapType::Video: return "RTP: Video";
    case zoom::MediaEncapType::Audio: return "RTP: Audio";
    case zoom::MediaEncapType::ScreenShare: return "RTP: Screen Share";
    case zoom::MediaEncapType::RtcpSr: return "RTCP: SR";
    case zoom::MediaEncapType::RtcpSrSdes: return "RTCP: SR + SDES";
    default: return "unknown (" + std::to_string(value) + ")";
  }
}

std::string media_kind_label(zoom::MediaKind kind) {
  switch (kind) {
    case zoom::MediaKind::Video: return "Video (16)";
    case zoom::MediaKind::Audio: return "Audio (15)";
    case zoom::MediaKind::ScreenShare: return "Screen Share (13)";
  }
  return "?";
}

}  // namespace

std::vector<EncapTypeRow> table2_rows(const core::AnalyzerCounters& counters) {
  // Denominator: all Zoom UDP packets (server + P2P), as in the paper.
  double total_packets =
      static_cast<double>(counters.server_udp_packets + counters.p2p_udp_packets);
  const auto encap_types = counters.encap_types();
  double total_bytes = 0;
  for (const auto& [value, tally] : encap_types)
    total_bytes += static_cast<double>(tally.bytes);
  // Undecoded packets also carry bytes; approximate the byte denominator
  // with zoom_bytes-scaled share of UDP payloads when available.
  double denom_bytes = static_cast<double>(counters.zoom_bytes);
  if (denom_bytes <= 0) denom_bytes = total_bytes;

  std::vector<EncapTypeRow> rows;
  for (const auto& [value, tally] : encap_types) {
    EncapTypeRow row;
    row.value = value;
    row.packet_type = encap_type_label(value);
    row.offset = zoom::media_payload_offset(value);
    row.pct_packets =
        total_packets > 0 ? static_cast<double>(tally.packets) / total_packets : 0.0;
    row.pct_bytes = denom_bytes > 0 ? static_cast<double>(tally.bytes) / denom_bytes : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const EncapTypeRow& a, const EncapTypeRow& b) {
    return a.pct_packets > b.pct_packets;
  });
  return rows;
}

std::vector<PayloadTypeRow> table3_rows(const core::AnalyzerCounters& counters) {
  const auto payload_types = counters.payload_types();
  double total_packets = 0;
  double total_bytes = 0;
  for (const auto& [key, tally] : payload_types) {
    total_packets += static_cast<double>(tally.packets);
    total_bytes += static_cast<double>(tally.bytes);
  }
  std::vector<PayloadTypeRow> rows;
  for (const auto& [key, tally] : payload_types) {
    auto kind = static_cast<zoom::MediaKind>(key.first);
    PayloadTypeRow row;
    row.media_type = media_kind_label(kind);
    row.rtp_pt = key.second;
    row.description = std::string(zoom::payload_type_description(kind, key.second));
    row.pct_packets =
        total_packets > 0 ? static_cast<double>(tally.packets) / total_packets : 0.0;
    row.pct_bytes = total_bytes > 0 ? static_cast<double>(tally.bytes) / total_bytes : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const PayloadTypeRow& a, const PayloadTypeRow& b) {
              return a.pct_packets > b.pct_packets;
            });
  return rows;
}

std::vector<HealthRow> health_rows(const core::AnalyzerHealth& h) {
  std::vector<HealthRow> rows;
  for (const auto& field : core::kHealthFields) {
    if (h.*field.member > 0)
      rows.push_back(HealthRow{field.name, field.description, h.*field.member,
                               field.cls == core::HealthClass::Drop});
  }
  return rows;
}

std::vector<HealthRow> frontend_rows(const capture::FrontEndStats& s) {
  std::vector<HealthRow> rows;
  rows.push_back({"frontend-admitted", "pre-classified Zoom-relevant, fast dispatch",
                  s.admitted, false});
  rows.push_back({"frontend-rejected", "screened out without header decode",
                  s.rejected, false});
  rows.push_back({"frontend-full-parse", "uncertain, routed to the normal decode path",
                  s.full_parse, false});
  auto add = [&](std::string_view category, std::string_view description,
                 std::uint64_t count) {
    if (count > 0) rows.push_back(HealthRow{category, description, count, false});
  };
  add("frontend-zoom-shaped", "admits matching a Zoom payload shape", s.zoom_shaped);
  add("frontend-stun-flagged", "admits touching the STUN port", s.stun_flagged);
  add("frontend-simd-batches", "batches classified by the SWAR/SSE2 probe",
      s.simd_batches);
  add("frontend-scalar-batches", "batches classified by the scalar reference probe",
      s.scalar_batches);
  add("offload-covered", "admits absorbed by the data-plane metric offload",
      s.offload_covered);
  add("offload-collisions", "offload probe/telemetry register slot overwrites",
      s.offload_collisions);
  add("offload-evictions", "offload jitter scratch slots lost to colliding streams",
      s.offload_evictions);
  return rows;
}

}  // namespace zpm::analysis
