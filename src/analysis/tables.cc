#include "analysis/tables.h"

#include <algorithm>

#include "util/strings.h"
#include "util/table.h"

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

/// One "Counter / Count" table row per field-table entry.
template <class S, class Rows>
std::string counter_table(const S& stats, const Rows& rows) {
  util::TextTable t;
  t.header({"Counter", "Count"}, {util::Align::Left, util::Align::Right});
  for (const auto& row : rows)
    t.row({std::string(row.name), util::with_commas(stats.*row.member)});
  return t.render();
}

/// An offload histogram bucket's range: power-of-two boundaries in us,
/// shown in ms from 1000 us up.
std::string offload_bucket_label(std::size_t b) {
  auto human_us = [](std::uint64_t us) {
    if (us >= 1000) return util::fixed(static_cast<double>(us) / 1000.0, 0) + "ms";
    return std::to_string(us) + "us";
  };
  const std::uint64_t lo = b == 0 ? 0 : std::uint64_t{1} << b;
  if (b + 1 >= capture::kOffloadBuckets) return ">=" + human_us(lo);
  return human_us(lo) + "-" + human_us(std::uint64_t{1} << (b + 1));
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

std::string render_stats(const capture::BatchFilter* frontend) {
  std::string out =
      "== capture front end ===========================================\n";
  if (frontend == nullptr) return out + "front end not active (--no-frontend)\n";
  out += std::string(frontend->simd_active() ? "SWAR/SSE2" : "scalar") +
         " probe, " + util::with_commas(frontend->flow_count()) +
         " admitted flows, " +
         util::with_commas(frontend->candidate_endpoint_count()) +
         " armed candidate endpoints\n";
  out += counter_table(frontend->stats(), capture::kFrontEndStatsFields);

  out += "\n== sketch flow tier ============================================\n";
  if (!frontend->sketch_enabled()) {
    out += "sketch tier not active (--no-sketch)\n";
  } else {
    const auto report = frontend->sketch_report(10);
    out += counter_table(report.stats, sketch::kTierStatsFields);
    if (!report.heavy_hitters.empty()) {
      util::TextTable hh;
      hh.header({"Background flow", "Bytes", "Packets", "Err bytes"},
                {util::Align::Left, util::Align::Right, util::Align::Right,
                 util::Align::Right});
      for (const auto& h : report.heavy_hitters)
        hh.row({h.flow.to_string(), util::human_bytes(h.bytes),
                util::with_commas(h.packets), util::with_commas(h.error_bytes)});
      out += hh.render();
    }
  }

  out += "\n== data-plane metric offload ===================================\n";
  if (!frontend->offload_enabled())
    return out + "offload not active (pass --dataplane-offload to enable)\n";
  const auto report = frontend->offload_report();
  out += counter_table(report, capture::kOffloadReportFields);
  util::TextTable hist;
  hist.header({"Bucket", "Jitter dev", "RTT"},
              {util::Align::Left, util::Align::Right, util::Align::Right});
  for (std::size_t b = 0; b < capture::kOffloadBuckets; ++b) {
    if (report.jitter.buckets[b] == 0 && report.rtt.buckets[b] == 0) continue;
    hist.row({offload_bucket_label(b), util::with_commas(report.jitter.buckets[b]),
              util::with_commas(report.rtt.buckets[b])});
  }
  if (report.jitter.samples > 0 || report.rtt.samples > 0) out += hist.render();
  return out;
}

}  // namespace zpm::analysis
