// Formatting helpers turning analyzer counters into the paper's table
// rows (Tables 2 and 3) and the CLIs' health and --stats sections,
// shared by benches and examples.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "capture/batch_filter.h"
#include "core/analyzer.h"

namespace zpm::analysis {

/// One row of Table 2 (media-encap type distribution).
struct EncapTypeRow {
  std::uint8_t value = 0;
  std::string packet_type;   // "RTP: Video" etc.
  std::size_t offset = 0;    // payload offset from the media encap start
  double pct_packets = 0.0;  // of all Zoom UDP packets
  double pct_bytes = 0.0;
};

/// Builds Table 2 rows from analyzer counters, ordered by packet share.
std::vector<EncapTypeRow> table2_rows(const core::AnalyzerCounters& counters);

/// One row of Table 3 (RTP payload-type distribution).
struct PayloadTypeRow {
  std::string media_type;  // "Video (16)" etc.
  std::uint8_t rtp_pt = 0;
  std::string description;
  double pct_packets = 0.0;  // of all media packets
  double pct_bytes = 0.0;
};

/// Builds Table 3 rows, ordered by packet share.
std::vector<PayloadTypeRow> table3_rows(const core::AnalyzerCounters& counters);

/// One row of the analyzer-health table (one non-zero health counter).
struct HealthRow {
  std::string_view category;     // stable kebab-case counter name
  std::string_view description;  // one-line operator explanation
  std::uint64_t count = 0;
  bool dropped = false;  // counts toward AnalyzerHealth::dropped_records()
};

/// Non-zero health counters in core::kHealthFields order; empty exactly
/// when health.all_clear().
std::vector<HealthRow> health_rows(const core::AnalyzerHealth& health);

/// The `--stats` text of zpm_analyze and campus_monitor --pcap: the
/// front end's, the sketch tier's and the offload's counters, one row
/// per kFrontEndStatsFields / kTierStatsFields / kOffloadReportFields
/// entry, then the tier's top heavy hitters and the offload histograms.
/// `frontend` is null when the run had no front end (--no-frontend).
std::string render_stats(const capture::BatchFilter* frontend);

}  // namespace zpm::analysis
