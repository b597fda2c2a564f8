// Shared end-to-end experiment driver: campus simulation -> P4 capture
// filter -> anonymization -> passive analyzer (an analysis::EpochEngine
// run as one window). Every campus-scale table and figure bench runs
// through this once and reads different slices of the result.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "capture/filter.h"
#include "core/analyzer.h"
#include "sim/campus.h"
#include "util/rate.h"

namespace zpm::analysis {

/// Configuration of a full campus run.
struct CampusRunConfig {
  sim::CampusConfig campus;
  /// Anonymize at the filter (the analyzer then works on anonymized
  /// addresses with an equally-anonymized server/campus subnet list —
  /// possible because anonymization is prefix-preserving).
  bool anonymize = true;
  /// Bin width for the rate time series (Fig. 14 / 17).
  util::Duration rate_bin = util::Duration::seconds(60);
  /// Frame-record subsampling inside the analyzer (memory bound).
  std::uint32_t frame_sample_every = 4;
  /// Analyzer shards of the run's EpochEngine: 1 = serial analyzer, >1 =
  /// sharded pipeline. Results, health included, are bit-identical
  /// either way.
  std::size_t analysis_threads = 1;
  /// Abort analysis at the first malformed record (core::AnalyzerConfig
  /// strict mode); the violation lands in CampusRunResult.
  bool strict = false;
};

/// Compact per-second per-stream sample used by the distribution
/// figures (kept deliberately small: campus runs produce millions).
struct SampleRow {
  float media_bitrate_bps = 0.0f;
  float frame_rate = 0.0f;
  float avg_frame_bytes = 0.0f;   // <0 when no frame completed
  float jitter_ms = -1.0f;        // <0 when unknown
  std::uint8_t kind = 0;          // zoom::MediaKind
};

/// Everything the benches need from one campus run.
struct CampusRunResult {
  sim::CampusSimulation::Summary sim_summary;
  capture::CaptureCounters capture;
  core::AnalyzerCounters counters;
  std::size_t stream_count = 0;
  std::uint64_t media_count = 0;  // distinct media ids
  std::size_t meeting_count = 0;
  std::size_t zoom_flow_count = 0;  // distinct canonical 5-tuples

  /// Per-category drop/distrust accounting; all_clear() on clean traces.
  core::AnalyzerHealth health;
  /// First malformed record when config.strict fired.
  std::optional<core::StrictViolation> strict_violation;
  /// What the fault injector did when campus.corruption was set.
  std::optional<sim::CorruptionStats> corruption;

  /// All per-second stream samples (Fig. 15/16 distributions).
  std::vector<SampleRow> samples;
  /// Sampled per-frame payload sizes per kind (Fig. 15c).
  std::map<std::uint8_t, std::vector<float>> frame_sizes;

  /// Media bytes per rate_bin per kind (Fig. 14) — already per-second.
  std::map<std::uint8_t, std::vector<util::IntervalBinner::Bin>> media_rate;
  /// Packet rates: all processed vs. Zoom-filtered (Fig. 17).
  std::vector<util::IntervalBinner::Bin> all_packet_rate;
  std::vector<util::IntervalBinner::Bin> zoom_packet_rate;

  util::Timestamp first_packet;
  util::Timestamp last_packet;
};

/// Runs the full pipeline. Deterministic for a fixed config.
CampusRunResult run_campus(const CampusRunConfig& config);

/// Process-wide cached run for the default bench configuration, so the
/// several Table/Figure benches that share a trace don't regenerate it.
const CampusRunResult& default_campus_run();

/// The default bench configuration (also used by tests that want a
/// smaller variant to start from).
CampusRunConfig default_campus_config();

}  // namespace zpm::analysis
