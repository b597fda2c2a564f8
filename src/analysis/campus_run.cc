#include "analysis/campus_run.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>

#include "analysis/epoch.h"
#include "analysis/options.h"

namespace zpm::analysis {

namespace {

/// Anonymizes a subnet list with the same key the filter uses, so the
/// analyzer can keep matching after anonymization (prefix-preserving).
std::vector<net::Ipv4Subnet> anonymize_subnets(
    const capture::PrefixPreservingAnonymizer& anon,
    const std::vector<net::Ipv4Subnet>& subnets) {
  std::vector<net::Ipv4Subnet> out;
  out.reserve(subnets.size());
  for (const auto& s : subnets)
    out.emplace_back(anon.anonymize(s.base()), s.prefix_len());
  return out;
}

/// Folds per-stream metrics into the result.
void extract_streams(std::span<const core::StreamInfo* const> streams,
                     util::Duration rate_bin, CampusRunResult& result) {
  // Campus runs produce millions of rows; size the buffers once.
  std::size_t total_seconds = 0;
  std::map<std::uint8_t, std::size_t> frames_per_kind;
  for (const auto* stream : streams) {
    total_seconds += stream->metrics->seconds().size();
    frames_per_kind[static_cast<std::uint8_t>(stream->kind)] +=
        stream->metrics->frames().size();
  }
  result.samples.reserve(total_seconds);
  for (const auto& [kind, count] : frames_per_kind)
    result.frame_sizes[kind].reserve(count);

  // Per-kind media-rate binning + sample extraction.
  std::map<std::uint8_t, util::IntervalBinner> media_bins;
  for (const auto* stream : streams) {
    auto kind = static_cast<std::uint8_t>(stream->kind);
    auto [it, _] = media_bins.try_emplace(kind, rate_bin);
    SampleRow row;
    row.kind = kind;
    for (const auto& sec : stream->metrics->seconds()) {
      it->second.add(sec.bin_start, static_cast<double>(sec.media_bytes));
      row.media_bitrate_bps = static_cast<float>(sec.media_bitrate_bps());
      row.frame_rate = static_cast<float>(sec.frame_rate_fps);
      row.avg_frame_bytes =
          sec.avg_frame_bytes ? static_cast<float>(*sec.avg_frame_bytes) : -1.0f;
      row.jitter_ms = sec.jitter_ms ? static_cast<float>(*sec.jitter_ms) : -1.0f;
      result.samples.push_back(row);
    }
    auto& sizes = result.frame_sizes[kind];
    for (const auto& frame : stream->metrics->frames())
      sizes.push_back(static_cast<float>(frame.payload_bytes));
  }
  for (auto& [kind, binner] : media_bins)
    result.media_rate[kind] = binner.series();
}

/// Environment variable `name` as a positive finite number up to `max`,
/// into `out`. A malformed or out-of-range value prints one stderr line
/// naming the variable and leaves `out` at its default.
template <class T>
void read_positive_env(const char* name, T& out,
                       T max = std::numeric_limits<T>::max()) {
  const char* text = std::getenv(name);
  if (text == nullptr) return;
  T value{};
  if (parse_whole(text, value) && value > 0 && value <= max &&
      std::isfinite(static_cast<double>(value))) {
    out = value;
    return;
  }
  std::fprintf(stderr, "warning: ignoring %s=%s (want a positive number)\n",
               name, text);
}

}  // namespace

CampusRunResult run_campus(const CampusRunConfig& config) {
  CampusRunResult result;

  sim::CampusSimulation campus(config.campus);

  capture::CaptureConfig cap_cfg;
  cap_cfg.campus_subnets = {config.campus.campus_subnet};
  cap_cfg.anonymize = config.anonymize;
  capture::CaptureFilter filter(cap_cfg);

  core::AnalyzerConfig an_cfg;
  an_cfg.frame_sample_every = config.frame_sample_every;
  an_cfg.strict = config.strict;
  if (config.anonymize) {
    capture::PrefixPreservingAnonymizer anon(cap_cfg.anonymization_key);
    an_cfg.server_db =
        zoom::ServerDb(anonymize_subnets(anon, cap_cfg.server_db.subnets()));
  }

  util::IntervalBinner all_rate(config.rate_bin);
  util::IntervalBinner zoom_rate(config.rate_bin);

  // The analyzer side is the daemon's ingest driver, run as one window
  // (both epoch limits off). Packets arrive already screened by the
  // P4-style capture filter, so the engine's own front end stays off.
  EpochEngineConfig engine_cfg;
  engine_cfg.analyzer = an_cfg;
  engine_cfg.shards = config.analysis_threads;
  engine_cfg.frontend = false;
  engine_cfg.limits = {0, util::Duration::micros(0)};
  EpochEngine engine(std::move(engine_cfg));

  constexpr std::size_t kBatch = 1024;
  std::vector<net::RawPacket> kept_batch;
  std::vector<net::RawPacketView> views;
  std::vector<EpochReport> completed;  // limits off: stays empty
  const auto offer_kept = [&] {
    views.clear();
    for (const auto& pkt : kept_batch) views.push_back(net::as_view(pkt));
    engine.offer(views, pipeline::BatchLifetime::Transient, completed);
    kept_batch.clear();
  };
  while (auto pkt = campus.next_packet()) {
    if (result.first_packet.is_zero()) result.first_packet = pkt->ts;
    result.last_packet = pkt->ts;
    all_rate.add(pkt->ts);
    auto kept = filter.process(*pkt);
    if (!kept) continue;
    zoom_rate.add(kept->ts);
    kept_batch.push_back(std::move(*kept));
    if (kept_batch.size() == kBatch) offer_kept();
  }
  offer_kept();

  const EpochReport rep = engine.finish().value_or(EpochReport{});
  result.counters = rep.counters;
  result.stream_count = rep.stream_count;
  result.media_count = rep.media_count;
  result.meeting_count = rep.meeting_count;
  result.zoom_flow_count = rep.zoom_flow_count;
  result.health = rep.health;
  // The run reads its one window and never retires it.
  result.health.epoch_evicted_flows = 0;
  result.health.epoch_evicted_meetings = 0;
  result.strict_violation = engine.strict_violation();
  extract_streams(engine.streams(), config.rate_bin, result);

  result.sim_summary = campus.summary();
  result.capture = filter.counters();
  if (const auto* stats = campus.corruption_stats()) result.corruption = *stats;
  result.all_packet_rate = all_rate.series();
  result.zoom_packet_rate = zoom_rate.series();
  return result;
}

CampusRunConfig default_campus_config() {
  CampusRunConfig config;
  config.campus.seed = 2022;
  // Scaled-down campus day; ZPM_CAMPUS_SCALE multiplies meeting volume,
  // ZPM_CAMPUS_HOURS overrides the duration and ZPM_ANALYSIS_THREADS
  // shards the analyzer, so the full 12-hour run is one environment
  // variable away.
  double scale = 1.0;
  read_positive_env("ZPM_CAMPUS_SCALE", scale);
  double hours = 12.0;
  // Bounded like an option's seconds: the microseconds fit an int64.
  read_positive_env("ZPM_CAMPUS_HOURS", hours, 9e12 / 3600.0);
  read_positive_env("ZPM_ANALYSIS_THREADS", config.analysis_threads);
  config.campus.duration = util::Duration::seconds(hours * 3600.0);
  config.campus.meetings_per_peak_hour = 3.0 * scale;
  config.campus.background_ratio = 1.5;
  return config;
}

const CampusRunResult& default_campus_run() {
  static const CampusRunResult result = run_campus(default_campus_config());
  return result;
}

}  // namespace zpm::analysis
