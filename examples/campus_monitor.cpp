// campus_monitor — the operator's live view: campus traffic through the
// P4-style capture filter into the analyzer, with per-interval status
// lines (active meetings, streams, Zoom share of traffic, media rates).
// This is the "capacity planning / troubleshooting" use case from §1.
//
// Usage: campus_monitor [hours] [meetings_per_peak_hour]
//        campus_monitor --pcap <capture.pcap[ng]> [options]
//        campus_monitor --make-trace <out.pcap> [options]
//        campus_monitor --daemon (--replay <trace> | --live <iface>) [options]
//
// Each mode's options are rows of the option table in
// src/analysis/options.h; a usage error prints their usage text.
//
// --pcap replays a capture through analysis::EpochEngine, the engine the
// daemon rotates, as one window with both epoch limits off. --daemon
// runs the continuous-operation service loop (analysis/daemon.h): epoch
// rotation, snapshots, per-epoch reports and a metric journal for
// zpm_query, SIGHUP config reload, SIGTERM/SIGINT drain and a stalled-
// source watchdog, over a deterministic trace replay or a live
// interface (AF_PACKET, CAP_NET_RAW). --make-trace writes a simulated
// campus day to a pcap for the replay modes.
//
// Exit codes: 0 ok, 1 bad input/fatal source error, 2 usage,
// 4 interrupted (SIGINT drain in the non-daemon modes: the partial
// capture is still analyzed and the report flushed before exiting).
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "analysis/daemon.h"
#include "analysis/epoch.h"
#include "analysis/options.h"
#include "analysis/tables.h"
#include "capture/filter.h"
#include "core/analyzer.h"
#include "net/live_source.h"
#include "net/pcap.h"
#include "net/trace_source.h"
#include "sim/background.h"
#include "sim/campus.h"
#include "util/strings.h"

using namespace zpm;

namespace {

/// SIGINT in the non-daemon modes: drain what's in flight, flush the
/// report, exit 4. The handler only sets the flag.
volatile std::sig_atomic_t g_interrupted = 0;
void on_interrupt(int) { g_interrupted = 1; }

void print_summary(const core::AnalyzerCounters& c, const core::AnalyzerHealth& h,
                   std::size_t meetings, std::size_t streams,
                   std::uint64_t processed) {
  std::printf("\nday summary: %llu packets processed, %llu Zoom (%s), "
              "%zu meetings, %zu streams\n",
              static_cast<unsigned long long>(processed),
              static_cast<unsigned long long>(c.zoom_packets),
              util::human_bytes(c.zoom_bytes).c_str(), meetings, streams);
  // Accounting rows (front-end screening, sketch churn, offload
  // coverage, overload sheds, epoch retirement) are not loss: the
  // summary line stays identical with those features on or off
  // (--stats reports the details).
  if (h.records_clear()) {
    std::printf("analyzer health: all clear\n");
  } else {
    std::printf("analyzer health: %llu records dropped "
                "(%llu L2-L4, %llu Zoom-layer, %llu quarantined)\n",
                static_cast<unsigned long long>(h.dropped_records()),
                static_cast<unsigned long long>(h.truncated_l2 + h.bad_l3 + h.bad_l4),
                static_cast<unsigned long long>(h.bad_sfu_encap + h.bad_media_encap +
                                                h.malformed_rtp + h.malformed_rtcp +
                                                h.malformed_stun),
                static_cast<unsigned long long>(h.quarantined_packets));
  }
}

int monitor_pcap(int argc, char** argv) {
  analysis::FileRunSettings opts;
  const auto table = analysis::file_run_options(opts, analysis::kPcap);
  const char* synopsis = "campus_monitor --pcap <capture.pcap[ng]> [options]";
  if (argc < 3) return analysis::usage_error(table, "", synopsis);
  const auto args = analysis::parse_args(table, {argv + 3, argv + argc});
  if (!args.error.empty()) return analysis::usage_error(table, args.error, synopsis);
  const char* path = argv[2];
  net::TraceSource source(path);
  if (!source.ok()) {
    std::fprintf(stderr, "error: cannot open %s (%s)\n", path,
                 source.error().c_str());
    return 1;
  }
  analysis::EpochEngineConfig& cfg = opts.engine;
  cfg.analyzer.keep_frames = false;
  if (!opts.sketch) cfg.flow_memory_budget = 0;
  cfg.limits = {0, util::Duration::micros(0)};  // one window: the whole trace
  analysis::EpochEngine engine(cfg);

  std::printf("campus monitor: replaying %s (%s ingest, front end %s)\n", path,
              source.mapped() ? "mapped zero-copy" : "streaming",
              cfg.frontend ? "on" : "off");
  std::signal(SIGINT, on_interrupt);
  constexpr std::size_t kBatch = 1024;
  const auto lifetime = source.mapped() ? pipeline::BatchLifetime::Pinned
                                        : pipeline::BatchLifetime::Transient;
  std::vector<net::RawPacketView> batch;
  batch.reserve(kBatch);
  std::vector<analysis::EpochReport> completed;  // limits off: stays empty
  while (!g_interrupted && source.next_batch(batch, kBatch) > 0)
    engine.offer(batch, lifetime, completed);
  std::signal(SIGINT, SIG_DFL);
  if (g_interrupted)
    std::fprintf(stderr, "\ninterrupted: flushing report over the %llu "
                 "packets analyzed so far\n",
                 static_cast<unsigned long long>(source.packets_read()));
  if (!source.ok())
    std::fprintf(stderr, "warning: capture ended with error: %s\n",
                 source.error().c_str());
  const auto rep = engine.finish().value_or(analysis::EpochReport{});
  print_summary(rep.counters, rep.health, rep.meeting_count, rep.stream_count,
                source.packets_read());
  if (opts.stats)
    std::printf("\n%s", analysis::render_stats(engine.frontend()).c_str());
  return g_interrupted ? 4 : 0;
}

/// Writes a simulated campus monitor stream to a pcap — the input for
/// the --daemon --replay modes and the CI soak run.
int make_trace(int argc, char** argv) {
  analysis::TraceSettings opts;
  const auto table = analysis::trace_options(opts);
  const char* synopsis = "campus_monitor --make-trace <out.pcap> [options]";
  if (argc < 3) return analysis::usage_error(table, "", synopsis);
  const char* out_path = argv[2];
  const auto args = analysis::parse_args(table, {argv + 3, argv + argc});
  if (!args.error.empty()) return analysis::usage_error(table, args.error, synopsis);
  if (opts.minutes <= 0)
    return analysis::usage_error(table, "--minutes wants a positive duration",
                                 synopsis);

  sim::CampusConfig campus_cfg;
  campus_cfg.seed = opts.seed;
  campus_cfg.day_start = util::Timestamp::from_seconds(10 * 3600);
  campus_cfg.duration = util::Duration::seconds(opts.minutes * 60.0);
  campus_cfg.meetings_per_peak_hour = opts.meetings;
  campus_cfg.background_ratio = opts.background;
  sim::CampusSimulation campus(campus_cfg);

  // --burst overlays a square-wave background load (sim::BackgroundTraffic
  // duty-cycle mode) on the campus day: when a paced replay of the trace
  // hits a high phase, the daemon's rings actually fill — the overload
  // governor's exercise input.
  std::optional<sim::BackgroundTraffic> burst;
  if (opts.burst_s > 0) {
    sim::BackgroundConfig bg;
    bg.seed = opts.seed + 1;
    bg.flows = opts.burst_flows > 0 ? opts.burst_flows : 1;
    bg.start = campus_cfg.day_start;
    bg.burst_period = util::Duration::seconds(opts.burst_s);
    bg.burst_high_pps = 20'000;
    bg.burst_low_pps = 2'000;
    const double avg_pps = bg.burst_duty * bg.burst_high_pps +
                           (1.0 - bg.burst_duty) * bg.burst_low_pps;
    bg.packets = static_cast<std::size_t>(avg_pps * opts.minutes * 60.0);
    if (bg.packets < bg.flows) bg.packets = bg.flows;
    if (bg.packets > 5'000'000) bg.packets = 5'000'000;  // keep traces sane
    burst.emplace(bg);
  }

  net::PcapWriter writer(out_path);
  if (!writer.ok()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  if (!burst) {
    while (auto pkt = campus.next_packet()) writer.write(*pkt);
  } else {
    // Two-pointer timestamp merge: both generators emit in timestamp
    // order, so the merged trace stays monotonic.
    std::vector<net::RawPacket> bg_batch;
    std::size_t bg_i = 0;
    const auto bg_refill = [&]() {
      if (bg_i < bg_batch.size()) return true;
      bg_batch.clear();
      bg_i = 0;
      return burst->next_batch(4096, bg_batch) > 0;
    };
    auto cam = campus.next_packet();
    bool bg_ok = bg_refill();
    while (cam || bg_ok) {
      if (!bg_ok || (cam && cam->ts.us() <= bg_batch[bg_i].ts.us())) {
        writer.write(*cam);
        cam = campus.next_packet();
      } else {
        writer.write(bg_batch[bg_i++]);
        bg_ok = bg_refill();
      }
    }
  }
  if (!writer.ok()) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }
  std::printf("wrote %llu packets (%.1f simulated minutes%s) to %s\n",
              static_cast<unsigned long long>(writer.packets_written()),
              opts.minutes,
              burst ? ", bursty background overlay" : "", out_path);
  return 0;
}

/// The continuous daemon: parses its flag block, builds the source,
/// and hands the loop to analysis::MonitorDaemon.
int run_daemon(int argc, char** argv) {
  analysis::DaemonConfig cfg;
  cfg.engine.analyzer.keep_frames = false;
  analysis::DaemonSource src;
  const auto table = analysis::daemon_options(cfg, &src);
  const char* synopsis =
      "campus_monitor --daemon (--replay <trace> | --live <iface>) [options]";
  const auto args = analysis::parse_args(table, {argv + 2, argv + argc});
  if (!args.error.empty()) return analysis::usage_error(table, args.error, synopsis);
  const bool live = !src.live.interface.empty();
  if (src.replay.path.empty() != live)
    return analysis::usage_error(
        table, "--daemon wants exactly one of --replay <trace> or --live <iface>",
        synopsis);
  if (!cfg.engine.limits.any_enabled())
    return analysis::usage_error(table, "daemon needs at least one epoch limit "
                                 "(--epoch-packets or --epoch-seconds)", synopsis);
  // Overload default: on for live capture (the mode that can actually
  // fall behind the kernel), off for lossless replay. Live mode also
  // switches the dispatch producer from blocking push to bounded
  // try_push with shed-on-timeout — a stalled shard must never wedge
  // the poll loop that keeps the kernel ring drained.
  const auto& given = args.given;
  if (!given.contains("--overload") && !given.contains("--no-overload") &&
      !given.contains("--overload-inject"))
    cfg.engine.overload.enabled = live;
  if (live) cfg.engine.bounded_dispatch = true;
  // Journal default: on whenever a report directory exists — the
  // directory then carries epoch files, journal segments and a MANIFEST
  // for zpm_query. --no-journal opts out.
  if (!given.contains("--no-journal"))
    cfg.engine.collect_journal = !cfg.report_dir.empty();
  if (cfg.engine.fault_slow_shard != SIZE_MAX && cfg.engine.fault_slow_us == 0)
    cfg.engine.fault_slow_us = 100;

  analysis::MonitorDaemon daemon(cfg);
  analysis::MonitorDaemon::install_signal_handlers(&daemon);
  int rc;
  if (!live) {
    net::ReplayLiveSource source(src.replay);
    if (!source.ok()) {
      std::fprintf(stderr, "error: cannot load %s (%s)\n",
                   src.replay.path.c_str(), source.error().c_str());
      analysis::MonitorDaemon::install_signal_handlers(nullptr);
      return 1;
    }
    std::fprintf(stderr, "zpm-daemon: replaying %s (%llu packets/loop, "
                 "loops %llu, %.0f pps)\n",
                 src.replay.path.c_str(),
                 static_cast<unsigned long long>(source.trace_packets()),
                 static_cast<unsigned long long>(src.replay.loops),
                 src.replay.pace_pps);
    rc = daemon.run(source);
  } else {
    net::LiveSource source(src.live);
    if (!source.ok()) {
      std::fprintf(stderr, "error: cannot open %s (%s)\n",
                   src.live.interface.c_str(), source.error().c_str());
      analysis::MonitorDaemon::install_signal_handlers(nullptr);
      return 1;
    }
    std::fprintf(stderr, "zpm-daemon: capturing on %s (%.*s backend)\n",
                 src.live.interface.c_str(),
                 static_cast<int>(source.backend().size()),
                 source.backend().data());
    rc = daemon.run(source);
    const auto stats = source.stats();
    std::fprintf(stderr,
                 "zpm-daemon: kernel capture: %llu packets seen, %llu "
                 "dropped\n",
                 static_cast<unsigned long long>(stats.kernel_packets),
                 static_cast<unsigned long long>(stats.kernel_drops));
  }
  analysis::MonitorDaemon::install_signal_handlers(nullptr);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--make-trace"))
    return make_trace(argc, argv);
  if (argc > 1 && !std::strcmp(argv[1], "--daemon"))
    return run_daemon(argc, argv);

  if (argc > 1 && !std::strcmp(argv[1], "--pcap")) return monitor_pcap(argc, argv);

  // The simulated day: [hours] [meetings_per_peak_hour], both optional.
  double hours = 1.0;
  double meetings = 6.0;
  const char* synopsis = "campus_monitor [hours] [meetings_per_peak_hour]";
  if (argc > 3)
    return analysis::usage_error(
        {}, "unexpected argument " + std::string(argv[3]), synopsis);
  if (argc > 1 && !(analysis::parse_whole(argv[1], hours) && std::isfinite(hours)))
    return analysis::usage_error({}, "hours wants a number", synopsis);
  if (argc > 2 && !(analysis::parse_whole(argv[2], meetings) && std::isfinite(meetings)))
    return analysis::usage_error({}, "meetings_per_peak_hour wants a number",
                                 synopsis);

  sim::CampusConfig campus_cfg;
  campus_cfg.seed = 42;
  campus_cfg.day_start = util::Timestamp::from_seconds(10 * 3600);
  campus_cfg.duration = util::Duration::seconds(hours * 3600.0);
  campus_cfg.meetings_per_peak_hour = meetings;
  campus_cfg.background_ratio = 1.0;
  sim::CampusSimulation campus(campus_cfg);

  capture::CaptureConfig cap_cfg;
  cap_cfg.campus_subnets = {campus_cfg.campus_subnet};
  cap_cfg.anonymize = false;  // live monitoring keeps addresses
  capture::CaptureFilter filter(cap_cfg);

  core::AnalyzerConfig an_cfg;
  an_cfg.keep_frames = false;
  core::Analyzer analyzer(an_cfg);

  std::printf("campus monitor: %.1f h, ~%.0f meetings/peak hour\n\n", hours, meetings);
  std::printf("%-6s %10s %10s %9s %9s %9s %8s\n", "time", "pkts/min", "zoom/min",
              "meetings", "streams", "media", "rtt[ms]");
  std::printf("----------------------------------------------------------------------\n");

  std::signal(SIGINT, on_interrupt);
  std::int64_t interval_us = 5 * 60 * 1'000'000ll;  // 5-minute lines
  std::int64_t next_report = 0;
  std::uint64_t interval_pkts = 0, interval_zoom = 0;
  std::size_t last_rtt_count = 0;
  while (auto pkt = campus.next_packet()) {
    if (g_interrupted) break;
    if (next_report == 0) next_report = pkt->ts.us() + interval_us;
    ++interval_pkts;
    auto kept = filter.process(*pkt);
    if (kept) {
      ++interval_zoom;
      analyzer.offer(*kept);
    }
    if (pkt->ts.us() >= next_report) {
      // RTT over the samples that arrived this interval.
      const auto& rtts = analyzer.sfu_rtt_samples();
      double rtt_sum = 0;
      std::size_t rtt_n = rtts.size() - last_rtt_count;
      for (std::size_t i = last_rtt_count; i < rtts.size(); ++i)
        rtt_sum += rtts[i].rtt.ms();
      last_rtt_count = rtts.size();

      std::size_t active_meetings = 0;
      for (const auto* m : analyzer.meetings().meetings())
        if (pkt->ts - m->last_seen < util::Duration::seconds(30.0)) ++active_meetings;

      std::printf("%-6s %10llu %10llu %9zu %9zu %9llu %8s\n",
                  util::clock_label(static_cast<std::int64_t>(pkt->ts.sec())).c_str(),
                  static_cast<unsigned long long>(interval_pkts / 5),
                  static_cast<unsigned long long>(interval_zoom / 5), active_meetings,
                  analyzer.streams().size(),
                  static_cast<unsigned long long>(analyzer.streams().media_count()),
                  rtt_n ? util::fixed(rtt_sum / static_cast<double>(rtt_n), 1).c_str()
                        : "-");
      interval_pkts = interval_zoom = 0;
      next_report += interval_us;
    }
  }
  std::signal(SIGINT, SIG_DFL);
  if (g_interrupted)
    std::fprintf(stderr, "\ninterrupted: flushing report over the simulated "
                 "day so far\n");
  analyzer.finish();
  print_summary(analyzer.counters(), analyzer.health(),
                analyzer.meetings().meeting_count(), analyzer.streams().size(),
                filter.counters().processed);
  return g_interrupted ? 4 : 0;
}
