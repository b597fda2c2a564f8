// zpm_analyze — the release CLI: full passive analysis of a capture
// file (pcap or pcapng), printing the operator-facing report and
// optionally exporting machine-readable CSVs.
//
// Usage:
//   zpm_analyze <capture.pcap[ng]> [options]
//   zpm_analyze --demo [options]
//
// Options:
//   --threads <n>     shard the analyzer across n worker threads
//                     (default 1 = serial; results are identical)
//   --csv <prefix>    write <prefix>_streams.csv / _seconds.csv / _meetings.csv
//   --p2p-timeout <s> STUN candidate lifetime (default 60)
//   --anon-key <hex>  the capture was anonymized with this key
//                     (zpm_pcap_filter default 5eedcafef00dd00d); the
//                     server subnets are mapped through the same
//                     prefix-preserving function so detection still works
//   --strict          record the first malformed record and exit 3 once
//                     analysis completes (the record still shows up in
//                     the health section)
//   --corrupt <seed>  run the input through the hostile fault-injection
//                     mix (sim/corruptor.h) before analysis — robustness
//                     demos and health-accounting checks
//   --no-frontend     disable the capture front end (capture/batch_filter):
//                     every packet takes the full decode path. Results are
//                     bit-identical either way; this exists for A/B and
//                     debugging. Every input (file, --demo, --corrupt)
//                     runs through it.
//   --frontend-stats  print the front end's admit/reject/full-parse
//                     selectivity counters (the software analogue of the
//                     paper's Table 5 filter report)
//   --flow-memory-budget <bytes>
//                     byte budget for the front end's sketch tier, which
//                     summarizes rejected background flows (count-min +
//                     heavy-hitter table) at O(1) memory instead of
//                     per-flow state. Accepts K/M/G suffixes (KiB etc.);
//                     default 1M. The standard report is bit-identical
//                     with the tier on or off.
//   --no-sketch       disable the sketch tier (budget 0)
//   --sketch-stats    print the sketch tier's report: absorbed
//                     background volume, promotions / demotions /
//                     evictions, and the top background heavy hitters
//   --overload        run the analysis under the overload governor
//                     (src/overload). A file replay has no live pressure
//                     signal: with no injection the governor observes
//                     zero pressure, stays at L0, and the report is
//                     byte-identical to an ungoverned run (the
//                     enabled-under-zero-pressure identity check)
//   --overload-inject <spec>
//                     deterministic pressure schedule
//                     "begin-end:pressure[,...]" over global packet
//                     indices; replaces the real signals so identical
//                     replays shed identically (implies --overload);
//                     the shed counts equal the daemon's for the same
//                     schedule and window, mapped or streamed
//   --overload-window <pkts>
//                     governor observation window (default 2048)
//   --dataplane-offload
//                     enable the data-plane metric offload
//                     (capture/offload.h): the front end keeps bucketed
//                     RTT/jitter histogram registers plus a spin-bit
//                     style RTT probe for the server media flows it can
//                     classify at fixed offsets, and the host skips its
//                     per-packet jitter/latency estimator work for those
//                     covered packets. Requires the front end. Reports
//                     are byte-identical with the
//                     offload off for uncovered flows; covered streams'
//                     jitter/latency columns vacate into the offload
//                     histograms (--offload-stats)
//   --offload-stats   print the offload's merged histogram registers and
//                     coverage/collision accounting
//
// Every input runs through analysis::EpochEngine — the daemon's ingest
// driver — as one window with both epoch limits off: the engine builds
// the front end, the serial or sharded analyzer and the governor, and
// the report reads its closed-window record and accessors.
//
// Exit codes: 0 analyzed, 1 unreadable/empty/garbage input, 2 usage,
// 3 strict-mode violation, 4 interrupted (SIGINT: ingestion stops at
// the next batch boundary, the packets analyzed so far are drained
// and the full report still prints — a partial pass is a usable pass).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/epoch.h"
#include "analysis/tables.h"
#include "capture/anonymizer.h"
#include "net/trace_source.h"
#include "sim/corruptor.h"
#include "sim/meeting.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

using namespace zpm;

namespace {

/// SIGINT: stop ingesting at the next batch boundary, drain, report,
/// exit 4. The handler only sets the flag.
volatile std::sig_atomic_t g_interrupted = 0;
void on_interrupt(int) { g_interrupted = 1; }

constexpr std::size_t kBatch = 1024;

using StreamList = std::span<const core::StreamInfo* const>;

/// Offers owned packets from `next` to the engine in reused batches
/// (Transient views: the engine copies what it keeps).
template <class Next>
void offer_owned(analysis::EpochEngine& engine, Next&& next) {
  std::vector<net::RawPacket> owned;
  std::vector<net::RawPacketView> views;
  std::vector<analysis::EpochReport> completed;  // limits off: stays empty
  const auto offer = [&] {
    views.clear();
    for (const auto& pkt : owned) views.push_back(net::as_view(pkt));
    engine.offer(views, pipeline::BatchLifetime::Transient, completed);
    owned.clear();
  };
  while (!g_interrupted) {
    auto pkt = next();
    if (!pkt) break;
    owned.push_back(std::move(*pkt));
    if (owned.size() == kBatch) offer();
  }
  offer();
}

void export_csvs(StreamList stream_list, const core::MeetingGrouper& grouper,
                 const std::string& prefix) {
  {
    util::CsvWriter streams(prefix + "_streams.csv");
    streams.row({"stream", "ssrc", "media_id", "meeting", "kind", "direction",
                 "client_ip", "first_s", "last_s", "packets", "media_bytes",
                 "jitter_ms", "latency_ms", "duplicates", "reordered", "gaps",
                 "clock_hz", "stalls"});
    for (const auto* s : stream_list) {
      auto loss = s->metrics->total_loss();
      streams.row(
          {std::to_string(s->index), std::to_string(s->key.ssrc),
           std::to_string(s->media_id), std::to_string(s->meeting_id),
           std::string(zoom::media_kind_name(s->kind)),
           s->direction == core::StreamDirection::ToSfu     ? "to_sfu"
           : s->direction == core::StreamDirection::FromSfu ? "from_sfu"
                                                            : "p2p",
           s->client_ip.to_string(), util::fixed(s->first_seen.sec(), 6),
           util::fixed(s->last_seen.sec(), 6),
           std::to_string(s->metrics->media_packets()),
           std::to_string(s->metrics->media_payload_bytes()),
           s->metrics->jitter_ms() ? util::fixed(*s->metrics->jitter_ms(), 3) : "",
           s->metrics->mean_latency_ms()
               ? util::fixed(*s->metrics->mean_latency_ms(), 3)
               : "",
           std::to_string(loss.duplicates), std::to_string(loss.reordered),
           std::to_string(loss.gap_packets),
           s->metrics->clock_estimate().snapped_hz()
               ? util::fixed(*s->metrics->clock_estimate().snapped_hz(), 0)
               : "",
           std::to_string(s->metrics->stall().stall_events())});
    }
  }
  {
    util::CsvWriter seconds(prefix + "_seconds.csv");
    seconds.row({"stream", "t_s", "packets", "media_bytes", "frame_rate",
                 "encoder_fps", "avg_frame_bytes", "jitter_ms", "latency_ms",
                 "duplicates", "reordered"});
    for (const auto* s : stream_list) {
      for (const auto& sec : s->metrics->seconds()) {
        seconds.row({std::to_string(s->index),
                     util::fixed(sec.bin_start.sec(), 0),
                     std::to_string(sec.packets), std::to_string(sec.media_bytes),
                     util::fixed(sec.frame_rate_fps, 1),
                     sec.encoder_fps ? util::fixed(*sec.encoder_fps, 2) : "",
                     sec.avg_frame_bytes ? util::fixed(*sec.avg_frame_bytes, 0) : "",
                     sec.jitter_ms ? util::fixed(*sec.jitter_ms, 3) : "",
                     sec.latency_ms ? util::fixed(*sec.latency_ms, 3) : "",
                     std::to_string(sec.duplicates), std::to_string(sec.reordered)});
      }
    }
  }
  {
    util::CsvWriter meetings(prefix + "_meetings.csv");
    meetings.row({"meeting", "participants", "media", "streams", "first_s",
                  "last_s", "p2p", "rtt_samples", "mean_rtt_ms"});
    for (const auto* m : grouper.meetings()) {
      double rtt_sum = 0;
      for (const auto& s : m->rtt_to_sfu) rtt_sum += s.rtt.ms();
      meetings.row({std::to_string(m->id), std::to_string(m->active_participants()),
                    std::to_string(m->media_ids.size()),
                    std::to_string(m->stream_count),
                    util::fixed(m->first_seen.sec(), 1),
                    util::fixed(m->last_seen.sec(), 1), m->saw_p2p ? "yes" : "no",
                    std::to_string(m->rtt_to_sfu.size()),
                    m->rtt_to_sfu.empty()
                        ? ""
                        : util::fixed(rtt_sum / static_cast<double>(
                                                    m->rtt_to_sfu.size()),
                                      2)});
    }
  }
  std::printf("\nCSV exports written to %s_{streams,seconds,meetings}.csv\n",
              prefix.c_str());
}

void print_report(const analysis::EpochReport& rep, StreamList streams,
                  const core::MeetingGrouper& grouper) {
  const auto& c = rep.counters;
  std::printf("== traffic =====================================================\n");
  std::printf("packets: %s total, %s Zoom (%s)\n",
              util::with_commas(c.total_packets).c_str(),
              util::with_commas(c.zoom_packets).c_str(),
              util::human_bytes(c.zoom_bytes).c_str());
  std::printf("media %s | rtcp %s | stun %s | tcp %s | p2p %s | undecoded %s\n",
              util::with_commas(c.media_packets).c_str(),
              util::with_commas(c.rtcp_packets).c_str(),
              util::with_commas(c.stun_packets).c_str(),
              util::with_commas(c.tcp_control_packets).c_str(),
              util::with_commas(c.p2p_udp_packets).c_str(),
              util::with_commas(c.unknown_sfu_packets + c.unknown_media_packets)
                  .c_str());

  std::printf("\n== media mix (Table 2/3 style) =================================\n");
  util::TextTable mix;
  mix.header({"Type", "Offset", "% Pkts", "% Bytes"},
             {util::Align::Left, util::Align::Right, util::Align::Right,
              util::Align::Right});
  for (const auto& row : analysis::table2_rows(c))
    mix.row({row.packet_type, std::to_string(row.offset),
             util::percent(row.pct_packets), util::percent(row.pct_bytes)});
  std::printf("%s", mix.render().c_str());

  std::printf("\n== meetings ====================================================\n");
  for (const auto* m : grouper.meetings()) {
    double rtt_sum = 0;
    for (const auto& s : m->rtt_to_sfu) rtt_sum += s.rtt.ms();
    std::printf("meeting %u: %zu participants, %zu media, %.0f s%s", m->id,
                m->active_participants(), m->media_ids.size(),
                (m->last_seen - m->first_seen).sec(), m->saw_p2p ? ", P2P" : "");
    if (!m->rtt_to_sfu.empty())
      std::printf(", RTT %.1f ms (%zu probes)",
                  rtt_sum / static_cast<double>(m->rtt_to_sfu.size()),
                  m->rtt_to_sfu.size());
    std::printf("\n");
  }

  std::printf("\n== streams ====================================================\n");
  util::TextTable t;
  t.header({"ssrc", "kind", "dir", "rate", "fps", "jitter", "clock", "stalls"},
           {util::Align::Right});
  for (const auto* s : streams) {
    double secs = std::max(1.0, (s->last_seen - s->first_seen).sec());
    double rate = static_cast<double>(s->metrics->media_payload_bytes()) * 8 / secs;
    double fps_sum = 0;
    std::size_t fps_n = 0;
    for (const auto& sec : s->metrics->seconds()) {
      fps_sum += sec.frame_rate_fps;
      ++fps_n;
    }
    auto clock = s->metrics->clock_estimate().snapped_hz();
    t.row({std::to_string(s->key.ssrc), std::string(zoom::media_kind_name(s->kind)),
           s->direction == core::StreamDirection::ToSfu     ? "up"
           : s->direction == core::StreamDirection::FromSfu ? "down"
                                                            : "p2p",
           util::human_bitrate(rate),
           fps_n ? util::fixed(fps_sum / static_cast<double>(fps_n), 1) : "-",
           s->metrics->jitter_ms() ? util::fixed(*s->metrics->jitter_ms(), 1) + "ms"
                                   : "-",
           clock ? util::fixed(*clock / 1000.0, 0) + "kHz" : "-",
           std::to_string(s->metrics->stall().stall_events())});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\n== analyzer health =============================================\n");
  // Front-end screening and sketch-tier churn are accounting, not loss:
  // a trace whose only nonzero counters are frontend-rejected or
  // sketch-evicted is still all clear, keeping this section identical
  // with the front end / tier on or off (--frontend-stats and
  // --sketch-stats report the details).
  auto health_gate = rep.health;
  health_gate.frontend_rejected = 0;
  health_gate.sketch_evicted = 0;
  health_gate.overload_shed_l1 = 0;
  health_gate.overload_shed_l2 = 0;
  health_gate.overload_shed_l3 = 0;
  health_gate.overload_shed_l4 = 0;
  health_gate.offload_covered_packets = 0;
  health_gate.offload_collisions = 0;
  health_gate.offload_evictions = 0;
  if (health_gate.all_clear()) {
    std::printf("all clear: every record was fully analyzed\n");
  } else {
    util::TextTable health;
    health.header({"Counter", "Records", "Dropped?"},
                  {util::Align::Left, util::Align::Right, util::Align::Left});
    for (const auto& row : analysis::health_rows(rep.health))
      health.row({std::string(row.category), util::with_commas(row.count),
                  row.dropped ? "yes" : "no"});
    std::printf("%s", health.render().c_str());
    std::printf("%s records dropped or quarantined; see docs/ROBUSTNESS.md\n",
                util::with_commas(rep.health.dropped_records()).c_str());
  }
}

/// One bucket's range label: power-of-two boundaries in µs, promoted to
/// ms for readability above 1000 µs.
std::string offload_bucket_label(std::size_t b) {
  auto human_us = [](std::uint64_t us) {
    if (us >= 1000) return util::fixed(static_cast<double>(us) / 1000.0, 0) + "ms";
    return std::to_string(us) + "us";
  };
  const std::uint64_t lo = b == 0 ? 0 : std::uint64_t{1} << b;
  if (b + 1 >= capture::kOffloadBuckets) return ">=" + human_us(lo);
  return human_us(lo) + "-" + human_us(std::uint64_t{1} << (b + 1));
}

/// Side-by-side histogram table for the two offload register groups.
void print_offload_histograms(const capture::OffloadReport& rep) {
  util::TextTable t;
  t.header({"Bucket", "Jitter dev", "RTT"},
           {util::Align::Left, util::Align::Right, util::Align::Right});
  for (std::size_t b = 0; b < capture::kOffloadBuckets; ++b) {
    if (rep.jitter.buckets[b] == 0 && rep.rtt.buckets[b] == 0) continue;
    t.row({offload_bucket_label(b), util::with_commas(rep.jitter.buckets[b]),
           util::with_commas(rep.rtt.buckets[b])});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <capture.pcap[ng]>|--demo [--threads <n>]\n"
                 "          [--csv <prefix>] [--p2p-timeout <s>] [--anon-key <hex>]\n"
                 "          [--strict] [--corrupt <seed>] [--no-frontend]\n"
                 "          [--frontend-stats] [--flow-memory-budget <bytes>]\n"
                 "          [--no-sketch] [--sketch-stats] [--overload]\n"
                 "          [--overload-inject <spec>] [--overload-window <n>]\n"
                 "          [--dataplane-offload] [--offload-stats]\n",
                 argv[0]);
    return 2;
  }
  std::string input = argv[1];
  std::string csv_prefix;
  double p2p_timeout_s = 60.0;
  std::size_t threads = 1;
  std::optional<std::uint64_t> anon_key;
  bool strict = false;
  std::optional<std::uint64_t> corrupt_seed;
  bool frontend = true;
  bool frontend_stats = false;
  std::size_t flow_memory_budget = std::size_t{1} << 20;
  bool sketch = true;
  bool sketch_stats = false;
  bool overload_enabled = false;
  std::string overload_inject;
  std::uint64_t overload_window = 2048;
  bool dataplane_offload = false;
  bool offload_stats = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (threads == 0) {
        std::fprintf(stderr, "--threads wants a positive count\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc) {
      csv_prefix = argv[++i];
    } else if (!std::strcmp(argv[i], "--p2p-timeout") && i + 1 < argc) {
      p2p_timeout_s = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--anon-key") && i + 1 < argc) {
      anon_key = std::strtoull(argv[++i], nullptr, 16);
    } else if (!std::strcmp(argv[i], "--strict")) {
      strict = true;
    } else if (!std::strcmp(argv[i], "--corrupt") && i + 1 < argc) {
      corrupt_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--no-frontend")) {
      frontend = false;
    } else if (!std::strcmp(argv[i], "--frontend-stats")) {
      frontend_stats = true;
    } else if (!std::strcmp(argv[i], "--flow-memory-budget") && i + 1 < argc) {
      flow_memory_budget = util::parse_byte_size(argv[++i]);
      if (flow_memory_budget == 0) {
        std::fprintf(stderr,
                     "--flow-memory-budget wants a byte count like 4M or "
                     "262144 (use --no-sketch to disable the tier)\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--no-sketch")) {
      sketch = false;
    } else if (!std::strcmp(argv[i], "--sketch-stats")) {
      sketch_stats = true;
    } else if (!std::strcmp(argv[i], "--overload")) {
      overload_enabled = true;
    } else if (!std::strcmp(argv[i], "--overload-inject") && i + 1 < argc) {
      overload_inject = argv[++i];
      overload_enabled = true;  // a schedule implies the governor
    } else if (!std::strcmp(argv[i], "--overload-window") && i + 1 < argc) {
      overload_window = std::strtoull(argv[++i], nullptr, 10);
      if (overload_window == 0) overload_window = 2048;
    } else if (!std::strcmp(argv[i], "--dataplane-offload")) {
      dataplane_offload = true;
    } else if (!std::strcmp(argv[i], "--offload-stats")) {
      offload_stats = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (!overload_inject.empty() && !overload::PressureSchedule().parse(overload_inject)) {
    std::fprintf(stderr, "--overload-inject wants "
                 "\"begin-end:pressure[,...]\" over packet indices\n");
    return 2;
  }

  core::AnalyzerConfig cfg;
  cfg.p2p_timeout = util::Duration::seconds(p2p_timeout_s);
  cfg.strict = strict;
  if (anon_key) {
    // The capture's addresses were rewritten prefix-preservingly; map
    // our subnet knowledge through the same function.
    capture::PrefixPreservingAnonymizer anon(*anon_key);
    std::vector<net::Ipv4Subnet> mapped;
    for (const auto& subnet : cfg.server_db.subnets())
      mapped.emplace_back(anon.anonymize(subnet.base()), subnet.prefix_len());
    cfg.server_db = zoom::ServerDb(mapped);
  }

  // One window over the whole input: both epoch limits off.
  analysis::EpochEngineConfig engine_cfg;
  engine_cfg.analyzer = cfg;
  engine_cfg.shards = threads;
  engine_cfg.frontend = frontend;
  engine_cfg.flow_memory_budget = sketch ? flow_memory_budget : 0;
  engine_cfg.dataplane_offload = dataplane_offload;
  engine_cfg.limits = {0, util::Duration::micros(0)};
  if (overload_enabled) {
    engine_cfg.overload.enabled = true;
    engine_cfg.overload.window_packets = overload_window;
    // A file replay has no live pressure signal: without a schedule the
    // governor observes zero pressure (governed-but-calm, L0 forever).
    engine_cfg.overload.inject = overload_inject.empty() ? "0-1:0" : overload_inject;
  }

  // Copied by value: the simulator / corruption queue producing the
  // tallies dies with its branch scope, but the report prints later.
  std::optional<sim::CorruptionStats> corruption;
  // Declared before the engine: Pinned batches alias the mapped file,
  // so the mapping must outlive it.
  std::unique_ptr<net::TraceSource> source;
  analysis::EpochEngine engine(std::move(engine_cfg));
  std::signal(SIGINT, on_interrupt);
  if (input == "--demo") {
    sim::MeetingConfig mc;
    mc.seed = 21;
    mc.start = util::Timestamp::from_seconds(0);
    mc.duration = util::Duration::seconds(90);
    sim::ParticipantConfig a, b, c;
    a.ip = net::Ipv4Addr(10, 8, 0, 1);
    b.ip = net::Ipv4Addr(10, 8, 0, 2);
    c.ip = net::Ipv4Addr(98, 0, 0, 3);
    c.on_campus = false;
    b.send_screen_share = true;
    mc.participants = {a, b, c};
    if (corrupt_seed) mc.corruption = sim::CorruptorConfig::hostile(*corrupt_seed);
    sim::MeetingSim sim(mc);
    offer_owned(engine, [&] { return sim.next_packet(); });
    if (const auto* cs = sim.corruption_stats()) corruption = *cs;
  } else {
    source = std::make_unique<net::TraceSource>(input);
    if (!source->ok()) {
      std::fprintf(stderr, "error: cannot open %s (unreadable, empty, or not "
                   "pcap/pcapng)\n", input.c_str());
      return 1;
    }
    if (corrupt_seed) {
      // Capture cuts need a trace extent the file does not announce;
      // the other hostile impairments all apply record-by-record, so
      // the corruption queue keeps the owned per-packet pull.
      sim::CorruptionQueue corruptor(sim::CorruptorConfig::hostile(*corrupt_seed));
      auto pull = [&]() -> std::optional<net::RawPacket> {
        auto view = source->next();
        if (!view) return std::nullopt;
        return view->to_owned();
      };
      offer_owned(engine, [&] { return corruptor.next(pull); });
      corruption = corruptor.corruptor().stats();
    } else {
      // Zero-copy batched fast path: mapped traces are analyzed in
      // place; unmappable inputs stream through a reused buffer.
      const auto lifetime = source->mapped() ? pipeline::BatchLifetime::Pinned
                                            : pipeline::BatchLifetime::Transient;
      std::vector<net::RawPacketView> batch;
      batch.reserve(kBatch);
      std::vector<analysis::EpochReport> completed;  // limits off: stays empty
      while (!g_interrupted && source->next_batch(batch, kBatch) > 0)
        engine.offer(batch, lifetime, completed);
    }
    if (engine.global_packets() == 0) {
      std::fprintf(stderr, "error: %s: %s\n", input.c_str(),
                   source->ok() ? "capture contains no records"
                               : source->error().c_str());
      return 1;
    }
    if (!source->ok()) {
      std::fprintf(stderr, "warning: capture ended with error: %s\n",
                   source->error().c_str());
    }
  }
  std::signal(SIGINT, SIG_DFL);

  if (g_interrupted)
    std::fprintf(stderr, "\ninterrupted: draining and reporting over the "
                 "packets analyzed so far\n");
  analysis::EpochReport rep = engine.finish().value_or(analysis::EpochReport{});
  // A file run reads its one window and never retires it.
  rep.health.epoch_evicted_flows = 0;
  rep.health.epoch_evicted_meetings = 0;
  if (rep.max_overload_level >= 3)
    std::printf("NOTE: report degraded — overload reached L%u "
                "(media-flow sampling%s); metrics cover the sampled "
                "subset\n",
                rep.max_overload_level,
                rep.max_overload_level >= 4 ? " + batch head-drop" : "");
  if (rep.max_overload_level > 0)
    std::printf("overload: max level L%u, shed l1=%llu l2=%llu l3=%llu "
                "l4=%llu\n\n",
                rep.max_overload_level,
                static_cast<unsigned long long>(rep.health.overload_shed_l1),
                static_cast<unsigned long long>(rep.health.overload_shed_l2),
                static_cast<unsigned long long>(rep.health.overload_shed_l3),
                static_cast<unsigned long long>(rep.health.overload_shed_l4));

  if (const auto violation = engine.strict_violation()) {
    std::fprintf(stderr,
                 "strict: malformed record (%.*s) at packet %llu, t=%.6f s\n",
                 static_cast<int>(violation->category.size()),
                 violation->category.data(),
                 static_cast<unsigned long long>(violation->sequence),
                 violation->ts.sec());
    return 3;
  }

  if (corruption) {
    const auto& cs = *corruption;
    std::printf("== fault injection (seed %llu) =================================\n",
                static_cast<unsigned long long>(*corrupt_seed));
    std::printf("offered %llu -> emitted %llu | truncated %llu | header flips %llu\n"
                "payload flips %llu | dropped %llu | cut %llu | duplicated %llu\n"
                "ts regressions %llu | look-alikes %llu\n\n",
                static_cast<unsigned long long>(cs.offered),
                static_cast<unsigned long long>(cs.emitted),
                static_cast<unsigned long long>(cs.truncated),
                static_cast<unsigned long long>(cs.header_flips),
                static_cast<unsigned long long>(cs.payload_flips),
                static_cast<unsigned long long>(cs.dropped),
                static_cast<unsigned long long>(cs.cut_dropped),
                static_cast<unsigned long long>(cs.duplicated),
                static_cast<unsigned long long>(cs.ts_regressions),
                static_cast<unsigned long long>(cs.lookalikes_injected));
  }

  const auto streams = engine.streams();
  print_report(rep, streams, engine.meetings());

  const auto* filter = engine.frontend();
  if (frontend_stats) {
    std::printf("\n== capture front end ===========================================\n");
    if (!filter) {
      std::printf("front end not active on this path (--no-frontend)\n");
    } else {
      util::TextTable fe;
      fe.header({"Counter", "Packets", "Description"},
                {util::Align::Left, util::Align::Right, util::Align::Left});
      for (const auto& row : analysis::frontend_rows(filter->stats()))
        fe.row({std::string(row.category), util::with_commas(row.count),
                std::string(row.description)});
      std::printf("%s", fe.render().c_str());
      std::printf("%zu admitted flows, %zu armed candidate endpoints, %s probe\n",
                  filter->flow_count(), filter->candidate_endpoint_count(),
                  filter->simd_active() ? "SWAR/SSE2" : "scalar");
    }
  }

  if (sketch_stats) {
    std::printf("\n== sketch flow tier ============================================\n");
    if (!filter || !filter->sketch_enabled()) {
      std::printf("sketch tier not active (%s)\n",
                  !sketch ? "--no-sketch" : "front end not on this path");
    } else {
      const auto report = filter->sketch_report(10);
      const auto& ts = report.stats;
      std::printf("budget %s | absorbed %s background packets (%s)\n",
                  util::human_bytes(flow_memory_budget).c_str(),
                  util::with_commas(ts.absorbed_packets).c_str(),
                  util::human_bytes(ts.absorbed_bytes).c_str());
      std::printf("promotions %s | demotions %s | evictions %s\n",
                  util::with_commas(ts.promotions).c_str(),
                  util::with_commas(ts.demotions).c_str(),
                  util::with_commas(ts.evictions).c_str());
      if (filter->stats().promoted_packets > 0)
        std::printf("promoted flows carried %s pre-admission packets (%s)\n",
                    util::with_commas(filter->stats().promoted_packets).c_str(),
                    util::human_bytes(filter->stats().promoted_bytes).c_str());
      if (!report.heavy_hitters.empty()) {
        util::TextTable hh;
        hh.header({"Background flow", "Bytes", "Packets", "Err bytes"},
                  {util::Align::Left, util::Align::Right, util::Align::Right,
                   util::Align::Right});
        for (const auto& h : report.heavy_hitters)
          hh.row({h.flow.to_string(), util::human_bytes(h.bytes),
                  util::with_commas(h.packets), util::with_commas(h.error_bytes)});
        std::printf("%s", hh.render().c_str());
      }
    }
  }

  if (offload_stats) {
    std::printf("\n== data-plane metric offload ===================================\n");
    if (!filter || !filter->offload_enabled()) {
      std::printf("offload not active (%s)\n",
                  filter ? "pass --dataplane-offload to enable"
                     : "front end not on this path");
    } else {
      const auto orep = filter->offload_report();
      std::printf("covered %s media packets | probe arms %s | rtt samples %s\n",
                  util::with_commas(orep.covered_packets).c_str(),
                  util::with_commas(orep.probe_arms).c_str(),
                  util::with_commas(orep.rtt.samples).c_str());
      std::printf("jitter samples %s | collisions %s | scratch evictions %s\n",
                  util::with_commas(orep.jitter.samples).c_str(),
                  util::with_commas(orep.collisions()).c_str(),
                  util::with_commas(orep.flow_evictions).c_str());
      if (orep.jitter.samples > 0 || orep.rtt.samples > 0)
        print_offload_histograms(orep);
    }
  }

  if (!csv_prefix.empty()) export_csvs(streams, engine.meetings(), csv_prefix);
  return g_interrupted ? 4 : 0;
}
