// Data-plane metric offload: what the host saves when the switch keeps
// the RTT/jitter registers (capture/offload.h).
//
// Three experiment groups:
//
//   * metric-path micro-harness: the analyzer's per-packet metric work
//     for a covered media stream pair — StreamMetrics updates plus the
//     §5.3 copy-matcher (serial flavor) or journal-event production +
//     merge replay (sharded flavor) — timed with the offload off
//     (covered=false, full work) and on (covered=true, estimator and
//     matcher work skipped, exactly the analyzer's gate). The sharded
//     flavor's speedup is the headline claim: offload on must cut
//     per-packet metric-path time by ZPM_OFFLOAD_SPEEDUP_MIN (default
//     1.3x).
//   * end-to-end pipeline passes over the campus+meeting trace at 1 and
//     4 shards, offload off/on (informational: full runs are dominated
//     by decode, so the metric-path saving shows up diluted).
//   * correctness gates: warm classification with the offload on
//     performs zero steady-state allocations (the offload update path
//     is register-array work, nothing else); epoch reports with the
//     offload off are byte-identical serial vs 4-shard; and the
//     offload-on histograms agree with an exact-sample reference
//     bit-for-bit, with quantile estimates within one bucket width of
//     the exact per-packet CDF.
//
// Usage: bench_offload [--check] [output.json]
//   --check  exit non-zero when a gate fails (CI smoke mode).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/epoch.h"
#include "capture/batch_filter.h"
#include "capture/offload.h"
#include "core/analyzer.h"
#include "metrics/latency.h"
#include "metrics/stream_metrics.h"
#include "net/packet.h"
#include "pipeline/parallel_analyzer.h"
#include "sim/campus.h"
#include "sim/meeting.h"
#include "util/bytes.h"
#include "counting_alloc.h"

namespace {

using namespace zpm;
using Clock = std::chrono::steady_clock;

struct ModeResult {
  std::string name;
  std::uint64_t packets = 0;  // per pass
  double seconds = 0;         // fastest single pass
  std::uint64_t steady_allocs = 0;

  [[nodiscard]] double ns_per_pkt() const {
    return packets > 0 ? seconds * 1e9 / static_cast<double>(packets) : 0;
  }
};

/// Same campus-style mix as bench_filter: heavy non-Zoom background
/// woven with a genuine 4-participant meeting.
std::vector<net::RawPacket> make_trace() {
  sim::CampusConfig cc;
  cc.seed = 7;
  cc.duration = util::Duration::seconds(60);
  cc.meetings_per_peak_hour = 10.0;
  cc.background_ratio = 3.0;
  sim::CampusSimulation campus(cc);
  std::vector<net::RawPacket> background;
  while (auto pkt = campus.next_packet()) background.push_back(std::move(*pkt));

  sim::MeetingConfig mc;
  mc.seed = 1;
  mc.start = cc.day_start + util::Duration::seconds(2);
  mc.duration = util::Duration::seconds(55);
  sim::ParticipantConfig a, b, c, d;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  b.send_screen_share = true;
  c.ip = net::Ipv4Addr(10, 8, 0, 3);
  d.ip = net::Ipv4Addr(98, 0, 0, 4);
  d.on_campus = false;
  mc.participants = {a, b, c, d};
  auto meeting = sim::run_meeting(mc);

  std::vector<net::RawPacket> trace;
  trace.reserve(background.size() + meeting.size());
  std::size_t i = 0, j = 0;
  while (i < background.size() || j < meeting.size()) {
    bool take_bg = j == meeting.size() ||
                   (i < background.size() && background[i].ts <= meeting[j].ts);
    trace.push_back(std::move(take_bg ? background[i++] : meeting[j++]));
  }
  return trace;
}

// --------------------------------------------------------------------------
// Metric-path micro-harness.

/// One replayed journal event (the sharded pipeline defers the §5.3
/// copy-match to the merge step's global replay; covered packets never
/// produce these events).
struct CopyEvent {
  bool egress = false;
  std::uint32_t ssrc = 0;
  std::uint16_t seq = 0;
  std::uint32_t rtp_ts = 0;
  util::Timestamp t;
};

constexpr std::size_t kMicroIters = 25'000;  // 8 packets per iteration
constexpr int kMicroRounds = 8;              // first is warm-up, discarded

/// One pass of the synthetic covered-stream schedule: per ~33 ms video
/// frame tick, a 3-packet video frame up + its SFU-forwarded copy down,
/// plus one audio packet each way. Deterministic arrival jitter and RTT
/// from an LCG. Returns the loop wall time; `packets` and `allocs` are
/// accumulated. `covered` replicates the analyzer's offload gate:
/// StreamMetrics skips its estimator work and no copy-matcher /
/// journal-event work happens at all.
double micro_pass(bool covered, bool sharded, std::uint64_t& packets,
                  std::uint64_t& allocs) {
  auto make_metrics = [](zoom::MediaKind kind, std::uint32_t ssrc) {
    auto cfg = metrics::default_config(kind);
    cfg.keep_frames = false;
    return metrics::StreamMetrics(kind, ssrc, cfg);
  };
  metrics::StreamMetrics video_up = make_metrics(zoom::MediaKind::Video, 101);
  metrics::StreamMetrics video_down = make_metrics(zoom::MediaKind::Video, 101);
  metrics::StreamMetrics audio_up = make_metrics(zoom::MediaKind::Audio, 202);
  metrics::StreamMetrics audio_down = make_metrics(zoom::MediaKind::Audio, 202);
  metrics::RtpCopyMatcher matcher;
  std::vector<CopyEvent> journal;
  journal.reserve(sharded && !covered ? kMicroIters * 8 : 0);

  zoom::MediaEncap video_encap;
  video_encap.type = static_cast<std::uint8_t>(zoom::MediaEncapType::Video);
  video_encap.packets_in_frame = 3;
  zoom::MediaEncap audio_encap;
  audio_encap.type = static_cast<std::uint8_t>(zoom::MediaEncapType::Audio);

  proto::RtpHeader video_rtp;
  video_rtp.payload_type = zoom::pt::kVideoMain;
  video_rtp.ssrc = 101;
  proto::RtpHeader audio_rtp;
  audio_rtp.payload_type = zoom::pt::kAudioSpeaking;
  audio_rtp.ssrc = 202;

  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  auto rnd = [&](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % mod;
  };

  const std::uint64_t before = bench::thread_allocs();
  const auto start = Clock::now();
  std::uint16_t vseq = 0, aseq = 0;
  for (std::size_t i = 0; i < kMicroIters; ++i) {
    const std::int64_t base_us = static_cast<std::int64_t>(i) * 33'333;
    const std::int64_t arrival_jitter = static_cast<std::int64_t>(rnd(4'000));
    const std::int64_t rtt_us = 15'000 + static_cast<std::int64_t>(rnd(5'000));
    const std::uint32_t vts = static_cast<std::uint32_t>(i * 3'000);  // 90 kHz

    // Video frame: 3 packets up, then the SFU-forwarded copy down.
    for (int k = 0; k < 3; ++k) {
      const auto t_up =
          util::Timestamp::from_micros(base_us + arrival_jitter + k * 200);
      video_encap.sequence = vseq;
      video_rtp.sequence = vseq;
      video_rtp.timestamp = vts;
      video_up.on_media_packet(t_up, video_encap, video_rtp, 900, 930, covered);
      if (!covered) {
        if (sharded)
          journal.push_back({true, 101, vseq, vts, t_up});
        else
          matcher.on_egress(t_up, 101, vseq, vts);
      }
      const auto t_down = util::Timestamp::from_micros(t_up.us() + rtt_us);
      video_down.on_media_packet(t_down, video_encap, video_rtp, 900, 930,
                                 covered);
      if (!covered) {
        if (sharded) {
          journal.push_back({false, 101, vseq, vts, t_down});
        } else if (auto s = matcher.on_ingress(t_down, 101, vseq, vts)) {
          video_down.on_rtt_sample(*s);
        }
      }
      ++vseq;
    }

    // One audio packet each way (48 kHz clock, fresh timestamp).
    const std::uint32_t ats = static_cast<std::uint32_t>(i * 1'600);
    const auto a_up = util::Timestamp::from_micros(base_us + arrival_jitter + 70);
    audio_encap.sequence = aseq;
    audio_rtp.sequence = aseq;
    audio_rtp.timestamp = ats;
    audio_up.on_media_packet(a_up, audio_encap, audio_rtp, 120, 150, covered);
    if (!covered) {
      if (sharded)
        journal.push_back({true, 202, aseq, ats, a_up});
      else
        matcher.on_egress(a_up, 202, aseq, ats);
    }
    const auto a_down = util::Timestamp::from_micros(a_up.us() + rtt_us);
    audio_down.on_media_packet(a_down, audio_encap, audio_rtp, 120, 150, covered);
    if (!covered) {
      if (sharded) {
        journal.push_back({false, 202, aseq, ats, a_down});
      } else if (auto s = matcher.on_ingress(a_down, 202, aseq, ats)) {
        audio_down.on_rtt_sample(*s);
      }
    }
    ++aseq;
  }
  // Sharded flavor: the merge step replays the journal globally and
  // injects the matched samples — part of the host's metric path.
  if (sharded && !covered) {
    for (const auto& ev : journal) {
      if (ev.egress) {
        matcher.on_egress(ev.t, ev.ssrc, ev.seq, ev.rtp_ts);
      } else if (auto s = matcher.on_ingress(ev.t, ev.ssrc, ev.seq, ev.rtp_ts)) {
        (ev.ssrc == 101 ? video_down : audio_down).on_rtt_sample(*s);
      }
    }
  }
  video_up.finish();
  video_down.finish();
  audio_up.finish();
  audio_down.finish();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  allocs = bench::thread_allocs() - before;
  packets = kMicroIters * 8;
  return seconds;
}

ModeResult run_micro_mode(const char* name, bool covered, bool sharded) {
  ModeResult r;
  r.name = name;
  r.seconds = 1e30;
  for (int round = 0; round < kMicroRounds; ++round) {
    std::uint64_t packets = 0, allocs = 0;
    const double s = micro_pass(covered, sharded, packets, allocs);
    if (round == 0) continue;
    r.packets = packets;
    r.seconds = std::min(r.seconds, s);
    r.steady_allocs = allocs;
  }
  return r;
}

// --------------------------------------------------------------------------
// End-to-end pipeline passes.

constexpr std::size_t kBatch = 1024;
constexpr int kPipeRounds = 4;  // first is warm-up, discarded

ModeResult run_pipeline_mode(const char* name,
                             std::span<const net::RawPacketView> views,
                             std::size_t shards, bool offload) {
  ModeResult r;
  r.name = name;
  r.seconds = 1e30;
  for (int round = 0; round < kPipeRounds; ++round) {
    core::AnalyzerConfig cfg;
    cfg.keep_frames = false;
    capture::BatchFilterConfig fc;
    fc.shards = shards;
    fc.flow_memory_budget = 0;
    fc.dataplane_offload = offload;
    capture::BatchFilter filter(fc);
    capture::BatchVerdicts verdicts;
    std::optional<core::Analyzer> serial;
    std::optional<pipeline::ParallelAnalyzer> parallel;
    if (shards > 1) {
      pipeline::ParallelAnalyzerConfig pc;
      pc.analyzer = cfg;
      pc.shards = shards;
      parallel.emplace(std::move(pc));
    } else {
      serial.emplace(cfg);
    }
    const std::uint64_t before = bench::thread_allocs();
    const auto start = Clock::now();
    for (std::size_t off = 0; off < views.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, views.size() - off);
      const std::span<const net::RawPacketView> batch(views.data() + off, n);
      filter.classify(batch, verdicts);
      if (parallel) {
        parallel->offer_batch(batch, pipeline::BatchLifetime::Pinned, verdicts);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          if (verdicts.verdicts[i] == capture::Verdict::Reject)
            serial->account_frontend_rejected(batch[i]);
          else
            serial->offer(batch[i],
                          verdicts.verdicts[i] == capture::Verdict::Admit &&
                              (verdicts.flags[i] &
                               capture::kFlagOffloadCovered) != 0);
        }
      }
    }
    if (parallel)
      parallel->finish();
    else
      serial->finish();
    const double s = std::chrono::duration<double>(Clock::now() - start).count();
    if (round == 0) continue;
    r.packets = views.size();
    r.seconds = std::min(r.seconds, s);
    r.steady_allocs = bench::thread_allocs() - before;
  }
  return r;
}

// --------------------------------------------------------------------------
// Correctness gates.

/// Warm classification with the offload enabled must not allocate: the
/// offload update is fixed register-array arithmetic.
bool classify_steady_alloc_gate(std::span<const net::RawPacketView> views,
                                std::uint64_t& steady_allocs) {
  capture::BatchFilterConfig fc;
  fc.shards = 4;
  fc.dataplane_offload = true;
  capture::BatchFilter filter(fc);
  capture::BatchVerdicts verdicts;
  auto pass = [&]() {
    for (std::size_t off = 0; off < views.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, views.size() - off);
      filter.classify({views.data() + off, n}, verdicts);
    }
  };
  pass();  // warm-up: table growth, verdict buffers
  const std::uint64_t before = bench::thread_allocs();
  pass();
  steady_allocs = bench::thread_allocs() - before;
  return steady_allocs == 0;
}

/// Offload off: the durable epoch record must be byte-identical serial
/// vs 4-shard (sketch tier off so no legitimately shard-dependent
/// section is in play).
bool report_identity_gate(std::span<const net::RawPacketView> views) {
  auto run = [&](std::size_t shards) {
    analysis::EpochEngineConfig ec;
    ec.analyzer.keep_frames = false;
    ec.shards = shards;
    ec.frontend = true;
    ec.flow_memory_budget = 0;
    ec.limits.max_packets = 0;
    ec.limits.max_span = util::Duration::micros(0);
    analysis::EpochEngine engine(std::move(ec));
    std::vector<analysis::EpochReport> completed;
    for (std::size_t off = 0; off < views.size(); off += kBatch) {
      const std::size_t n = std::min(kBatch, views.size() - off);
      engine.offer({views.data() + off, n}, pipeline::BatchLifetime::Pinned,
                   completed);
    }
    auto rep = engine.flush();
    util::ByteWriter w;
    if (rep) analysis::encode_epoch_report(*rep, w);
    return w.take();
  };
  return run(1) == run(4);
}

/// Offload on (1 shard so the reference sees the identical stream): the
/// register histograms must equal the exact-sample reference bit for
/// bit, and the bucketed quantiles must sit within one bucket width of
/// the exact per-packet CDF.
bool cdf_agreement_gate(std::span<const net::RawPacketView> views,
                        std::uint64_t& covered, bool& quantiles_ok) {
  capture::BatchFilterConfig fc;
  fc.shards = 1;
  fc.dataplane_offload = true;
  capture::BatchFilter filter(fc);
  capture::OffloadReference reference;
  capture::BatchVerdicts verdicts;
  for (std::size_t off = 0; off < views.size(); off += kBatch) {
    const std::size_t n = std::min(kBatch, views.size() - off);
    const std::span<const net::RawPacketView> batch(views.data() + off, n);
    filter.classify(batch, verdicts);
    for (std::size_t i = 0; i < n; ++i) {
      if (verdicts.verdicts[i] != capture::Verdict::Admit ||
          (verdicts.flags[i] & capture::kFlagOffloadCovered) == 0)
        continue;
      const auto fields = capture::extract_offload_fields(batch[i].data);
      if (fields) reference.on_media_packet(batch[i].ts, *fields);
    }
  }
  const auto hist = filter.offload_report();
  const auto ref = reference.report();
  covered = hist.covered_packets;

  // Quantile agreement: the bucketed estimate's bucket must contain the
  // exact sample value, so the estimate error is bounded by one bucket
  // width (the histogram resolution claim).
  auto quantiles_within_one_bucket =
      [](const capture::OffloadHistogram& h, std::vector<std::uint64_t> exact) {
        if (exact.empty()) return true;
        std::sort(exact.begin(), exact.end());
        for (const double q : {0.5, 0.9, 0.99}) {
          const std::size_t idx = static_cast<std::size_t>(
              q * static_cast<double>(exact.size() - 1));
          const std::uint64_t rank = idx + 1;
          std::uint64_t cum = 0;
          std::size_t bucket = capture::kOffloadBuckets - 1;
          for (std::size_t b = 0; b < capture::kOffloadBuckets; ++b) {
            cum += h.buckets[b];
            if (cum >= rank) {
              bucket = b;
              break;
            }
          }
          if (capture::offload_bucket(exact[idx]) != bucket) return false;
        }
        return true;
      };
  quantiles_ok =
      quantiles_within_one_bucket(hist.jitter, reference.jitter_samples_us()) &&
      quantiles_within_one_bucket(hist.rtt, reference.rtt_samples_us());
  return hist == ref && covered > 0 && hist.jitter.samples > 0 &&
         hist.rtt.samples > 0;
}

void write_json(const std::string& path, const std::vector<ModeResult>& results,
                double micro_serial_speedup, double micro_sharded_speedup,
                double threshold, std::uint64_t classify_steady_allocs,
                bool allocs_clean, bool identity, bool cdf_exact,
                bool quantiles_ok, std::uint64_t covered, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"offload\",\n  \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"packets\": %llu, \"seconds\": %.6f, "
                 "\"ns_per_pkt\": %.2f, \"steady_allocs\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.packets),
                 r.seconds, r.ns_per_pkt(),
                 static_cast<unsigned long long>(r.steady_allocs),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"metric_path_serial_speedup\": %.3f,\n"
               "  \"metric_path_sharded_speedup\": %.3f,\n"
               "  \"speedup_threshold\": %.2f,\n"
               "  \"classify_steady_allocs\": %llu,\n"
               "  \"classify_allocs_clean\": %s,\n"
               "  \"report_identity_offload_off\": %s,\n"
               "  \"histograms_match_reference\": %s,\n"
               "  \"quantiles_within_one_bucket\": %s,\n"
               "  \"covered_packets\": %llu,\n  \"pass\": %s\n}\n",
               micro_serial_speedup, micro_sharded_speedup, threshold,
               static_cast<unsigned long long>(classify_steady_allocs),
               allocs_clean ? "true" : "false", identity ? "true" : "false",
               cdf_exact ? "true" : "false", quantiles_ok ? "true" : "false",
               static_cast<unsigned long long>(covered),
               pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_offload.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  double threshold = 1.3;
  if (const char* env = std::getenv("ZPM_OFFLOAD_SPEEDUP_MIN"))
    threshold = std::atof(env);

  auto trace = make_trace();
  std::vector<net::RawPacketView> views;
  views.reserve(trace.size());
  for (const auto& pkt : trace) views.push_back(net::as_view(pkt));
  std::printf("trace: %zu packets\n\n", trace.size());

  std::vector<ModeResult> results;
  results.push_back(run_micro_mode("metric_path_serial_off", false, false));
  results.push_back(run_micro_mode("metric_path_serial_on", true, false));
  results.push_back(run_micro_mode("metric_path_sharded_off", false, true));
  results.push_back(run_micro_mode("metric_path_sharded_on", true, true));
  results.push_back(run_pipeline_mode("pipeline_1shard_off", views, 1, false));
  results.push_back(run_pipeline_mode("pipeline_1shard_on", views, 1, true));
  results.push_back(run_pipeline_mode("pipeline_4shard_off", views, 4, false));
  results.push_back(run_pipeline_mode("pipeline_4shard_on", views, 4, true));

  for (const auto& r : results)
    std::printf("%-26s %9.1f ns/pkt  %8.4f s/pass  (allocs %llu)\n",
                r.name.c_str(), r.ns_per_pkt(), r.seconds,
                static_cast<unsigned long long>(r.steady_allocs));

  const double serial_speedup =
      results[1].ns_per_pkt() > 0
          ? results[0].ns_per_pkt() / results[1].ns_per_pkt()
          : 0;
  const double sharded_speedup =
      results[3].ns_per_pkt() > 0
          ? results[2].ns_per_pkt() / results[3].ns_per_pkt()
          : 0;

  std::uint64_t classify_steady_allocs = 0;
  const bool allocs_clean =
      classify_steady_alloc_gate(views, classify_steady_allocs);
  const bool identity = report_identity_gate(views);
  std::uint64_t covered = 0;
  bool quantiles_ok = false;
  const bool cdf_exact = cdf_agreement_gate(views, covered, quantiles_ok);

  const bool pass = sharded_speedup >= threshold && allocs_clean && identity &&
                    cdf_exact && quantiles_ok;

  std::printf("\nmetric-path speedup (offload on vs off): serial %.2fx, "
              "sharded %.2fx (threshold %.2fx)\n",
              serial_speedup, sharded_speedup, threshold);
  std::printf("classify steady-state allocs with offload on: %llu\n",
              static_cast<unsigned long long>(classify_steady_allocs));
  std::printf("epoch report identity (offload off, 1 vs 4 shards): %s\n",
              identity ? "byte-identical" : "MISMATCH");
  std::printf("offload histograms vs exact reference (%llu covered): %s, "
              "quantiles within one bucket: %s\n",
              static_cast<unsigned long long>(covered),
              cdf_exact ? "bit-identical" : "MISMATCH",
              quantiles_ok ? "yes" : "NO");
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  write_json(out_path, results, serial_speedup, sharded_speedup, threshold,
             classify_steady_allocs, allocs_clean, identity, cdf_exact,
             quantiles_ok, covered, pass);
  return check && !pass ? 1 : 0;
}
