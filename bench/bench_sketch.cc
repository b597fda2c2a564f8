// Sketch-tier benchmark: O(1)-memory background summarization against
// the exact per-flow state it replaces, on a synthetic million-flow
// Zipf background trace (sim::BackgroundTraffic).
//
// Sweeps the --flow-memory-budget sizes {256 KiB, 1 MiB, 4 MiB} and
// reports, per budget: absorb throughput, the tier's actual allocated
// footprint vs. its budget, heavy-hitter recall@100 against the
// generator's realized byte tallies, and the exact-baseline bytes an
// unordered_map would have spent on the same flows (the unbounded
// growth the tier replaces). Asserts (--check, CI smoke mode):
//   * the tier footprint stays within 1.25x the configured budget,
//   * warm absorb performs zero steady-state heap allocations,
//   * recall@100 >= 95% at the 4 MiB budget (ZPM_SKETCH_RECALL_MIN),
//   * the Zoom-admitted report is byte-identical with the tier on or
//     off, serial and 4-shard alike (digest over counters, streams,
//     meetings, RTT samples and health).
//
// Usage: bench_sketch [--check] [output.json]
//   ZPM_SKETCH_FLOWS / ZPM_SKETCH_PACKETS scale the background trace.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/batch_filter.h"
#include "net/packet.h"
#include "pipeline/parallel_analyzer.h"
#include "sim/background.h"
#include "sim/campus.h"
#include "sim/meeting.h"
#include "counting_alloc.h"

namespace {

using namespace zpm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 1024;
constexpr std::size_t kTopK = 100;

struct BudgetResult {
  std::size_t budget = 0;
  std::size_t tier_bytes = 0;    // actual allocated tier footprint
  double footprint_ratio = 0;    // tier_bytes / budget
  double recall_at_100 = 0;
  double seconds = 0;            // cumulative classify time
  std::uint64_t packets = 0;
  std::uint64_t evictions = 0;
  std::size_t tracked_flows = 0;

  [[nodiscard]] double pkts_per_s() const {
    return seconds > 0 ? static_cast<double>(packets) / seconds : 0;
  }
};

std::uint64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (!std::strncmp(line, "VmHWM:", 6)) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// --------------------------------------------------------------------------
// Report digest: everything the Zoom-admitted report exposes, hashed.
// Any byte of difference between tier-on/off or serial/sharded runs
// changes the digest.

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void flow(const net::FiveTuple& t) {
    const net::PackedFlowKey key(t);
    u64(key.k1);
    u64(key.k2);
  }
};

std::uint64_t report_digest(const pipeline::ParallelAnalyzer& par) {
  Digest d;
  const core::AnalyzerCounters& c = par.counters();
  d.u64(c.total_packets);
  d.u64(c.total_bytes);
  d.u64(c.zoom_packets);
  d.u64(c.zoom_bytes);
  d.u64(c.server_udp_packets);
  d.u64(c.p2p_udp_packets);
  d.u64(c.stun_packets);
  d.u64(c.tcp_control_packets);
  d.u64(c.media_packets);
  d.u64(c.rtcp_packets);
  for (const auto& [type, tally] : c.encap_types()) {
    d.u64(type);
    d.u64(tally.packets);
    d.u64(tally.bytes);
  }
  for (const auto& [key, tally] : c.payload_types()) {
    d.u64(static_cast<std::uint64_t>(key.first) << 8 | key.second);
    d.u64(tally.packets);
    d.u64(tally.bytes);
  }

  core::AnalyzerHealth health = par.health();
  health.ring_wait_spins = 0;  // documented nondeterministic
  d.u64(health.frontend_rejected);
  d.u64(health.dropped_records());
  d.u64(health.snaplen_truncated + health.non_monotonic_ts +
        health.quarantined_flows + health.unknown_payload_type);

  d.u64(par.zoom_flow_count());
  d.u64(par.media_count());
  for (const core::StreamInfo* s : par.streams()) {
    d.u64(s->index);
    d.flow(s->key.flow);
    d.u64(s->key.ssrc);
    d.u64(static_cast<std::uint64_t>(s->kind));
    d.u64(static_cast<std::uint64_t>(s->direction));
    d.u64(s->media_id);
    d.u64(s->meeting_id);
    d.u64(static_cast<std::uint64_t>(s->first_seen.us()));
    d.u64(static_cast<std::uint64_t>(s->last_seen.us()));
    d.u64(s->metrics->media_packets());
    d.u64(s->metrics->media_payload_bytes());
    d.u64(s->metrics->total_loss().gap_packets);
    d.f64(s->metrics->jitter_ms().value_or(-1.0));
    d.f64(s->metrics->mean_latency_ms().value_or(-1.0));
    for (const auto& sec : s->metrics->seconds()) {
      d.u64(static_cast<std::uint64_t>(sec.bin_start.us()));
      d.u64(sec.packets);
      d.u64(sec.media_bytes);
      d.u64(sec.transport_bytes);
      d.u64(sec.frames_completed);
      d.f64(sec.frame_rate_fps);
      d.f64(sec.jitter_ms.value_or(-1.0));
      d.f64(sec.latency_ms.value_or(-1.0));
      d.u64(sec.duplicates);
      d.u64(sec.reordered);
      d.u64(sec.gap_packets);
    }
  }
  for (const auto* m : par.meetings().meetings()) {
    d.u64(m->id);
    d.u64(m->stream_count);
    d.u64(m->media_ids.size());
    d.u64(m->client_ips.size());
    d.u64(static_cast<std::uint64_t>(m->first_seen.us()));
    d.u64(static_cast<std::uint64_t>(m->last_seen.us()));
    d.u64(m->saw_p2p ? 1 : 0);
    for (const auto& s : m->rtt_to_sfu) {
      d.u64(static_cast<std::uint64_t>(s.when.us()));
      d.u64(static_cast<std::uint64_t>(s.rtt.us()));
    }
  }
  for (const auto& s : par.sfu_rtt_samples()) {
    d.u64(static_cast<std::uint64_t>(s.when.us()));
    d.u64(static_cast<std::uint64_t>(s.rtt.us()));
  }
  // tcp_rtt is an unordered_map: hash in sorted-key order.
  std::vector<net::FiveTuple> tcp_keys;
  for (const auto& [flow, est] : par.tcp_rtt()) tcp_keys.push_back(flow);
  std::sort(tcp_keys.begin(), tcp_keys.end());
  for (const auto& flow : tcp_keys) {
    const auto& est = par.tcp_rtt().at(flow);
    d.flow(flow);
    d.u64(est.server_rtt().size());
    d.u64(est.client_rtt().size());
  }
  return d.h;
}

/// A small Zoom-bearing campus slice (meeting + background noise) for
/// the bit-identity check.
std::vector<net::RawPacket> make_zoom_trace() {
  sim::CampusConfig cc;
  cc.seed = 21;
  cc.duration = util::Duration::seconds(180);
  cc.meetings_per_peak_hour = 60.0;
  cc.background_ratio = 1.0;
  sim::CampusSimulation campus(cc);
  std::vector<net::RawPacket> trace;
  while (auto pkt = campus.next_packet()) trace.push_back(std::move(*pkt));
  return trace;
}

/// Runs the Zoom trace through BatchFilter + ParallelAnalyzer with the
/// given shard count and tier budget; returns the report digest.
std::uint64_t run_screened(const std::vector<net::RawPacket>& trace,
                           std::size_t shards, std::size_t budget) {
  capture::BatchFilterConfig fc;
  fc.shards = shards;
  fc.flow_memory_budget = budget;
  capture::BatchFilter filter(fc);

  pipeline::ParallelAnalyzerConfig pc;
  pc.shards = shards;
  pipeline::ParallelAnalyzer par(pc);

  capture::BatchVerdicts verdicts;
  std::vector<net::RawPacketView> views;
  views.reserve(kBatch);
  for (std::size_t off = 0; off < trace.size(); off += kBatch) {
    views.clear();
    const std::size_t n = std::min(kBatch, trace.size() - off);
    for (std::size_t j = 0; j < n; ++j)
      views.push_back(net::as_view(trace[off + j]));
    filter.classify(views, verdicts);
    par.offer_batch(views, pipeline::BatchLifetime::Pinned, verdicts);
  }
  par.finish();
  return report_digest(par);
}

void write_json(const std::string& path, const std::vector<BudgetResult>& budgets,
                std::size_t flows, std::uint64_t packets,
                std::uint64_t exact_baseline_bytes, std::uint64_t steady_allocs,
                bool report_identical, double recall_min, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"sketch\",\n");
  std::fprintf(f, "  \"flows\": %zu,\n  \"packets\": %llu,\n", flows,
               static_cast<unsigned long long>(packets));
  std::fprintf(f, "  \"budgets\": [\n");
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto& b = budgets[i];
    std::fprintf(f,
                 "    {\"budget_bytes\": %zu, \"tier_bytes\": %zu, "
                 "\"footprint_ratio\": %.3f, \"recall_at_100\": %.4f, "
                 "\"pkts_per_s\": %.1f, \"evictions\": %llu, "
                 "\"tracked_flows\": %zu}%s\n",
                 b.budget, b.tier_bytes, b.footprint_ratio, b.recall_at_100,
                 b.pkts_per_s(), static_cast<unsigned long long>(b.evictions),
                 b.tracked_flows, i + 1 < budgets.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"exact_baseline_bytes\": %llu,\n"
               "  \"steady_allocs\": %llu,\n"
               "  \"peak_rss_kb\": %llu,\n"
               "  \"report_identical\": %s,\n"
               "  \"recall_threshold\": %.2f,\n  \"pass\": %s\n}\n",
               static_cast<unsigned long long>(exact_baseline_bytes),
               static_cast<unsigned long long>(steady_allocs),
               static_cast<unsigned long long>(vm_hwm_kb()),
               report_identical ? "true" : "false", recall_min,
               pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_sketch.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }

  sim::BackgroundConfig bg;
  bg.seed = 11;
  bg.flows = 1'000'000;
  if (const char* env = std::getenv("ZPM_SKETCH_FLOWS"))
    bg.flows = std::strtoull(env, nullptr, 10);
  bg.packets = bg.flows * 4;
  if (const char* env = std::getenv("ZPM_SKETCH_PACKETS"))
    bg.packets = std::strtoull(env, nullptr, 10);
  double recall_min = 0.95;
  if (const char* env = std::getenv("ZPM_SKETCH_RECALL_MIN"))
    recall_min = std::atof(env);

  std::printf("background: %zu flows, %zu packets (Zipf s=%.2f)\n\n", bg.flows,
              bg.packets, bg.zipf_s);

  // One streamed generation pass feeds every budget's filter (identical
  // packets, independent tiers) plus the exact-state baseline.
  const std::vector<std::size_t> kBudgets = {256 << 10, 1 << 20, 4 << 20};
  std::vector<BudgetResult> results;
  std::vector<capture::BatchFilter> filters;
  filters.reserve(kBudgets.size());
  for (std::size_t budget : kBudgets) {
    capture::BatchFilterConfig fc;
    fc.shards = 4;
    fc.flow_memory_budget = budget;
    filters.emplace_back(fc);
    BudgetResult r;
    r.budget = budget;
    std::size_t tier_bytes = 0;
    for (std::size_t s = 0; s < fc.shards; ++s)
      tier_bytes += filters.back().tier(s).memory_bytes();
    r.tier_bytes = tier_bytes;
    r.footprint_ratio =
        static_cast<double>(tier_bytes) / static_cast<double>(budget);
    results.push_back(r);
  }

  sim::BackgroundTraffic gen(bg);
  std::unordered_map<net::FiveTuple, sim::FlowLoad> exact_baseline;
  std::uint64_t exact_bytes = 0;
  capture::BatchVerdicts verdicts;
  std::vector<net::RawPacket> batch_pkts;
  std::vector<net::RawPacketView> views;
  std::uint64_t absorbed_total = 0;
  for (;;) {
    batch_pkts.clear();
    if (gen.next_batch(kBatch, batch_pkts) == 0) break;
    views.clear();
    for (const auto& pkt : batch_pkts) views.push_back(net::as_view(pkt));
    for (std::size_t i = 0; i < filters.size(); ++i) {
      const auto start = Clock::now();
      filters[i].classify(views, verdicts);
      results[i].seconds +=
          std::chrono::duration<double>(Clock::now() - start).count();
      results[i].packets += views.size();
    }
    // The exact baseline the tier replaces: one hash-map entry per flow,
    // growth measured in actual allocated bytes.
    const std::uint64_t before = bench::thread_alloc_bytes();
    for (const auto& pkt : batch_pkts) {
      net::DecodeFailure df{};
      auto view = net::decode_packet(pkt.ts, pkt.data, &df);
      if (!view) continue;
      auto& load = exact_baseline[view->five_tuple().canonical()];
      load.packets += 1;
      load.bytes += pkt.data.size();
    }
    exact_bytes += bench::thread_alloc_bytes() - before;
    absorbed_total += batch_pkts.size();
  }

  // Everything must have been rejected (the generator avoids every Zoom
  // discriminant); any admit would break the screening premise.
  bool all_rejected = true;
  for (auto& f : filters)
    all_rejected = all_rejected && f.stats().rejected == f.stats().packets;

  // Heavy-hitter recall@100 against the generator's realized tallies.
  const std::vector<std::size_t> truth = gen.top_flows(kTopK);
  for (std::size_t i = 0; i < filters.size(); ++i) {
    const sketch::TierReport report = filters[i].sketch_report(kTopK);
    std::size_t hits = 0;
    for (std::size_t rank : truth) {
      const net::FiveTuple want = gen.flow(rank).canonical();
      for (const auto& hh : report.heavy_hitters) {
        if (hh.flow.canonical() == want) {
          ++hits;
          break;
        }
      }
    }
    results[i].recall_at_100 =
        static_cast<double>(hits) / static_cast<double>(truth.size());
    results[i].evictions = report.stats.evictions;
    std::size_t tracked = 0;
    for (std::size_t s = 0; s < 4; ++s)
      tracked += filters[i].tier(s).tracked_flows();
    results[i].tracked_flows = tracked;
  }

  // Steady-state allocation check: a warmed tier absorbs with zero heap
  // traffic (batch generation excluded from the count).
  std::uint64_t steady_allocs = 0;
  {
    sim::BackgroundConfig small = bg;
    small.flows = std::min<std::size_t>(bg.flows, 50'000);
    small.packets = small.flows * 4;
    sim::BackgroundTraffic small_gen(small);
    std::vector<net::RawPacket> small_trace;
    while (small_gen.next_batch(kBatch, small_trace) != 0) {
    }
    std::vector<net::RawPacketView> small_views;
    small_views.reserve(small_trace.size());
    for (const auto& pkt : small_trace) small_views.push_back(net::as_view(pkt));
    capture::BatchFilterConfig fc;
    fc.shards = 4;
    fc.flow_memory_budget = 1 << 20;
    capture::BatchFilter warm(fc);
    capture::BatchVerdicts wv;
    auto run = [&] {
      for (std::size_t off = 0; off < small_views.size(); off += kBatch) {
        const std::size_t n = std::min(kBatch, small_views.size() - off);
        warm.classify(std::span<const net::RawPacketView>(
                          small_views.data() + off, n),
                      wv);
      }
    };
    run();  // warm pass: tables, verdict buffers
    const std::uint64_t before = bench::thread_allocs();
    run();
    steady_allocs = bench::thread_allocs() - before;
  }

  // Bit-identity: Zoom-admitted report digest with the tier on vs. off,
  // serial vs. 4 shards.
  const std::vector<net::RawPacket> zoom_trace = make_zoom_trace();
  const std::uint64_t d_off_1 = run_screened(zoom_trace, 1, 0);
  const std::uint64_t d_on_1 = run_screened(zoom_trace, 1, 1 << 20);
  const std::uint64_t d_off_4 = run_screened(zoom_trace, 4, 0);
  const std::uint64_t d_on_4 = run_screened(zoom_trace, 4, 1 << 20);
  const bool report_identical =
      d_off_1 == d_on_1 && d_off_1 == d_off_4 && d_off_1 == d_on_4;

  bool footprint_ok = true;
  for (const auto& r : results) {
    std::printf(
        "budget %7zu KiB: %8.2f Mpkt/s  footprint %7zu KiB (%.2fx)  "
        "recall@100 %.1f%%  tracked %zu  evictions %llu\n",
        r.budget >> 10, r.pkts_per_s() / 1e6, r.tier_bytes >> 10,
        r.footprint_ratio, r.recall_at_100 * 100, r.tracked_flows,
        static_cast<unsigned long long>(r.evictions));
    footprint_ok = footprint_ok && r.footprint_ratio <= 1.25;
  }
  const double recall_4m = results.back().recall_at_100;
  const bool recall_ok = recall_4m >= recall_min;
  const bool steady_ok = steady_allocs == 0;
  const bool pass = footprint_ok && recall_ok && steady_ok && report_identical &&
                    all_rejected;

  std::printf("\nexact-baseline flow state: %.1f MB for %zu flows "
              "(tier: bounded by budget)\n",
              static_cast<double>(exact_bytes) / 1e6, exact_baseline.size());
  std::printf("steady-state allocations per warm pass: %llu\n",
              static_cast<unsigned long long>(steady_allocs));
  std::printf("screening: %s\n", all_rejected ? "all background rejected"
                                              : "UNEXPECTED ADMITS");
  std::printf("report identity (tier on/off x serial/4-shard): %s\n",
              report_identical ? "yes" : "NO");
  std::printf("recall@100 at 4 MiB: %.1f%% (threshold %.0f%%)\n",
              recall_4m * 100, recall_min * 100);
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  write_json(out_path, results, bg.flows, absorbed_total, exact_bytes,
             steady_allocs, report_identical, recall_min, pass);
  return check && !pass ? 1 : 0;
}
