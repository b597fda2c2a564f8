// Front-end filter throughput: the vectorized two-stage batch
// pre-filter (capture::BatchFilter, SWAR/SSE2 probes + flat
// flow-dispatch table) against the legacy per-packet software-Tofino
// filter (capture::CaptureFilter) on a mixed campus trace.
//
// Reports pkts/s, bytes/s and heap allocations per packet for each mode
// (a replaced global operator new counts per-thread allocations), and
// asserts the structural claims behind the front end:
//   * the vector batch classifier beats the legacy per-packet filter by
//     the configured factor (default 3x; ZPM_FILTER_SPEEDUP_MIN),
//   * warm batch classification — scalar and vector alike — performs
//     zero steady-state heap allocations,
//   * the scalar reference and the vector path agree on every verdict
//     tally (the cheap end of the bit-identity contract; the full check
//     lives in test_batch_filter and fuzz_batch_filter).
//
// Usage: bench_filter [--check] [output.json]
//   --check  exit non-zero when an assertion fails (CI smoke mode).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "capture/batch_filter.h"
#include "capture/filter.h"
#include "net/packet.h"
#include "sim/campus.h"
#include "counting_alloc.h"

namespace {

using namespace zpm;
using Clock = std::chrono::steady_clock;

struct ModeResult {
  std::string name;
  std::uint64_t packets = 0;       // cumulative over timed passes
  std::uint64_t bytes = 0;
  double seconds = 0;              // fastest single pass
  std::uint64_t allocs = 0;        // loop allocs over timed passes
  std::uint64_t steady_allocs = 0; // loop allocs of the final pass
  int passes = 0;

  // Throughput of the fastest pass: the headline number. Averaging
  // instead would let one descheduled pass on a shared machine decide
  // the speedup comparison.
  [[nodiscard]] double pkts_per_s() const {
    return seconds > 0 && passes > 0
               ? static_cast<double>(packets) / passes / seconds
               : 0;
  }
  [[nodiscard]] double bytes_per_s() const {
    return seconds > 0 && passes > 0
               ? static_cast<double>(bytes) / passes / seconds
               : 0;
  }
};

/// A campus-style mix: heavy non-Zoom background (the reject path, the
/// dominant traffic class on a real tap) woven with a genuine meeting
/// (the admit + Zoom-shape path). The campus scheduler drops meetings
/// clamped under two minutes, so the meeting is simulated separately
/// and merged into the same window.
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

constexpr int kRounds = 16;       // trace passes per mode (first = warm-up)
constexpr std::size_t kBatch = 1024;

struct Mode {
  ModeResult result;
  std::function<void(ModeResult&)> pass;
};

void print_result(const ModeResult& r) {
  std::printf("%-24s %9.2f Mpkt/s %9.1f MB/s  %8.4f allocs/pkt  (steady %llu)\n",
              r.name.c_str(), r.pkts_per_s() / 1e6, r.bytes_per_s() / 1e6,
              r.packets ? static_cast<double>(r.allocs) / static_cast<double>(r.packets)
                        : 0.0,
              static_cast<unsigned long long>(r.steady_allocs));
}

void write_json(const std::string& path, const std::vector<ModeResult>& results,
                double speedup, double threshold, bool parity, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"filter\",\n  \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"packets\": %llu, \"bytes\": %llu, "
                 "\"seconds\": %.6f, \"pkts_per_s\": %.1f, \"bytes_per_s\": %.1f, "
                 "\"allocs\": %llu, \"steady_allocs\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.packets),
                 static_cast<unsigned long long>(r.bytes), r.seconds,
                 r.pkts_per_s(), r.bytes_per_s(),
                 static_cast<unsigned long long>(r.allocs),
                 static_cast<unsigned long long>(r.steady_allocs),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"vector_vs_legacy_speedup\": %.2f,\n"
               "  \"speedup_threshold\": %.2f,\n"
               "  \"verdict_parity\": %s,\n  \"pass\": %s\n}\n",
               speedup, threshold, parity ? "true" : "false",
               pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_filter.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  double threshold = 3.0;
  if (const char* env = std::getenv("ZPM_FILTER_SPEEDUP_MIN"))
    threshold = std::atof(env);

  auto trace = make_trace();
  std::uint64_t trace_bytes = 0;
  for (const auto& pkt : trace) trace_bytes += pkt.data.size();
  std::printf("trace: %zu packets, %.1f MB\n\n", trace.size(),
              static_cast<double>(trace_bytes) / 1e6);

  std::vector<net::RawPacketView> views;
  views.reserve(trace.size());
  for (const auto& pkt : trace) views.push_back(net::as_view(pkt));

  // Every pass lambda classifies the whole trace once and records the
  // wall time and allocation count of its classification loop in
  // `loop_seconds` / `loop_allocs`. The filters are constructed once and
  // kept warm across passes — the first (discarded) round establishes
  // the flow-table and candidate-set capacities, so timed rounds measure
  // the steady state, exactly the regime a long-running tap is in. The
  // harness interleaves passes round-robin across modes so transient
  // machine-wide interference degrades every mode's samples instead of
  // sinking one mode's entire window.
  double loop_seconds = 0;
  std::uint64_t loop_allocs = 0;

  // Legacy path: the per-packet software-Tofino filter (decode + match
  // + anonymize-free copy-out). Anonymization off so the comparison is
  // filtering against filtering, not filtering against crypto.
  capture::CaptureConfig legacy_cfg;
  legacy_cfg.anonymize = false;
  legacy_cfg.campus_subnets = {net::Ipv4Subnet(net::Ipv4Addr(10, 8, 0, 0), 16)};
  capture::CaptureFilter legacy(legacy_cfg);

  capture::BatchFilterConfig fe_cfg;
  fe_cfg.shards = 4;
  capture::BatchFilter scalar(fe_cfg, capture::BatchFilter::Mode::ForceScalar);
  capture::BatchFilter vector(fe_cfg, capture::BatchFilter::Mode::ForceSimd);
  capture::BatchVerdicts verdicts;

  std::vector<Mode> modes;
  auto add_mode = [&](const char* name, std::function<void(ModeResult&)> fn) {
    modes.emplace_back();
    modes.back().result.name = name;
    modes.back().pass = std::move(fn);
  };

  add_mode("legacy_per_packet", [&](ModeResult& r) {
    std::uint64_t before = bench::thread_allocs();
    auto start = Clock::now();
    std::uint64_t passed = 0;
    for (const auto& pkt : trace) {
      if (legacy.process(pkt)) ++passed;
      r.bytes += pkt.data.size();
      ++r.packets;
    }
    loop_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    loop_allocs = bench::thread_allocs() - before;
    (void)passed;
  });

  auto batch_pass = [&](capture::BatchFilter& filter, ModeResult& r) {
    std::uint64_t before = bench::thread_allocs();
    auto start = Clock::now();
    for (std::size_t off = 0; off < views.size(); off += kBatch) {
      std::size_t n = std::min(kBatch, views.size() - off);
      std::span<const net::RawPacketView> batch(views.data() + off, n);
      filter.classify(batch, verdicts);
      for (const auto& v : batch) r.bytes += v.data.size();
      r.packets += n;
    }
    loop_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    loop_allocs = bench::thread_allocs() - before;
  };

  add_mode("batch_scalar", [&](ModeResult& r) { batch_pass(scalar, r); });
  add_mode("batch_vector", [&](ModeResult& r) { batch_pass(vector, r); });

  // Round 0 warms every mode (flow table, candidate set, verdict
  // buffers, allocator pools) and is discarded. Timed rounds keep each
  // mode's fastest pass; the last round's loop allocations are the
  // reported steady state.
  for (auto& m : modes) m.result.seconds = 1e30;
  for (int round = 0; round < kRounds; ++round) {
    for (auto& m : modes) {
      ModeResult scratch;
      ModeResult& target = round == 0 ? scratch : m.result;
      m.pass(target);
      if (round == 0) continue;
      if (loop_seconds < m.result.seconds) m.result.seconds = loop_seconds;
      ++m.result.passes;
      m.result.allocs += loop_allocs;
      m.result.steady_allocs = loop_allocs;
    }
  }
  std::vector<ModeResult> results;
  for (auto& m : modes) results.push_back(std::move(m.result));

  for (const auto& r : results) print_result(r);

  const auto& ss = scalar.stats();
  const auto& vs = vector.stats();
  bool parity = ss.packets == vs.packets && ss.admitted == vs.admitted &&
                ss.rejected == vs.rejected && ss.full_parse == vs.full_parse &&
                ss.zoom_shaped == vs.zoom_shaped &&
                ss.stun_flagged == vs.stun_flagged &&
                scalar.flow_count() == vector.flow_count() &&
                scalar.candidate_endpoint_count() ==
                    vector.candidate_endpoint_count();

  double base = results[0].pkts_per_s();
  double fast = results[2].pkts_per_s();
  double speedup = base > 0 ? fast / base : 0;
  // Warm classification must not allocate at all — zero per whole trace
  // pass, not merely per packet.
  bool scalar_clean = results[1].steady_allocs == 0;
  bool vector_clean = results[2].steady_allocs == 0;
  bool pass = speedup >= threshold && scalar_clean && vector_clean && parity;

  std::printf("\nverdict mix (vector): %llu admitted, %llu rejected, "
              "%llu full-parse of %llu\n",
              static_cast<unsigned long long>(vs.admitted),
              static_cast<unsigned long long>(vs.rejected),
              static_cast<unsigned long long>(vs.full_parse),
              static_cast<unsigned long long>(vs.packets));
  std::printf("batch_vector vs legacy_per_packet: %.2fx (threshold %.2fx)\n",
              speedup, threshold);
  std::printf("steady-state allocations per pass: scalar=%llu, vector=%llu\n",
              static_cast<unsigned long long>(results[1].steady_allocs),
              static_cast<unsigned long long>(results[2].steady_allocs));
  std::printf("scalar/vector verdict parity: %s\n", parity ? "yes" : "NO");
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  write_json(out_path, results, speedup, threshold, parity, pass);
  return check && !pass ? 1 : 0;
}
