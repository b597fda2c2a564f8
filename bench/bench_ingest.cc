// Trace-ingest throughput: the zero-copy mapped readers against the
// seed's streaming per-packet loop, plus the batched pipeline handoff.
//
// Reports pkts/s, bytes/s and heap allocations per packet for each mode
// (a replaced global operator new counts per-thread allocations), and
// asserts the two structural claims behind the fast path:
//   * mapped + batched reading beats the streaming per-packet baseline
//     by the configured factor (default 3x; ZPM_INGEST_SPEEDUP_MIN),
//   * the steady-state producer side — mapped batch reads and
//     ParallelAnalyzer::offer_batch dispatch — performs zero per-packet
//     heap allocations.
//
// Usage: bench_ingest [--check] [output.json]
//   --check  exit non-zero when an assertion fails (CI smoke mode).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "net/pcap.h"
#include "net/trace_source.h"
#include "pipeline/parallel_analyzer.h"
#include "sim/meeting.h"
#include "counting_alloc.h"

namespace {

using namespace zpm;
using Clock = std::chrono::steady_clock;

struct ModeResult {
  std::string name;
  std::uint64_t packets = 0;       // cumulative over timed passes
  std::uint64_t bytes = 0;
  double seconds = 0;              // fastest single pass
  std::uint64_t allocs = 0;        // read-loop allocs over timed passes
  std::uint64_t steady_allocs = 0; // read-loop allocs of the final pass
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

std::vector<net::RawPacket> make_trace() {
  sim::MeetingConfig mc;
  mc.seed = 1;
  mc.start = util::Timestamp::from_seconds(0);
  mc.duration = util::Duration::seconds(120);
  sim::ParticipantConfig a, b, c, d;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  b.send_screen_share = true;
  c.ip = net::Ipv4Addr(10, 8, 0, 3);
  d.ip = net::Ipv4Addr(98, 0, 0, 4);
  d.on_campus = false;
  mc.participants = {a, b, c, d};
  return sim::run_meeting(mc);
}

constexpr int kRounds = 16;       // file passes per mode (first = warm-up)
constexpr std::size_t kBatch = 1024;

/// One benchmark mode: a pass function that reads the whole file once,
/// accumulating into the given ModeResult and leaving the allocation
/// count of its read loop (construction excluded) in `loop_allocs`.
struct Mode {
  ModeResult result;
  std::function<void(ModeResult&)> pass;
};

void print_result(const ModeResult& r) {
  std::printf("%-28s %9.2f Mpkt/s %9.1f MB/s  %8.4f allocs/pkt  (steady %llu)\n",
              r.name.c_str(), r.pkts_per_s() / 1e6, r.bytes_per_s() / 1e6,
              r.packets ? static_cast<double>(r.allocs) / static_cast<double>(r.packets)
                        : 0.0,
              static_cast<unsigned long long>(r.steady_allocs));
}

void write_json(const std::string& path, const std::vector<ModeResult>& results,
                double speedup, double threshold, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"ingest\",\n  \"modes\": [\n");
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
               "  ],\n  \"mapped_batched_speedup\": %.2f,\n"
               "  \"speedup_threshold\": %.2f,\n  \"pass\": %s\n}\n",
               speedup, threshold, pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  double threshold = 3.0;
  if (const char* env = std::getenv("ZPM_INGEST_SPEEDUP_MIN"))
    threshold = std::atof(env);

  auto trace = make_trace();
  std::string path = "/tmp/zpm_bench_ingest.pcap";
  {
    net::PcapWriter writer(path);
    for (const auto& pkt : trace) writer.write(pkt);
  }
  std::uint64_t trace_bytes = 0;
  for (const auto& pkt : trace) trace_bytes += pkt.data.size();
  std::printf("trace: %zu packets, %.1f MB on disk\n\n", trace.size(),
              static_cast<double>(trace_bytes) / 1e6);

  // Every pass lambda reads the whole file once and records the wall
  // time and allocation count of its read loop in `loop_seconds` /
  // `loop_allocs`. Reader construction (open/mmap/prefault) is excluded
  // from both, for every mode alike, so the comparison is loop against
  // loop. The harness below interleaves passes round-robin across modes
  // so transient machine-wide interference degrades every mode's
  // samples instead of sinking one mode's entire window, which would
  // skew the speedup ratio.
  double loop_seconds = 0;
  std::uint64_t loop_allocs = 0;
  std::vector<net::RawPacketView> batch;
  batch.reserve(kBatch);

  std::vector<Mode> modes;
  auto add_mode = [&](const char* name, std::function<void(ModeResult&)> fn) {
    modes.emplace_back();
    modes.back().result.name = name;
    modes.back().pass = std::move(fn);
  };

  // Seed baseline: streaming reader, one owned RawPacket per record.
  add_mode("streaming_per_packet", [&](ModeResult& r) {
    net::PcapReader reader(path);
    std::uint64_t before = bench::thread_allocs();
    auto start = Clock::now();
    while (auto pkt = reader.next()) {
      r.bytes += pkt->data.size();
      ++r.packets;
    }
    loop_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    loop_allocs = bench::thread_allocs() - before;
  });

  // Streaming reader with buffer reuse: one copy per record out of the
  // refill buffer into a reused RawPacket.
  add_mode("streaming_next_into", [&](ModeResult& r) {
    net::PcapReader reader(path);
    net::RawPacket pkt;
    std::uint64_t before = bench::thread_allocs();
    auto start = Clock::now();
    while (reader.next_into(pkt)) {
      r.bytes += pkt.data.size();
      ++r.packets;
    }
    loop_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    loop_allocs = bench::thread_allocs() - before;
  });

  // Mapped reader, one view at a time.
  add_mode("mapped_per_packet", [&](ModeResult& r) {
    net::TraceSource source(path);
    std::uint64_t before = bench::thread_allocs();
    auto start = Clock::now();
    while (auto view = source.next()) {
      r.bytes += view->data.size();
      ++r.packets;
    }
    loop_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    loop_allocs = bench::thread_allocs() - before;
  });

  // Mapped reader, batched — the fast path zpm_analyze uses.
  add_mode("mapped_batched", [&](ModeResult& r) {
    net::TraceSource source(path);
    std::uint64_t before = bench::thread_allocs();
    auto start = Clock::now();
    while (source.next_batch(batch, kBatch) > 0) {
      for (const auto& v : batch) r.bytes += v.data.size();
      r.packets += batch.size();
    }
    loop_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    loop_allocs = bench::thread_allocs() - before;
  });

  // Round 0 warms every mode (page cache, allocator pools) and is
  // discarded. Timed rounds keep each mode's fastest pass; the last
  // round's loop allocations are the reported steady state.
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

  // End to end: mapped batches dispatched into the sharded pipeline
  // with pinned lifetime. Runs after the reader modes (not interleaved
  // with them) because the analyzer's shard threads spin-wait on the
  // ring while idle and would steal cycles from every other mode. One
  // analyzer consumes every pass, so the warm-up pass establishes the
  // staging capacities and later passes measure the true steady state.
  // Producer-side allocations only (the counting allocator is
  // per-thread); shards run on their own threads.
  {
    ModeResult r;
    r.name = "mapped_batched_offer";
    pipeline::ParallelAnalyzerConfig cfg;
    cfg.analyzer.keep_frames = false;
    cfg.shards = 2;
    pipeline::ParallelAnalyzer analyzer(cfg);
    // Pinned lifetime: every mapping must outlive finish(), so the
    // sources are kept alive for the analyzer's whole run.
    std::vector<std::unique_ptr<net::TraceSource>> sources;
    r.seconds = 1e30;
    for (int rep = 0; rep < kRounds; ++rep) {
      sources.push_back(std::make_unique<net::TraceSource>(path));
      net::TraceSource& source = *sources.back();
      std::uint64_t rep_allocs = bench::thread_allocs();
      auto start = Clock::now();  // loop-only, like the reader modes
      while (source.next_batch(batch, kBatch) > 0) {
        if (rep > 0) {
          for (const auto& v : batch) r.bytes += v.data.size();
          r.packets += batch.size();
        }
        analyzer.offer_batch(batch, pipeline::BatchLifetime::Pinned);
      }
      if (rep > 0) {
        double pass_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (pass_s < r.seconds) r.seconds = pass_s;
        ++r.passes;
        r.allocs += bench::thread_allocs() - rep_allocs;
      }
      if (rep == kRounds - 1) r.steady_allocs = bench::thread_allocs() - rep_allocs;
    }
    analyzer.finish();
    results.push_back(r);
  }

  for (const auto& r : results) print_result(r);

  double base = results[0].pkts_per_s();
  double fast = results[3].pkts_per_s();
  double speedup = base > 0 ? fast / base : 0;
  // Steady-state (capacities warm) reads and dispatch must not allocate
  // at all — zero per whole file pass, not merely per packet.
  bool reads_clean = results[3].steady_allocs == 0;
  bool offer_clean = results[4].steady_allocs == 0;
  bool pass = speedup >= threshold && reads_clean && offer_clean;

  std::printf("\nmapped_batched vs streaming_per_packet: %.2fx (threshold %.2fx)\n",
              speedup, threshold);
  std::printf("steady-state allocations per pass: mapped_batched=%llu, "
              "offer path=%llu\n",
              static_cast<unsigned long long>(results[3].steady_allocs),
              static_cast<unsigned long long>(results[4].steady_allocs));
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  write_json(out_path, results, speedup, threshold, pass);
  std::remove(path.c_str());
  return check && !pass ? 1 : 0;
}
