// Indexed metric-journal queries vs monolithic recompute: what the
// footer index buys (src/query/).
//
// Experiment groups:
//
//   * windowed-query latency: a 1-epoch window answered from a sealed
//     ~120-epoch journal (mmap + binary-searched index, only the
//     overlapping records decoded) against the same window answered by
//     analysis::recompute_query_result — a full EpochEngine pass over
//     the entire packet trace. The headline gate: the indexed path must
//     win by ZPM_QUERY_SPEEDUP_MIN (default 10x). A full-range journal
//     query is timed too (informational: that path re-decodes every
//     record, the honest worst case).
//   * steady-state allocations: a warmed QueryEngine re-running the
//     full aggregation loop (select + per-record CRC/decode into a
//     reused scratch slice + add_slice) must allocate exactly zero —
//     decode reuses row capacity and the group/distinct tables only
//     grow (query.h's contract).
//   * bit-identity gates: encode_query_result() bytes must be equal
//     journal-vs-recompute for every metric (serial journal AND 4-shard
//     journal, windowed AND full range), and a two-site merged query
//     must equal the monolithic recompute over the concatenated
//     two-site trace (the multi-site merged-CDF claim).
//
// Usage: bench_query [--check] [output.json]
//   --check  exit non-zero when a gate fails (CI smoke mode).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/recompute.h"
#include "net/packet.h"
#include "query/query.h"
#include "sim/meeting.h"
#include "util/bytes.h"
#include "counting_alloc.h"

namespace {

using namespace zpm;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kQueryRounds = 200;      // windowed journal query passes
constexpr int kRecomputeRounds = 3;    // full-recompute passes (expensive)
constexpr std::size_t kTargetEpochs = 120;

/// One simulated meeting (three participants, one off-campus), started
/// at `start_seconds`. Two disjoint starts give the two "sites".
std::vector<net::RawPacket> make_site_trace(std::uint32_t seed,
                                            std::int64_t start_seconds) {
  sim::MeetingConfig mc;
  mc.seed = seed;
  mc.start = util::Timestamp::from_seconds(static_cast<double>(start_seconds));
  mc.duration = util::Duration::seconds(40);
  sim::ParticipantConfig a, b, c;
  a.ip = net::Ipv4Addr(10, 8, 1, 20);
  b.ip = net::Ipv4Addr(10, 8, 2, 31);
  b.send_screen_share = true;
  c.ip = net::Ipv4Addr(98, 0, 0, 3);
  c.on_campus = false;
  mc.participants = {a, b, c};
  sim::MeetingSim sim(mc);
  std::vector<net::RawPacket> out;
  while (auto pkt = sim.next_packet()) out.push_back(std::move(*pkt));
  return out;
}

std::vector<net::RawPacketView> views_of(
    const std::vector<net::RawPacket>& pkts) {
  std::vector<net::RawPacketView> views;
  views.reserve(pkts.size());
  for (const auto& p : pkts) views.push_back(net::as_view(p));
  return views;
}

analysis::EpochEngineConfig engine_config(std::size_t total_packets,
                                          std::size_t shards) {
  analysis::EpochEngineConfig config;
  config.shards = shards;
  config.limits.max_packets =
      std::max<std::uint64_t>(1, total_packets / kTargetEpochs);
  // Far above one site's 40 s extent: only the inter-site gap rotates
  // by span, so solo-site and merged epoch contents coincide.
  config.limits.max_span = util::Duration::seconds(300.0);
  config.collect_journal = true;
  return config;
}

std::vector<query::EpochSliceSet> run_slices(
    const analysis::EpochEngineConfig& config,
    const std::vector<net::RawPacketView>& views) {
  analysis::EpochEngine engine(config);
  std::vector<analysis::EpochReport> completed;
  std::vector<query::EpochSliceSet> sets;
  engine.offer(views, pipeline::BatchLifetime::Pinned, completed, &sets);
  query::EpochSliceSet last;
  if (engine.flush(&last)) sets.push_back(std::move(last));
  return sets;
}

std::string write_journal(const fs::path& path,
                          const std::vector<query::EpochSliceSet>& sets,
                          const std::string& site) {
  query::JournalWriter writer;
  std::string error;
  const std::uint32_t shards =
      sets.empty() ? 1u : sets.front().front().shard_count;
  if (!writer.open(path.string(), site, shards, &error) ) {
    std::fprintf(stderr, "journal open failed: %s\n", error.c_str());
    std::exit(1);
  }
  for (const auto& set : sets)
    for (const auto& slice : set)
      if (!writer.append(slice, &error)) {
        std::fprintf(stderr, "journal append failed: %s\n", error.c_str());
        std::exit(1);
      }
  if (!writer.finalize(&error)) {
    std::fprintf(stderr, "journal finalize failed: %s\n", error.c_str());
    std::exit(1);
  }
  return path.string();
}

std::vector<std::uint8_t> encode_result(const query::QueryResult& result) {
  util::ByteWriter w;
  query::encode_query_result(result, w);
  return w.take();
}

query::QueryResult query_readers(
    const query::QueryRequest& request,
    const std::vector<query::JournalReader*>& readers,
    const std::vector<std::uint32_t>& site_of,
    const std::vector<std::string>& site_names) {
  query::QueryResult result;
  std::string error;
  if (!query::run_query(request, readers, site_of, site_names, result,
                        &error)) {
    std::fprintf(stderr, "run_query failed: %s\n", error.c_str());
    std::exit(1);
  }
  return result;
}

query::QueryRequest window_request(std::int64_t from, std::int64_t to,
                                   query::QueryMetric metric,
                                   query::QueryGroupBy group) {
  query::QueryRequest request;
  request.from_us = from;
  request.to_us = to;
  request.metric = metric;
  request.group = group;
  return request;
}

/// Fastest-of-N wall time for `fn`.
template <typename Fn>
double best_seconds(int rounds, Fn&& fn) {
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < rounds; ++r) {
    const auto start = Clock::now();
    fn();
    const std::chrono::duration<double> dt = Clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best;
}

void write_json(const std::string& path, std::size_t trace_packets,
                std::size_t journal_records, double window_query_s,
                double full_query_s, double recompute_s, double speedup,
                double threshold, std::uint64_t window_records_read,
                std::uint64_t steady_allocs, bool allocs_clean,
                bool identity_serial, bool identity_sharded,
                bool identity_multisite, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\n  \"benchmark\": \"query\",\n"
      "  \"trace_packets\": %zu,\n"
      "  \"journal_records\": %zu,\n"
      "  \"window_query_seconds\": %.9f,\n"
      "  \"full_range_query_seconds\": %.9f,\n"
      "  \"recompute_seconds\": %.9f,\n"
      "  \"window_speedup\": %.1f,\n"
      "  \"speedup_threshold\": %.1f,\n"
      "  \"window_records_read\": %llu,\n"
      "  \"steady_allocs\": %llu,\n"
      "  \"allocs_clean\": %s,\n"
      "  \"identity_serial\": %s,\n"
      "  \"identity_sharded\": %s,\n"
      "  \"identity_multisite\": %s,\n"
      "  \"pass\": %s\n}\n",
      trace_packets, journal_records, window_query_s, full_query_s,
      recompute_s, speedup, threshold,
      static_cast<unsigned long long>(window_records_read),
      static_cast<unsigned long long>(steady_allocs),
      allocs_clean ? "true" : "false", identity_serial ? "true" : "false",
      identity_sharded ? "true" : "false",
      identity_multisite ? "true" : "false", pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_query.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  double threshold = 10.0;
  if (const char* env = std::getenv("ZPM_QUERY_SPEEDUP_MIN"))
    threshold = std::atof(env);

  const auto trace_a = make_site_trace(31, 1'700'000'000);
  const auto trace_b = make_site_trace(47, 1'700'001'000);  // 1000 s later
  const auto views_a = views_of(trace_a);
  const auto views_b = views_of(trace_b);
  std::printf("trace: site-a %zu packets, site-b %zu packets\n", trace_a.size(),
              trace_b.size());

  const auto config_1 = engine_config(trace_a.size(), 1);
  const auto config_4 = engine_config(trace_a.size(), 4);
  const auto sets_a = run_slices(config_1, views_a);
  const auto sets_a4 = run_slices(config_4, views_a);
  const auto sets_b = run_slices(config_1, views_b);
  std::printf("journal: %zu epochs (target %zu), %zu at 4 shards\n",
              sets_a.size(), kTargetEpochs, sets_a4.size());

  const fs::path dir =
      fs::temp_directory_path() / ("bench_query." + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto path_a = write_journal(dir / "site-a.zpmj", sets_a, "site-a");
  const auto path_a4 = write_journal(dir / "site-a4.zpmj", sets_a4, "site-a");
  const auto path_b = write_journal(dir / "site-b.zpmj", sets_b, "site-b");

  query::JournalReader reader_a, reader_a4, reader_b;
  std::string error;
  if (!reader_a.open(path_a, &error) || !reader_a4.open(path_a4, &error) ||
      !reader_b.open(path_b, &error)) {
    std::fprintf(stderr, "reader open failed: %s\n", error.c_str());
    return 1;
  }

  // The timed window: one mid-journal epoch.
  const std::size_t mid = sets_a.size() / 2;
  const std::int64_t win_from = sets_a[mid][0].first_us;
  const std::int64_t win_to = sets_a[mid][0].last_us;
  const auto window_req = window_request(win_from, win_to,
                                         query::QueryMetric::Rtt,
                                         query::QueryGroupBy::Meeting);
  const auto full_req = window_request(std::numeric_limits<std::int64_t>::min(),
                                       std::numeric_limits<std::int64_t>::max(),
                                       query::QueryMetric::Rtt,
                                       query::QueryGroupBy::Meeting);

  const std::vector<query::JournalReader*> serial_readers{&reader_a};
  const std::vector<std::uint32_t> one_site{0};
  const std::vector<std::string> site_a_name{"site-a"};

  // --- timed passes -------------------------------------------------------
  query::QueryResult window_result;
  const double window_query_s = best_seconds(kQueryRounds, [&] {
    window_result =
        query_readers(window_req, serial_readers, one_site, site_a_name);
  });
  const double full_query_s = best_seconds(8, [&] {
    (void)query_readers(full_req, serial_readers, one_site, site_a_name);
  });
  query::QueryResult recompute_window;
  const double recompute_s = best_seconds(kRecomputeRounds, [&] {
    analysis::recompute_query_result(window_req, views_a, config_1, "site-a",
                                     recompute_window);
  });
  const double speedup =
      window_query_s > 0 ? recompute_s / window_query_s : 0.0;

  std::printf(
      "windowed query  %10.1f µs  (reads %llu of %zu records)\n"
      "full-range query%10.1f µs\n"
      "full recompute  %10.1f µs\n",
      window_query_s * 1e6,
      static_cast<unsigned long long>(window_result.records_read),
      reader_a.records().size(), full_query_s * 1e6, recompute_s * 1e6);

  // --- steady-state allocation gate --------------------------------------
  // Drive the aggregation loop the way run_query does, but with engine,
  // scratch slice and result owned outside the loop: after one warm
  // pass, a full re-run (select + CRC/decode + add_slice) must not
  // allocate at all.
  std::uint64_t steady_allocs = 0;
  {
    query::QueryEngine engine;
    query::EpochSlice scratch;
    const auto [begin, end] =
        reader_a.select(full_req.from_us, full_req.to_us);
    const auto pass = [&] {
      engine.begin(full_req, site_a_name);
      for (std::size_t i = begin; i < end; ++i)
        if (reader_a.read(i, scratch)) engine.add_slice(scratch, 0);
    };
    pass();  // warm: tables and row capacity reach their high-water mark
    const std::uint64_t before = bench::thread_allocs();
    pass();
    steady_allocs = bench::thread_allocs() - before;
    query::QueryResult discard;
    engine.finish(discard);
  }
  const bool allocs_clean = steady_allocs == 0;
  std::printf("steady-state allocs over %zu records: %llu\n",
              reader_a.records().size(),
              static_cast<unsigned long long>(steady_allocs));

  // --- bit-identity gates -------------------------------------------------
  const std::vector<query::JournalReader*> sharded_readers{&reader_a4};
  bool identity_serial = true, identity_sharded = true;
  for (const auto metric :
       {query::QueryMetric::Rtt, query::QueryMetric::Jitter,
        query::QueryMetric::Bitrate, query::QueryMetric::SfuRtt}) {
    for (const auto& span :
         {std::pair<std::int64_t, std::int64_t>{win_from, win_to},
          {std::numeric_limits<std::int64_t>::min(),
           std::numeric_limits<std::int64_t>::max()}}) {
      const auto req = window_request(span.first, span.second, metric,
                                      query::QueryGroupBy::Meeting);
      query::QueryResult reference;
      analysis::recompute_query_result(req, views_a, config_1, "site-a",
                                       reference);
      const auto ref = encode_result(reference);
      identity_serial &=
          encode_result(query_readers(req, serial_readers, one_site,
                                      site_a_name)) == ref;
      identity_sharded &=
          encode_result(query_readers(req, sharded_readers, one_site,
                                      site_a_name)) == ref;
    }
  }

  // Multi-site: per-site journals merged at query time vs one engine
  // over the concatenated trace.
  bool identity_multisite = true;
  {
    std::vector<net::RawPacket> merged = trace_a;
    merged.insert(merged.end(), trace_b.begin(), trace_b.end());
    const auto merged_views = views_of(merged);
    const std::vector<query::JournalReader*> both{&reader_a, &reader_b};
    const std::vector<std::uint32_t> site_of{0, 1};
    const std::vector<std::string> names{"site-a", "site-b"};
    for (const auto group :
         {query::QueryGroupBy::All, query::QueryGroupBy::Meeting}) {
      const auto req =
          window_request(std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max(),
                         query::QueryMetric::Rtt, group);
      query::QueryResult reference;
      analysis::recompute_query_result(req, merged_views, config_1, "merged",
                                       reference);
      identity_multisite &=
          encode_result(query_readers(req, both, site_of, names)) ==
          encode_result(reference);
    }
  }

  const bool pass = speedup >= threshold && allocs_clean && identity_serial &&
                    identity_sharded && identity_multisite;

  std::printf(
      "\nwindowed-query speedup vs recompute: %.1fx (threshold %.1fx)\n"
      "bit-identity: serial %s, 4-shard %s, multi-site %s\n"
      "%s\n",
      speedup, threshold, identity_serial ? "ok" : "FAIL",
      identity_sharded ? "ok" : "FAIL", identity_multisite ? "ok" : "FAIL",
      pass ? "PASS" : "FAIL");

  write_json(out_path, trace_a.size(), reader_a.records().size(),
             window_query_s, full_query_s, recompute_s, speedup, threshold,
             window_result.records_read, steady_allocs, allocs_clean,
             identity_serial, identity_sharded, identity_multisite, pass);

  fs::remove_all(dir);
  return check && !pass ? 1 : 0;
}
