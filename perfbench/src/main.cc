// zpm_perfbench: seeded end-to-end benchmark of the production path
// (mapped pcap -> MonitorDaemon::run -> journals -> run_query_on_manifest).
//
//   zpm_perfbench --workload <campus-tap|meeting-dense>
//                 --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                 [--spans <file>]
//
// Synthesises the workload's traces from the seed, runs the daemon and
// the query client for --seconds, checks the answers against a full
// recompute, and prints one JSON line last: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
#include <sys/statvfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "ingest.h"
#include "queries.h"
#include "support.h"
#include "synth.h"

namespace zpm::perfbench {
namespace {

namespace fs = std::filesystem;

struct Workload {
  const char* name;
  TraceShape shape;
  std::size_t shards;
  /// Sealed sites in the query target (the ingest trace is the first).
  std::size_t sites;
  /// True: the unsealed segment is a later-time site in the sealed
  /// sites' MANIFEST. False: it is a halted pass over the ingest trace
  /// in a directory of its own.
  bool live_in_sealed_dir;
  /// Share of --seconds spent on ingest passes; the rest on queries.
  double ingest_share;
  /// Shape guard on the Zoom share of the packets.
  double min_zoom_share;
  double max_zoom_share;
};

const Workload kWorkloads[] = {
    // Fig. 17: a tap that is mostly non-Zoom traffic with random
    // 5-tuples (the sketch tier sees a new flow per packet), a few
    // meetings alongside; producer + 2 shard workers. One site.
    {"campus-tap", {4, 4, 28'000.0, 28.0}, 2, 1, false, 0.6, 0.0, 0.15},
    // Section 5: 20 concurrent meetings, mostly Zoom media; serial so
    // every layer adds into wall time. Its queries are the operator's
    // mix: two sealed sites and an unsealed segment in one MANIFEST.
    {"meeting-dense", {20, 4, 1'500.0, 30.0}, 1, 2, true, 0.5, 0.70, 1.0},
};

constexpr std::uint64_t kEpochsPerPass = 20;
constexpr std::uint64_t kLiveEpochs = 6;
constexpr int kSetupReps = 3;
constexpr std::uint64_t kMaxTraceBytes = std::uint64_t{1} << 30;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (!std::strcmp(argv[i], "--workload") && (v = value())) {
      args.workload = v;
    } else if (!std::strcmp(argv[i], "--seed") && (v = value())) {
      args.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (!std::strcmp(argv[i], "--seconds") && (v = value())) {
      args.seconds = std::atof(v);
    } else if (!std::strcmp(argv[i], "--trace") && (v = value())) {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (!std::strcmp(argv[i], "--workdir") && (v = value())) {
      args.workdir = v;
    } else if (!std::strcmp(argv[i], "--spans") && (v = value())) {
      args.spans = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", argv[i]);
      return false;
    }
  }
  return have_seed && args.seconds > 0 && !args.workload.empty() &&
         !args.workdir.empty();
}

/// splitmix64: independent per-trace seeds from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool enough_space(const std::string& dir, std::uint64_t need) {
  struct statvfs st {};
  if (statvfs(dir.c_str(), &st) != 0) return false;
  const std::uint64_t free_bytes =
      static_cast<std::uint64_t>(st.f_bavail) * st.f_frsize;
  if (free_bytes >= need) return true;
  std::fprintf(stderr,
               "perfbench: %s has %.1f GiB free, the run needs %.1f GiB\n",
               dir.c_str(), static_cast<double>(free_bytes) / (1 << 30),
               static_cast<double>(need) / (1 << 30));
  return false;
}

/// Fails loudly on a seed whose trace is not the workload it names.
bool shape_ok(const Workload& w, const std::vector<TraceInfo>& traces) {
  bool ok = true;
  for (const auto& t : traces) {
    const double zoom = t.packets > 0 ? static_cast<double>(t.zoom_packets) /
                                            static_cast<double>(t.packets)
                                      : 0.0;
    std::printf("workload=%s trace=%s packets=%llu zoom_share=%.3f "
                "meetings=%zu epochs=%llu shards=%zu trace_mb=%.1f\n",
                w.name, fs::path(t.path).filename().c_str(),
                static_cast<unsigned long long>(t.packets), zoom, t.meetings,
                static_cast<unsigned long long>(kEpochsPerPass), w.shards,
                static_cast<double>(t.bytes) / (1 << 20));
    if (t.packets < 100'000 || zoom < w.min_zoom_share ||
        zoom > w.max_zoom_share || t.bytes > kMaxTraceBytes) {
      std::fprintf(stderr,
                   "perfbench: %s is not a %s trace (packets %llu >= "
                   "100000, zoom share %.3f in [%.2f, %.2f], %llu bytes <= "
                   "%llu)\n",
                   t.path.c_str(), w.name,
                   static_cast<unsigned long long>(t.packets), zoom,
                   w.min_zoom_share, w.max_zoom_share,
                   static_cast<unsigned long long>(t.bytes),
                   static_cast<unsigned long long>(kMaxTraceBytes));
      ok = false;
    }
  }
  return ok;
}

/// Everything setup leaves behind for the measured phase.
struct Setup {
  std::vector<TraceInfo> traces;  ///< sealed sites, then the live trace
  IngestConfig ingest;
  QueryTarget target;
  QueryPlan plan;
};

/// One full set-up: synthesis + pcap write for every trace, the warm-up
/// daemon pass (which writes the first site's sealed journal), the
/// other sites' journals and the unsealed segment.
bool set_up(const Workload& w, const Args& args, bool describe, Ledger& ledger,
            Setup& s) {
  const std::string traces = args.workdir + "/traces";
  const std::string sealed = args.workdir + "/journals";
  std::string error;
  if (!ledger.check(reset_directory(traces, &error), "traces dir " + error))
    return false;
  s = Setup{};
  const std::size_t count = w.sites + (w.live_in_sealed_dir ? 1 : 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (!enough_space(args.workdir, kMaxTraceBytes + (256u << 20))) return false;
    TraceInfo info;
    // Sites follow each other in capture time, 20 minutes apart (each
    // trace is far shorter), so one site's windows never touch another's.
    const std::string path = traces + "/site-" + std::to_string(i) + ".pcap";
    if (!ledger.check(synthesize(w.shape, derive_seed(args.seed, i),
                                 10 * 3600.0 + 1200.0 * static_cast<double>(i),
                                 path, info),
                      "write trace " + path))
      return false;
    s.traces.push_back(info);
  }
  // The descriptor line; a wrong-shaped workload stops the run here.
  if (describe && !shape_ok(w, s.traces)) return false;
  const TraceInfo& first = s.traces.front();
  s.ingest.trace_path = first.path;
  s.ingest.trace_packets = first.packets;
  s.ingest.shards = w.shards;
  s.ingest.epoch_packets = (first.packets + kEpochsPerPass - 1) / kEpochsPerPass;

  s.target.sealed_dir = sealed;
  if (!ledger.check(reset_directory(sealed, &error), "journal dir " + error))
    return false;
  PassResult pass;
  for (std::size_t i = 0; i < w.sites; ++i) {
    IngestConfig site = s.ingest;
    site.trace_path = s.traces[i].path;
    site.trace_packets = s.traces[i].packets;
    const SiteTrace st{site.trace_path,
                       "site-" + std::string(1, static_cast<char>('a' + i))};
    // The first daemon pass of the process is the warm-up pass.
    if (!daemon_pass(site, sealed, st.site, 0, ledger, nullptr, pass))
      return false;
    s.target.sealed_sites.push_back(st);
  }
  IngestConfig live = s.ingest;
  if (w.live_in_sealed_dir) {
    live.trace_path = s.traces.back().path;
    live.trace_packets = s.traces.back().packets;
    s.target.live_dir = sealed;
  } else {
    s.target.live_dir = args.workdir + "/live";
  }
  s.target.live_site = SiteTrace{live.trace_path, "live"};
  s.target.live_epochs = kLiveEpochs;
  // The unsealed segment: a pass halted after kLiveEpochs rotations,
  // exactly the on-disk state a crash at that point leaves.
  if (!w.live_in_sealed_dir &&
      !ledger.check(reset_directory(s.target.live_dir, &error),
                    "live dir " + error))
    return false;
  if (!daemon_pass(live, s.target.live_dir, "live", kLiveEpochs, ledger,
                   nullptr, pass))
    return false;
  return plan_queries(s.target, ledger, s.plan);
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void print_result(bool correct, const Ledger& ledger, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second.value)
                         ? metrics[i].second.value
                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].first.c_str(), v,
                metrics[i].second.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The passes a run's medians are taken over: the half with the least
/// machine steal, i.e. the passes the hypervisor disturbed least (steal
/// is time the box's CPUs ran other guests; on a shared VM it slows a
/// pass by up to a third). Ties keep pass order.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  order.resize((order.size() + 1) / 2);
  return order;
}

std::vector<double> pick(const std::vector<double>& values,
                         const std::vector<std::size_t>& keep) {
  std::vector<double> out;
  for (std::size_t i : keep) out.push_back(values[i]);
  return out;
}

/// --trace 0: ingest passes and query passes in turn, each kind taking
/// its share of --seconds; every timing is a median over passes.
void measure(const Workload& w, const Args& args, const Setup& s,
             Ledger& ledger, double setup_s, Metrics& m) {
  // Half of the passes of each kind are kept, so at least three.
  constexpr std::size_t kMinPasses = 6;
  const std::string pass_dir = args.workdir + "/pass";
  std::vector<double> mpps, cpu_ns, steal;
  std::vector<std::vector<double>> emit_ms;
  std::uint64_t disk = 0;
  std::uint64_t packets = 0;
  QueryTimes q;
  std::int64_t ingest_ns = 0, query_ns = 0;
  std::string error;
  heap_reset_peak();
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < end || mpps.size() < kMinPasses ||
         q.window_p50_us.size() < kMinPasses) {
    const double share = static_cast<double>(ingest_ns) /
                         static_cast<double>(ingest_ns + query_ns + 1);
    const bool ingest =
        q.window_p50_us.size() >= kMinPasses
            ? mpps.size() < kMinPasses || share < w.ingest_share
            : mpps.size() < kMinPasses && share < w.ingest_share;
    const std::int64_t t0 = now_ns();
    if (ingest) {
      ledger.check(reset_directory(pass_dir, &error), "pass dir " + error);
      PassResult pass;
      daemon_pass(s.ingest, pass_dir, "site-a", 0, ledger, nullptr, pass);
      mpps.push_back(per(static_cast<double>(pass.packets), pass.wall_s) / 1e6);
      cpu_ns.push_back(per(pass.cpu_s * 1e9, static_cast<double>(pass.packets)));
      emit_ms.push_back(pass.emit_ms);
      steal.push_back(pass.steal);
      disk = pass.disk_bytes;
      packets = pass.packets;
      ingest_ns += now_ns() - t0;
    } else {
      query_pass(s.plan, ledger, q);
      query_ns += now_ns() - t0;
    }
  }
  const double peak_mb = static_cast<double>(heap_peak_bytes()) / (1 << 20);

  const auto keep = least_stolen(steal);
  const auto keep_q = least_stolen(q.steal);
  std::vector<double> emit;
  for (std::size_t i : keep)
    emit.insert(emit.end(), emit_ms[i].begin(), emit_ms[i].end());
  std::printf("samples: medians over the %zu of %zu ingest passes and %zu of "
              "%zu query passes with the least steal; %zu epoch boundaries, "
              "%llu queries\n",
              keep.size(), mpps.size(), keep_q.size(), q.window_p50_us.size(),
              emit.size(), static_cast<unsigned long long>(q.samples));
  const auto spread = [](const char* what, const std::vector<double>& v) {
    std::printf("%s per pass: min=%.3f p25=%.3f median=%.3f p75=%.3f "
                "max=%.3f\n",
                what, quantile(v, 0), quantile(v, 0.25), quantile(v, 0.5),
                quantile(v, 0.75), quantile(v, 1));
  };
  spread("throughput Mpkt/s", mpps);
  spread("window p99 us", q.window_p99_us);
  spread("ingest steal share", steal);
  spread("query steal share", q.steal);
  m = {
      {"throughput_mpps", {median(pick(mpps, keep)), "Mpkt/s"}},
      {"cpu_ns_per_pkt", {median(pick(cpu_ns, keep)), "ns"}},
      {"epoch_emit_p50_ms", {median(emit), "ms"}},
      {"peak_heap_mb", {peak_mb, "MiB"}},
      {"disk_kb_per_mpkt",
       {per(static_cast<double>(disk) / 1024.0,
            static_cast<double>(packets) / 1e6),
        "KiB"}},
      {"window_query_p50_us", {median(pick(q.window_p50_us, keep_q)), "us"}},
      {"window_query_p99_us", {median(pick(q.window_p99_us, keep_q)), "us"}},
      {"range_query_p50_us", {median(pick(q.range_p50_us, keep_q)), "us"}},
      {"live_query_p50_us", {median(pick(q.live_p50_us, keep_q)), "us"}},
      {"setup_s", {setup_s, "s"}},
  };
}

/// --trace 1: untraced and traced passes alternately, then the layer
/// and query probes.
void measure_layers(const Args& args, const Setup& s,
                    Ledger& ledger, Tracer& tracer, Metrics& m) {
  const std::string pass_dir = args.workdir + "/pass";
  std::vector<double> plain_s, traced_s, poll_ns;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(args.seconds * 0.4 * 1e9);
  PassResult pass;
  std::string error;
  while (now_ns() < end || plain_s.size() < 3) {
    ledger.check(reset_directory(pass_dir, &error), "pass dir " + error);
    daemon_pass(s.ingest, pass_dir, "site-a", 0, ledger, nullptr, pass);
    plain_s.push_back(pass.wall_s);
    ledger.check(reset_directory(pass_dir, &error), "pass dir " + error);
    daemon_pass(s.ingest, pass_dir, "site-a", 0, ledger, &tracer, pass);
    traced_s.push_back(pass.wall_s);
    poll_ns.push_back(static_cast<double>(pass.poll_self_ns));
  }
  LayerProbe p;
  layer_probes(s.ingest, args.workdir + "/probe", ledger, tracer, p);
  QueryProbe qp;
  query_probes(s.plan, ledger, tracer, qp);

  const double pkts = static_cast<double>(p.packets);
  const double plain_ns = median(plain_s) * 1e9;
  double close_ns = 0;
  for (double ms : p.close_ms) close_ns += ms * 1e6;
  // Blocking path of one pass: source polls, then the epoch engine
  // (which calls the capture, core or pipeline layers), the rotation
  // and the daemon's persistence.
  const double covered = median(poll_ns) + static_cast<double>(p.engine_offer_ns) +
                         close_ns + static_cast<double>(p.append_ns) +
                         static_cast<double>(p.persist_ns);
  const double epochs = static_cast<double>(p.epochs);
  m = {
      {"net.ingest_ns_per_pkt", {per(median(poll_ns), pkts), "ns"}},
      {"capture.classify_ns_per_pkt",
       {per(static_cast<double>(p.classify_ns), pkts), "ns"}},
      {"capture.reject_share", {per(static_cast<double>(p.rejected), pkts), "ratio"}},
      {"capture.fullparse_share",
       {per(static_cast<double>(p.full_parse), pkts), "ratio"}},
      {"sketch.absorbed_pkts", {static_cast<double>(p.absorbed), "count"}},
      {"sketch.promotions", {static_cast<double>(p.promotions), "count"}},
      {"sketch.evictions", {static_cast<double>(p.evictions), "count"}},
      {"pipeline.offer_ns_per_pkt",
       {per(static_cast<double>(p.dispatch_ns), pkts), "ns"}},
      {"pipeline.producer_wait_spins",
       {static_cast<double>(p.producer_wait_spins), "count"}},
      {"core.analyze_ns_per_pkt",
       {per(static_cast<double>(p.analyze_ns), pkts), "ns"}},
      {"core.streams", {per(static_cast<double>(p.streams), epochs), "count"}},
      {"core.meetings", {per(static_cast<double>(p.meetings), epochs), "count"}},
      {"analysis.offer_ns_per_pkt",
       {per(static_cast<double>(p.engine_offer_ns), pkts), "ns"}},
      {"analysis.close_epoch_ms", {median(p.close_ms), "ms"}},
      {"query.append_us_per_record",
       {per(static_cast<double>(p.append_ns) / 1e3,
            static_cast<double>(p.records)),
        "us"}},
      {"query.record_kb",
       {per(static_cast<double>(p.journal_bytes) / 1024.0,
            static_cast<double>(p.records)),
        "KiB"}},
      {"query.manifest_load_us", {qp.manifest_load_us, "us"}},
      {"query.open_us", {qp.open_us, "us"}},
      {"query.select_us", {qp.select_us, "us"}},
      {"query.records_read_per_query", {qp.records_read_per_query, "count"}},
      {"query.useful_record_ratio", {qp.useful_record_ratio, "ratio"}},
      {"query.decode_us_per_record", {qp.decode_us_per_record, "us"}},
      {"query.merge_us_per_record", {qp.merge_us_per_record, "us"}},
      {"trace.uncovered_share", {1.0 - per(covered, plain_ns), "ratio"}},
      {"trace.overhead_share", {per(median(traced_s), median(plain_s)) - 1.0, "ratio"}},
  };

  std::printf("layer spans (self time, all traced passes and probes; "
              "%zu untraced + %zu traced passes, untraced pass %.1f ms):\n",
              plain_s.size(), traced_s.size(), plain_ns / 1e6);
  for (const auto& [name, t] : tracer.totals())
    std::printf("  %-28s count=%-8llu total_ms=%-10.2f self_ms=%.2f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads)
    if (args.workload == candidate.name) w = &candidate;
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Ledger ledger;
  Setup setup;
  std::vector<double> setup_s;
  std::vector<TraceInfo> first_traces;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    if (!set_up(*w, args, rep == 0, ledger, setup)) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 1;
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
    // Earlier set-ups' traces are deleted before the kernel writes them
    // back; the last one's are written now, untimed, not mid-run.
    if (rep + 1 == kSetupReps)
      for (const auto& t : setup.traces)
        ledger.check(sync_file(t.path), "fsync " + t.path);
    // The same seed must give the same inputs.
    if (rep == 0) first_traces = setup.traces;
    for (std::size_t i = 0; i < setup.traces.size(); ++i)
      ledger.check(setup.traces[i].packets == first_traces[i].packets &&
                       setup.traces[i].zoom_packets ==
                           first_traces[i].zoom_packets &&
                       setup.traces[i].bytes == first_traces[i].bytes,
                   "trace " + setup.traces[i].path + " differs between set-ups");
  }

  Metrics metrics;
  Tracer tracer(args.trace);
  if (args.trace)
    measure_layers(args, setup, ledger, tracer, metrics);
  else
    measure(*w, args, setup, ledger, median(setup_s), metrics);

  // Correctness gate, outside the timed passes: the last pass's
  // full-range answer and every distinct request of the plan must equal
  // a recompute over the same trace.
  std::vector<PlannedQuery> checks = {full_range_query(
      args.workdir + "/pass", SiteTrace{setup.ingest.trace_path, "site-a"})};
  for (const auto* group :
       {&setup.plan.window, &setup.plan.range, &setup.plan.live})
    checks.insert(checks.end(), group->begin(), group->end());
  const bool answers_ok = check_queries(
      checks, daemon_config(setup.ingest, "", "", 0).engine, ledger);

  if (!args.spans.empty() && !tracer.write(args.spans))
    ledger.check(false, "write spans to " + args.spans);
  const bool correct = answers_ok && ledger.failed() == 0;
  print_result(correct, ledger, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace zpm::perfbench

int main(int argc, char** argv) {
  zpm::perfbench::Args args;
  if (!zpm::perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: zpm_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--spans <file>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const int rc = zpm::perfbench::run(args);
  // Every file of the run lives under the work directory.
  std::filesystem::remove_all(args.workdir, ec);
  return rc;
}
