#include "queries.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "analysis/recompute.h"
#include "ingest.h"
#include "query/journal.h"
#include "util/bytes.h"

namespace zpm::perfbench {

namespace {

/// Distinct window requests per sealed site, and live requests.
constexpr std::size_t kWindowsPerSite = 4;
constexpr std::size_t kLiveWindows = 2;

/// Every journal a MANIFEST lists, opened.
struct OpenJournal {
  query::ManifestEntry entry;
  std::unique_ptr<query::JournalReader> reader;
};

bool open_manifest(const std::string& dir, Ledger& ledger,
                   std::vector<OpenJournal>& out) {
  out.clear();
  query::Manifest manifest;
  std::string error;
  if (!ledger.check(query::load_manifest(dir, manifest, &error),
                    "load MANIFEST in " + dir + " " + error))
    return false;
  for (const auto& entry : manifest.entries) {
    auto reader = std::make_unique<query::JournalReader>();
    if (!ledger.check(reader->open(dir + "/" + entry.path, &error),
                      "open journal " + entry.path + " " + error))
      return false;
    out.push_back(OpenJournal{entry, std::move(reader)});
  }
  return true;
}

bool overlaps(const query::JournalRecordInfo& r, std::int64_t from,
              std::int64_t to) {
  return !(r.last_us < from || r.first_us > to);
}

/// Fills `q.overlapping` / `q.touched` from the opened journals, with
/// the same whole-journal skip run_query_on_manifest applies.
void count_records(const std::vector<OpenJournal>& journals, PlannedQuery& q) {
  const std::int64_t from = q.request.from_us;
  const std::int64_t to = q.request.to_us;
  q.overlapping = 0;
  q.touched = 0;
  for (const auto& j : journals) {
    if (j.entry.records > 0 &&
        (j.entry.last_us < from || j.entry.first_us > to))
      continue;
    std::uint64_t hit = 0;
    for (const auto& r : j.reader->records()) hit += overlaps(r, from, to);
    q.overlapping += hit;
    q.touched += j.reader->scan_stats().used_index ? hit
                                                   : j.reader->records().size();
  }
}

/// Shard-0 index entries of one journal, in epoch order.
std::vector<query::JournalRecordInfo> epochs_of(const OpenJournal& j) {
  std::vector<query::JournalRecordInfo> out;
  for (const auto& r : j.reader->records())
    if (r.shard == 0) out.push_back(r);
  return out;
}

PlannedQuery epoch_query(const std::string& dir,
                         const query::JournalRecordInfo& epoch,
                         const SiteTrace& reference) {
  PlannedQuery q;
  q.dir = dir;
  // Neighbouring epochs can share a boundary microsecond; a window one
  // microsecond inside the epoch's span selects that epoch alone.
  q.request.from_us = epoch.first_us + 1;
  q.request.to_us = epoch.last_us - 1;
  q.request.metric = query::QueryMetric::Rtt;
  q.request.group = query::QueryGroupBy::Meeting;
  q.reference = {reference};
  return q;
}

/// One manifest query as an operator would send it: MANIFEST load, then
/// run_query_on_manifest.
bool run_one(const PlannedQuery& q, query::QueryResult& result,
             std::string& error) {
  query::Manifest manifest;
  std::size_t skipped = 0;
  return query::load_manifest(q.dir, manifest, &error) &&
         query::run_query_on_manifest(q.request, manifest, q.dir, result,
                                      &skipped, &error) &&
         skipped == 0;
}

std::vector<std::uint8_t> encoded(const query::QueryResult& result) {
  util::ByteWriter w;
  query::encode_query_result(result, w);
  return w.take();
}

}  // namespace

bool plan_queries(const QueryTarget& target, Ledger& ledger, QueryPlan& out) {
  out = QueryPlan{};
  std::vector<OpenJournal> sealed;
  if (!open_manifest(target.sealed_dir, ledger, sealed)) return false;

  std::int64_t span_from = std::numeric_limits<std::int64_t>::max();
  std::int64_t span_to = std::numeric_limits<std::int64_t>::min();
  PlannedQuery range;
  range.dir = target.sealed_dir;
  range.request.metric = query::QueryMetric::Rtt;
  range.request.group = query::QueryGroupBy::Site;
  for (const auto& site : target.sealed_sites) {
    const auto it = std::find_if(sealed.begin(), sealed.end(),
                                 [&](const OpenJournal& j) {
                                   return j.entry.site == site.site;
                                 });
    if (!ledger.check(it != sealed.end() && it->reader->scan_stats().used_index,
                      "sealed journal for " + site.site))
      return false;
    const auto epochs = epochs_of(*it);
    if (!ledger.check(epochs.size() >= kWindowsPerSite,
                      "epochs in " + site.site))
      return false;
    for (std::size_t i = 0; i < kWindowsPerSite; ++i) {
      const std::size_t at = (2 * i + 1) * epochs.size() /
                             (2 * kWindowsPerSite);
      out.window.push_back(epoch_query(target.sealed_dir, epochs[at], site));
    }
    span_from = std::min(span_from, it->entry.first_us);
    span_to = std::max(span_to, it->entry.last_us);
    range.reference.push_back(site);
  }
  range.request.from_us = span_from;
  range.request.to_us = span_to;
  out.range.push_back(range);

  std::vector<OpenJournal> live_dir;
  if (!open_manifest(target.live_dir, ledger, live_dir)) return false;
  const auto live = std::find_if(live_dir.begin(), live_dir.end(),
                                 [&](const OpenJournal& j) {
                                   return j.entry.site == target.live_site.site;
                                 });
  // Sharing a MANIFEST with the sealed journals, the unsealed segment
  // must lie after them so window and range requests never scan it.
  if (!ledger.check(live != live_dir.end() &&
                        !live->reader->scan_stats().used_index &&
                        (target.live_dir != target.sealed_dir ||
                         live->entry.first_us > span_to),
                    "unsealed segment in " + target.live_dir))
    return false;
  const auto live_epochs = epochs_of(*live);
  // The halted run's last epoch may share its boundary microsecond with
  // the lost partial epoch, so windows come from the epochs before it.
  if (!ledger.check(live_epochs.size() == target.live_epochs &&
                        target.live_epochs >= kLiveWindows + 1,
                    "epochs in the unsealed segment"))
    return false;
  for (std::size_t i = 0; i < kLiveWindows; ++i)
    out.live.push_back(
        epoch_query(target.live_dir, live_epochs[i * (target.live_epochs - 1) /
                                                 kLiveWindows],
                    target.live_site));

  for (auto& q : out.window) count_records(sealed, q);
  for (auto& q : out.range) count_records(sealed, q);
  for (auto& q : out.live) count_records(live_dir, q);
  // Every seed must ask the same amount of work of the window requests.
  const std::uint64_t shards = live->reader->shard_count();
  bool one_epoch = true;
  for (const auto* group : {&out.window, &out.live})
    for (const auto& q : *group) one_epoch &= q.overlapping == shards;
  return ledger.check(one_epoch, "every window request covers one epoch");
}

PlannedQuery full_range_query(const std::string& dir, const SiteTrace& trace) {
  PlannedQuery q;
  q.dir = dir;
  q.request.from_us = std::numeric_limits<std::int64_t>::min();
  q.request.to_us = std::numeric_limits<std::int64_t>::max();
  q.request.metric = query::QueryMetric::Rtt;
  q.request.group = query::QueryGroupBy::Meeting;
  q.reference = {trace};
  return q;
}

void query_pass(const QueryPlan& plan, Ledger& ledger, QueryTimes& out) {
  // Nearest-rank p99 of 1120 samples leaves eleven beyond it; a median
  // of 28 leaves fourteen.
  constexpr int kCycles = 28;
  constexpr int kWindowsPerCycle = 40;
  query::QueryResult result;
  std::string error;
  std::vector<double> window, range, live;
  const auto send = [&](const PlannedQuery& q, std::vector<double>& sink) {
    const std::int64_t t0 = now_ns();
    const bool ok = run_one(q, result, error);
    const std::int64_t t1 = now_ns();
    sink.push_back(static_cast<double>(t1 - t0) / 1e3);
    const bool good = ok && result.records_corrupt == 0 &&
                      result.records_read == q.overlapping;
    ledger.check(good, good ? std::string()
                            : "query " + query::format_query_request(q.request) +
                                  " " + error);
  };
  const CpuTicks ticks0 = read_cpu_ticks();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int i = 0; i < kWindowsPerCycle; ++i)
      send(plan.window[static_cast<std::size_t>(cycle * kWindowsPerCycle + i) %
                       plan.window.size()],
           window);
    send(plan.range[static_cast<std::size_t>(cycle) % plan.range.size()], range);
    send(plan.live[static_cast<std::size_t>(cycle) % plan.live.size()], live);
  }
  out.steal.push_back(steal_share(ticks0, read_cpu_ticks()));
  out.window_p50_us.push_back(quantile(window, 0.5));
  out.window_p99_us.push_back(quantile(window, 0.99));
  out.range_p50_us.push_back(median(range));
  out.live_p50_us.push_back(median(live));
  out.samples += window.size() + range.size() + live.size();
}

bool query_probes(const QueryPlan& plan, Ledger& ledger, Tracer& tracer,
                  QueryProbe& out) {
  out = QueryProbe{};
  constexpr int kReps = 50;
  const std::uint32_t root = tracer.begin("probe.query");
  std::string error;
  bool ok = true;

  // MANIFEST load, journal open and index select, per window request.
  std::vector<double> load_us, open_us, select_us;
  std::uint64_t read_total = 0, overlapping = 0, touched = 0;
  query::QueryResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& q : plan.window) {
      query::Manifest manifest;
      std::int64_t t0 = now_ns();
      ok &= query::load_manifest(q.dir, manifest, &error);
      std::int64_t t1 = now_ns();
      tracer.add("query.manifest_load", root, t0, t1);
      load_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      for (const auto& entry : manifest.entries) {
        if (entry.last_us < q.request.from_us || entry.first_us > q.request.to_us)
          continue;
        query::JournalReader reader;
        t0 = now_ns();
        ok &= reader.open(q.dir + "/" + entry.path, &error);
        t1 = now_ns();
        tracer.add("query.open", root, t0, t1);
        open_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        t0 = now_ns();
        const auto range = reader.select(q.request.from_us, q.request.to_us);
        t1 = now_ns();
        tracer.add("query.select", root, t0, t1);
        select_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        ok &= range.second > range.first;
      }
    }
  }
  for (const auto& q : plan.window) {
    ok &= run_one(q, result, error);
    read_total += result.records_read;
  }
  for (const auto* group : {&plan.window, &plan.live}) {
    for (const auto& q : *group) {
      overlapping += q.overlapping;
      touched += q.touched;
    }
  }
  out.manifest_load_us = median(load_us);
  out.open_us = median(open_us);
  out.select_us = median(select_us);
  out.records_read_per_query =
      static_cast<double>(read_total) / static_cast<double>(plan.window.size());
  out.useful_record_ratio =
      touched > 0 ? static_cast<double>(overlapping) / static_cast<double>(touched)
                  : 0.0;

  // Range request split into record decode and merge.
  std::vector<double> decode_us, merge_us;
  for (int rep = 0; rep < kReps / 5; ++rep) {
    for (const auto& q : plan.range) {
      query::Manifest manifest;
      ok &= query::load_manifest(q.dir, manifest, &error);
      std::vector<std::string> sites;
      query::QueryEngine engine;
      std::vector<std::unique_ptr<query::JournalReader>> readers;
      for (const auto& entry : manifest.entries) {
        if (entry.last_us < q.request.from_us || entry.first_us > q.request.to_us)
          continue;
        sites.push_back(entry.site);
        readers.push_back(std::make_unique<query::JournalReader>());
        ok &= readers.back()->open(q.dir + "/" + entry.path, &error);
      }
      engine.begin(q.request, sites);
      query::EpochSlice slice;
      std::int64_t decode_ns = 0, merge_ns = 0;
      std::uint64_t records = 0;
      for (std::size_t s = 0; s < readers.size(); ++s) {
        const auto [begin, end] =
            readers[s]->select(q.request.from_us, q.request.to_us);
        for (std::size_t i = begin; i < end; ++i) {
          const std::int64_t t0 = now_ns();
          ok &= readers[s]->read(i, slice);
          const std::int64_t t1 = now_ns();
          engine.add_slice(slice, static_cast<std::uint32_t>(s));
          const std::int64_t t2 = now_ns();
          tracer.add("query.decode", root, t0, t1);
          tracer.add("query.merge", root, t1, t2);
          decode_ns += t1 - t0;
          merge_ns += t2 - t1;
          ++records;
        }
      }
      engine.finish(result);
      if (records > 0) {
        decode_us.push_back(static_cast<double>(decode_ns) / 1e3 /
                            static_cast<double>(records));
        merge_us.push_back(static_cast<double>(merge_ns) / 1e3 /
                           static_cast<double>(records));
      }
    }
  }
  out.decode_us_per_record = median(decode_us);
  out.merge_us_per_record = median(merge_us);
  tracer.end(root);
  return ledger.check(ok, "query probes " + error);
}

bool check_queries(const std::vector<PlannedQuery>& queries,
                   const analysis::EpochEngineConfig& engine_config,
                   Ledger& ledger) {
  std::map<std::string, std::unique_ptr<MappedTrace>> traces;
  bool all = true;
  for (const auto& q : queries) {
    query::QueryResult journal;
    std::string error;
    bool ok = run_one(q, journal, error);

    // Reference: recompute each trace; a group=site request over several
    // sites concatenates the per-site groups with their site indices.
    query::QueryResult expected;
    expected.request = q.request;
    for (std::size_t s = 0; s < q.reference.size(); ++s) {
      auto& loaded = traces[q.reference[s].trace_path];
      if (!loaded)
        loaded = std::make_unique<MappedTrace>(q.reference[s].trace_path);
      query::QueryResult part;
      analysis::recompute_query_result(q.request, loaded->packets,
                                       engine_config, q.reference[s].site,
                                       part);
      if (q.reference.size() == 1) {
        expected = std::move(part);
        break;
      }
      expected.epochs += part.epochs;
      for (auto& g : part.groups) {
        g.key = s;
        expected.groups.push_back(std::move(g));
      }
    }
    ok = ok && encoded(journal) == encoded(expected);
    all &= ledger.check(ok, "journal answer == recompute for " +
                                query::format_query_request(q.request) + " " +
                                error);
  }
  return all;
}

}  // namespace zpm::perfbench
