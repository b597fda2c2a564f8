#include "query/query.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <tuple>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

namespace zpm::query {

namespace {

/// splitmix64 — the same finalizer family as canonical_flow_hash; good
/// avalanche for open addressing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool parse_i64(std::string_view value, std::int64_t& out) {
  if (value.empty() || value.size() > 20) return false;
  char buf[24];
  std::memcpy(buf, value.data(), value.size());
  buf[value.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + value.size()) return false;
  out = v;
  return true;
}

bool parse_u64(std::string_view value, std::uint64_t& out) {
  if (value.empty() || value.size() > 20 || value[0] == '-') return false;
  char buf[24];
  std::memcpy(buf, value.data(), value.size());
  buf[value.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf, &end, 10);
  if (errno != 0 || end != buf + value.size()) return false;
  out = v;
  return true;
}

/// Upper bound of offload bucket b in the histogram's unit.
std::uint64_t bucket_upper(std::size_t b) {
  return std::uint64_t{1} << (b + 1);
}

}  // namespace

std::string_view metric_name(QueryMetric metric) {
  switch (metric) {
    case QueryMetric::Rtt: return "rtt";
    case QueryMetric::Jitter: return "jitter";
    case QueryMetric::Bitrate: return "bitrate";
    case QueryMetric::SfuRtt: return "sfu-rtt";
  }
  return "rtt";
}

std::string_view group_name(QueryGroupBy group) {
  switch (group) {
    case QueryGroupBy::All: return "all";
    case QueryGroupBy::Meeting: return "meeting";
    case QueryGroupBy::Site: return "site";
  }
  return "all";
}

std::string format_query_request(const QueryRequest& request) {
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf),
                        "from=%lld;to=%lld;metric=%.*s;group=%.*s",
                        static_cast<long long>(request.from_us),
                        static_cast<long long>(request.to_us),
                        static_cast<int>(metric_name(request.metric).size()),
                        metric_name(request.metric).data(),
                        static_cast<int>(group_name(request.group).size()),
                        group_name(request.group).data());
  std::string out(buf, static_cast<std::size_t>(n));
  if (request.has_meeting) {
    n = std::snprintf(buf, sizeof(buf), ";meeting=%llu",
                      static_cast<unsigned long long>(request.meeting_key));
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

bool parse_query_field(std::string_view key, std::string_view value,
                       QueryRequest& out) {
  QueryRequest r = out;
  if (key == "from") {
    if (!parse_i64(value, r.from_us)) return false;
  } else if (key == "to") {
    if (!parse_i64(value, r.to_us)) return false;
  } else if (key == "metric") {
    if (value == "rtt") r.metric = QueryMetric::Rtt;
    else if (value == "jitter") r.metric = QueryMetric::Jitter;
    else if (value == "bitrate") r.metric = QueryMetric::Bitrate;
    else if (value == "sfu-rtt") r.metric = QueryMetric::SfuRtt;
    else return false;
  } else if (key == "group") {
    if (value == "all") r.group = QueryGroupBy::All;
    else if (value == "meeting") r.group = QueryGroupBy::Meeting;
    else if (value == "site") r.group = QueryGroupBy::Site;
    else return false;
  } else if (key == "meeting") {
    if (!parse_u64(value, r.meeting_key)) return false;
    r.has_meeting = true;
  } else {
    return false;
  }
  out = r;
  return true;
}

std::string_view query_field_syntax(std::string_view key) {
  if (key == "from" || key == "to") return "an integer of microseconds";
  if (key == "metric") return "rtt, jitter, bitrate or sfu-rtt";
  if (key == "group") return "all, meeting or site";
  if (key == "meeting") return "an unsigned integer meeting key";
  return "a known field";
}

bool apply_query_fields(std::string_view text, QueryRequest& out) {
  QueryRequest r = out;
  while (!text.empty()) {
    std::size_t sep = text.find(';');
    const std::string_view field = text.substr(0, sep);
    text = sep == std::string_view::npos ? std::string_view{}
                                         : text.substr(sep + 1);
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos ||
        !parse_query_field(field.substr(0, eq), field.substr(eq + 1), r))
      return false;
  }
  out = r;
  return true;
}

bool parse_query_request(std::string_view text, QueryRequest& out) {
  QueryRequest r;
  if (!apply_query_fields(text, r) || r.from_us > r.to_us) return false;
  out = r;
  return true;
}

std::uint64_t histogram_quantile_upper(const capture::OffloadHistogram& hist,
                                       double q) {
  if (hist.samples == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(hist.samples) + 0.5);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < capture::kOffloadBuckets; ++b) {
    cum += hist.buckets[b];
    if (cum >= target) return bucket_upper(b);
  }
  return bucket_upper(capture::kOffloadBuckets - 1);
}

void encode_query_result(const QueryResult& result, util::ByteWriter& w) {
  const std::string request = format_query_request(result.request);
  w.u32be(static_cast<std::uint32_t>(request.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(request.data()), request.size()));
  w.u64be(result.epochs);
  w.u32be(static_cast<std::uint32_t>(result.groups.size()));
  for (const auto& g : result.groups) {
    w.u64be(g.key);
    w.u32be(static_cast<std::uint32_t>(g.site.size()));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(g.site.data()), g.site.size()));
    for (const std::uint64_t b : g.hist.buckets) w.u64be(b);
    w.u64be(g.hist.samples);
    w.u64be(g.stream_rows);
    w.u64be(g.meeting_rows);
    w.u64be(g.meetings);
    w.u32be(g.participants);
    w.u8(g.saw_p2p);
    w.u64be(g.media_packets);
    w.u64be(g.media_payload_bytes);
    w.u64be(g.received);
    w.u64be(g.unique_packets);
    w.u64be(g.duplicates);
    w.u64be(g.reordered);
    w.u64be(g.gap_packets);
    w.u64be(g.retransmissions);
    w.u64be(g.frames);
    w.u64be(g.talk_seconds);
  }
}

std::string render_query_result(const QueryResult& result) {
  std::string out = "query " + format_query_request(result.request) + "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "epochs=%llu groups=%zu records_read=%llu corrupt=%llu\n",
                static_cast<unsigned long long>(result.epochs),
                result.groups.size(),
                static_cast<unsigned long long>(result.records_read),
                static_cast<unsigned long long>(result.records_corrupt));
  out += buf;
  const std::string_view unit =
      result.request.metric == QueryMetric::Bitrate ? "kbps" : "us";
  for (const auto& g : result.groups) {
    switch (result.request.group) {
      case QueryGroupBy::All:
        out += "group all";
        break;
      case QueryGroupBy::Meeting:
        std::snprintf(buf, sizeof(buf), "group meeting=%llu",
                      static_cast<unsigned long long>(g.key));
        out += buf;
        break;
      case QueryGroupBy::Site:
        out += "group site=" + (g.site.empty() ? "?" : g.site);
        break;
    }
    std::snprintf(
        buf, sizeof(buf),
        " samples=%llu p50<=%llu%.*s p90<=%llu%.*s p99<=%llu%.*s\n",
        static_cast<unsigned long long>(g.hist.samples),
        static_cast<unsigned long long>(histogram_quantile_upper(g.hist, 0.50)),
        static_cast<int>(unit.size()), unit.data(),
        static_cast<unsigned long long>(histogram_quantile_upper(g.hist, 0.90)),
        static_cast<int>(unit.size()), unit.data(),
        static_cast<unsigned long long>(histogram_quantile_upper(g.hist, 0.99)),
        static_cast<int>(unit.size()), unit.data());
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  streams=%llu meetings=%llu participants<=%u p2p=%u "
        "media_pkts=%llu frames=%llu talk_s=%llu\n",
        static_cast<unsigned long long>(g.stream_rows),
        static_cast<unsigned long long>(g.meetings), g.participants,
        g.saw_p2p, static_cast<unsigned long long>(g.media_packets),
        static_cast<unsigned long long>(g.frames),
        static_cast<unsigned long long>(g.talk_seconds));
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  loss: recv=%llu uniq=%llu dup=%llu reord=%llu gap=%llu rtx=%llu\n",
        static_cast<unsigned long long>(g.received),
        static_cast<unsigned long long>(g.unique_packets),
        static_cast<unsigned long long>(g.duplicates),
        static_cast<unsigned long long>(g.reordered),
        static_cast<unsigned long long>(g.gap_packets),
        static_cast<unsigned long long>(g.retransmissions));
    out += buf;
    if (g.hist.samples > 0) {
      out += "  cdf:";
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < capture::kOffloadBuckets; ++b) {
        cum += g.hist.buckets[b];
        if (g.hist.buckets[b] == 0) continue;
        std::snprintf(buf, sizeof(buf), " <=%llu:%0.1f%%",
                      static_cast<unsigned long long>(bucket_upper(b)),
                      100.0 * static_cast<double>(cum) /
                          static_cast<double>(g.hist.samples));
        out += buf;
      }
      out += '\n';
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// QueryEngine

void QueryEngine::FlatMap::clear() {
  std::fill(used_.begin(), used_.end(), 0);
  size_ = 0;
}

void QueryEngine::FlatMap::grow() {
  const std::size_t cap = keys_.empty() ? 64 : keys_.size() * 2;
  std::vector<std::uint64_t> keys(cap);
  std::vector<std::uint32_t> vals(cap);
  std::vector<std::uint8_t> used(cap, 0);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!used_[i]) continue;
    std::size_t slot = mix64(keys_[i]) & (cap - 1);
    while (used[slot]) slot = (slot + 1) & (cap - 1);
    keys[slot] = keys_[i];
    vals[slot] = vals_[i];
    used[slot] = 1;
  }
  keys_.swap(keys);
  vals_.swap(vals);
  used_.swap(used);
}

std::uint32_t QueryEngine::FlatMap::find_or_insert(std::uint64_t key,
                                                   std::uint32_t fresh,
                                                   bool& inserted) {
  if (keys_.empty() || size_ * 10 >= keys_.size() * 7) grow();
  std::size_t slot = mix64(key) & (keys_.size() - 1);
  while (used_[slot]) {
    if (keys_[slot] == key) {
      inserted = false;
      return vals_[slot];
    }
    slot = (slot + 1) & (keys_.size() - 1);
  }
  keys_[slot] = key;
  vals_[slot] = fresh;
  used_[slot] = 1;
  ++size_;
  inserted = true;
  return fresh;
}

void QueryEngine::begin(const QueryRequest& request,
                        std::span<const std::string> site_names) {
  request_ = request;
  site_names_.assign(site_names.begin(), site_names.end());
  groups_.clear();
  group_index_.clear();
  distinct_.clear();
  epochs_ = 0;
  any_epoch_ = false;
  last_site_ = 0;
  last_seq_ = 0;
}

bool QueryEngine::meeting_excluded(std::uint64_t meeting_key) const {
  return request_.has_meeting && meeting_key != request_.meeting_key;
}

QueryGroup& QueryEngine::group_for(std::uint64_t key, std::uint32_t site) {
  bool inserted = false;
  const std::uint32_t idx = group_index_.find_or_insert(
      key, static_cast<std::uint32_t>(groups_.size()), inserted);
  if (inserted) {
    groups_.emplace_back();
    groups_.back().key = key;
    if (request_.group == QueryGroupBy::Site && site < site_names_.size())
      groups_.back().site = site_names_[site];
  }
  return groups_[idx];
}

void QueryEngine::add_slice(const EpochSlice& slice, std::uint32_t site) {
  if (!any_epoch_ || site != last_site_ || slice.seq != last_seq_) {
    ++epochs_;
    any_epoch_ = true;
    last_site_ = site;
    last_seq_ = slice.seq;
  }
  for (const auto& m : slice.meetings) {
    if (meeting_excluded(m.meeting_key)) continue;
    std::uint64_t key = 0;
    if (request_.group == QueryGroupBy::Meeting) key = m.meeting_key;
    else if (request_.group == QueryGroupBy::Site) key = site;
    QueryGroup& g = group_for(key, site);
    ++g.meeting_rows;
    bool inserted = false;
    distinct_.find_or_insert(mix64(key) ^ m.meeting_key, 1, inserted);
    if (inserted) ++g.meetings;
    g.participants = std::max(g.participants, m.participants);
    g.saw_p2p |= m.saw_p2p;
    if (request_.metric == QueryMetric::SfuRtt) g.hist.merge(m.sfu_rtt_us);
  }
  for (const auto& s : slice.streams) {
    if (meeting_excluded(s.meeting_key)) continue;
    std::uint64_t key = 0;
    if (request_.group == QueryGroupBy::Meeting) key = s.meeting_key;
    else if (request_.group == QueryGroupBy::Site) key = site;
    QueryGroup& g = group_for(key, site);
    ++g.stream_rows;
    g.media_packets += s.media_packets;
    g.media_payload_bytes += s.media_payload_bytes;
    g.received += s.received;
    g.unique_packets += s.unique_packets;
    g.duplicates += s.duplicates;
    g.reordered += s.reordered;
    g.gap_packets += s.gap_packets;
    g.retransmissions += s.retransmissions;
    g.frames += s.frames;
    g.talk_seconds += s.talk_seconds;
    switch (request_.metric) {
      case QueryMetric::Rtt: g.hist.merge(s.rtt_us); break;
      case QueryMetric::Jitter: g.hist.merge(s.jitter_us); break;
      case QueryMetric::Bitrate: g.hist.merge(s.bitrate_kbps); break;
      case QueryMetric::SfuRtt: break;  // meeting rows carry it
    }
  }
}

void QueryEngine::finish(QueryResult& out) {
  out.request = request_;
  out.epochs = epochs_;
  out.groups = std::move(groups_);
  groups_.clear();
  std::sort(out.groups.begin(), out.groups.end(),
            [](const QueryGroup& a, const QueryGroup& b) {
              return a.key < b.key;
            });
}

// ---------------------------------------------------------------------------
// run_query

namespace {

/// One reader's contribution to the k-way merge: the record range
/// overlapping the window (or, under a meeting filter with a
/// dictionary, only that meeting's records inside the range).
struct Cursor {
  const JournalReader* reader = nullptr;
  std::uint32_t site = 0;
  std::size_t next = 0;
  std::size_t end = 0;
  std::span<const std::uint32_t> refs;  ///< dictionary mode when non-empty
  std::size_t ref_next = 0;

  [[nodiscard]] bool done() const {
    return refs.empty() ? next >= end : ref_next >= refs.size();
  }
  [[nodiscard]] std::size_t record_index() const {
    return refs.empty() ? next : refs[ref_next];
  }
  void advance() {
    if (refs.empty()) ++next;
    else ++ref_next;
  }
};

}  // namespace

bool run_query(const QueryRequest& request,
               std::span<JournalReader* const> readers,
               std::span<const std::uint32_t> site_of,
               std::span<const std::string> site_names, QueryResult& out,
               std::string* error) {
  if (readers.size() != site_of.size()) {
    if (error != nullptr) *error = "readers/site_of size mismatch";
    return false;
  }
  QueryEngine engine;
  engine.begin(request, site_names);
  out = QueryResult{};

  std::vector<Cursor> cursors;
  cursors.reserve(readers.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    Cursor c;
    c.reader = readers[i];
    c.site = site_of[i];
    const auto [begin, end] = readers[i]->select(request.from_us, request.to_us);
    c.next = begin;
    c.end = end;
    if (request.has_meeting && readers[i]->scan_stats().used_index) {
      // Dictionary mode: only this meeting's records, clipped to the
      // window range (refs are in record order, records time-ordered).
      const auto refs = readers[i]->records_for_meeting(request.meeting_key);
      std::size_t lo = 0;
      std::size_t hi = refs.size();
      while (lo < hi && refs[lo] < begin) ++lo;
      while (hi > lo && refs[hi - 1] >= end) --hi;
      c.refs = refs.subspan(lo, hi - lo);
      c.ref_next = 0;
      if (c.refs.empty()) c.next = c.end;  // nothing for this reader
    }
    if (!c.done()) cursors.push_back(c);
  }

  // K-way merge in (first_us, site, seq, shard) order. Aggregation is
  // commutative, so the order only pins down deterministic epoch
  // counting; a heap would save comparisons but reader counts are
  // small (sites, not shards).
  EpochSlice scratch;
  while (true) {
    Cursor* best = nullptr;
    const JournalRecordInfo* best_info = nullptr;
    for (auto& c : cursors) {
      if (c.done()) continue;
      const JournalRecordInfo& info = c.reader->records()[c.record_index()];
      if (best == nullptr ||
          std::tuple(info.first_us, c.site, info.seq, info.shard) <
              std::tuple(best_info->first_us, best->site, best_info->seq,
                         best_info->shard)) {
        best = &c;
        best_info = &info;
      }
    }
    if (best == nullptr) break;
    // select() guarantees overlap only in index mode (where last_us is
    // validated nondecreasing). A scanned spliced/hostile file can put
    // a non-overlapping record inside the range; re-check with the same
    // predicate recompute_query_result uses, so such records are
    // excluded rather than folded into the answer.
    if (best_info->last_us < request.from_us ||
        best_info->first_us > request.to_us) {
      best->advance();
      continue;
    }
    if (best->reader->read(best->record_index(), scratch)) {
      ++out.records_read;
      engine.add_slice(scratch, best->site);
    } else {
      ++out.records_corrupt;
    }
    best->advance();
  }

  engine.finish(out);
  return true;
}

bool JournalSet::open(const std::string& path, const std::string& site,
                      std::string* error, bool* duplicate) {
  if (duplicate != nullptr) *duplicate = false;
  // The same file under two names (`J ./J`, a symlink, overlapping
  // globs) must count once: compare device and inode, not spelling.
  FileId id;
#if defined(__unix__) || defined(__APPLE__)
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    id = FileId{static_cast<std::uint64_t>(st.st_dev),
                static_cast<std::uint64_t>(st.st_ino)};
    for (const FileId& held : ids_) {
      if (held.dev == id.dev && held.ino == id.ino) {
        if (duplicate != nullptr) *duplicate = true;
        return true;
      }
    }
  }
#endif
  auto reader = std::make_unique<JournalReader>();
  if (!reader->open(path, error)) return false;
  const std::string& name = site.empty() ? reader->site() : site;
  std::uint32_t site_idx = 0;
  for (; site_idx < site_names_.size(); ++site_idx)
    if (site_names_[site_idx] == name) break;
  if (site_idx == site_names_.size()) site_names_.push_back(name);
  site_of_.push_back(site_idx);
  readers_.push_back(reader.get());
  owned_.push_back(std::move(reader));
  paths_.push_back(path);
  ids_.push_back(id);
  return true;
}

bool JournalSet::open_manifest(const QueryRequest& request,
                               const Manifest& manifest, const std::string& dir,
                               std::size_t* skipped, std::string* error) {
  std::size_t bad = 0;
  std::string first_error;
  for (const auto& entry : manifest.entries) {
    // Manifest spans let us skip whole journals without even mapping
    // them when they cannot overlap the window.
    if (entry.records > 0 &&
        (entry.last_us < request.from_us || entry.first_us > request.to_us)) {
      continue;
    }
    std::string err;
    const std::string path = entry.path.starts_with('/')
                                 ? entry.path
                                 : dir + "/" + entry.path;
    if (!open(path, entry.site, &err)) {
      ++bad;
      if (first_error.empty()) first_error = err;
    }
  }
  if (skipped != nullptr) *skipped = bad;
  if (readers_.empty() && bad > 0) {
    if (error != nullptr) *error = "no readable journals: " + first_error;
    return false;
  }
  return true;
}

bool JournalSet::query(const QueryRequest& request, QueryResult& out,
                       std::string* error) const {
  if (!run_query(request, readers_, site_of_, site_names_, out, error))
    return false;
  // Scan-time corruption is accounted in the result, never silently
  // dropped.
  for (const auto* r : readers_) out.records_corrupt += r->scan_stats().corrupt_records;
  return true;
}

std::string JournalSet::render_stats() const {
  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < readers_.size(); ++i) {
    const JournalReader& r = *readers_[i];
    const auto& stats = r.scan_stats();
    std::snprintf(buf, sizeof(buf),
                  " shards=%u records=%zu %s corrupt=%llu skipped_bytes=%llu\n",
                  r.shard_count(), r.records().size(),
                  stats.used_index ? "indexed" : "scanned",
                  static_cast<unsigned long long>(stats.corrupt_records),
                  static_cast<unsigned long long>(stats.skipped_bytes));
    out += paths_[i] + ": site=" + r.site() + buf;
  }
  return out;
}

bool run_query_on_manifest(const QueryRequest& request, const Manifest& manifest,
                           const std::string& dir, QueryResult& out,
                           std::size_t* skipped, std::string* error) {
  JournalSet journals;
  return journals.open_manifest(request, manifest, dir, skipped, error) &&
         journals.query(request, out, error);
}

}  // namespace zpm::query
