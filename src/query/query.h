// Time-windowed CDF/summary queries over metric journals — the query
// half of the CoMo-style export/query split (see journal.h for the
// export half and DESIGN.md "Query/export architecture").
//
// A query names a closed time window, a metric (RTT, jitter, bitrate,
// or SFU RTT), a grouping (all / per-meeting / per-site) and an
// optional meeting filter. run_query() answers it from N mmap'd
// journals: each reader's footer index is binary-searched for the
// records overlapping the window (select()), the per-reader ranges are
// k-way merged in (first_us, site, seq, shard) order, and only those
// records are decoded. A 1-epoch window over a 100-epoch journal
// touches ~1/100th of the file (bench_query enforces ≥10x vs full
// recompute).
//
// Aggregation is exact, not approximate merge: every histogram is a
// capture::OffloadHistogram and every counter additive (min/max for
// time extents, max for participants, OR for flags), so the result is
// bit-identical whether the same epochs came from one serial journal,
// a sharded one, or several per-site journals — and identical to a
// monolithic recompute over the same window
// (analysis::recompute_query_result, the reference path).
//
// The aggregation hot path performs no steady-state allocations: slices
// decode into a reused scratch record and group/distinct-meeting
// lookups use open-addressed flat tables that only grow (bench_query's
// counting allocator enforces zero).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "query/journal.h"
#include "util/bytes.h"

namespace zpm::query {

enum class QueryMetric : std::uint8_t {
  Rtt = 0,      ///< per-stream injected RTT samples, µs
  Jitter = 1,   ///< per-stream per-second jitter, µs
  Bitrate = 2,  ///< per-stream per-second media bitrate, kbit/s
  SfuRtt = 3,   ///< per-meeting §5.3 method-1 SFU RTT samples, µs
};

enum class QueryGroupBy : std::uint8_t {
  All = 0,      ///< one group over everything
  Meeting = 1,  ///< one group per stable meeting key
  Site = 2,     ///< one group per journal site
};

[[nodiscard]] std::string_view metric_name(QueryMetric metric);
[[nodiscard]] std::string_view group_name(QueryGroupBy group);

/// A query, with a canonical text form so requests round-trip through
/// the CLI, logs and the fuzzer:
///   from=<i64>;to=<i64>;metric=rtt|jitter|bitrate|sfu-rtt;
///   group=all|meeting|site[;meeting=<u64>]
/// The window is closed ([from_us, to_us], µs since epoch) and selects
/// whole epochs by span overlap — the epoch is the aggregation quantum.
struct QueryRequest {
  std::int64_t from_us = 0;
  std::int64_t to_us = std::numeric_limits<std::int64_t>::max();
  QueryMetric metric = QueryMetric::Rtt;
  QueryGroupBy group = QueryGroupBy::All;
  bool has_meeting = false;       ///< filter to one meeting key
  std::uint64_t meeting_key = 0;  ///< valid when has_meeting

  bool operator==(const QueryRequest&) const = default;
};

/// Canonical text codec: format() always emits every field in fixed
/// order; parse() accepts any order, rejects unknown keys, malformed
/// values and an empty window, and is a fixpoint with format()
/// (fuzz_query). On failure `out` is left untouched.
[[nodiscard]] std::string format_query_request(const QueryRequest& request);
bool parse_query_request(std::string_view text, QueryRequest& out);

/// Sets field `key` (from, to, metric, group or meeting) from its text
/// form: the one per-key parser behind parse_query_request and
/// zpm_query's key flags. False on an unknown key or a malformed value,
/// leaving `out` untouched.
bool parse_query_field(std::string_view key, std::string_view value,
                       QueryRequest& out);
/// What a well-formed value of field `key` looks like (usage errors).
[[nodiscard]] std::string_view query_field_syntax(std::string_view key);
/// Applies the ';'-joined key=value fields of `text` to `out` in order,
/// leaving the fields it does not name as they are; all or nothing.
bool apply_query_fields(std::string_view text, QueryRequest& out);

/// One aggregation group of a result. All counters are sums over the
/// selected records' rows; merging two groups with the same key is
/// field-wise add (max for participants, OR for saw_p2p).
struct QueryGroup {
  std::uint64_t key = 0;  ///< 0 (all), meeting key, or site index
  std::string site;       ///< set when grouping by site
  capture::OffloadHistogram hist;  ///< the requested metric's samples
  std::uint64_t stream_rows = 0;
  std::uint64_t meeting_rows = 0;
  std::uint64_t meetings = 0;  ///< distinct meeting keys (exact)
  std::uint32_t participants = 0;  ///< max concurrent lower bound
  std::uint8_t saw_p2p = 0;
  std::uint64_t media_packets = 0;
  std::uint64_t media_payload_bytes = 0;
  std::uint64_t received = 0;
  std::uint64_t unique_packets = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t gap_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t frames = 0;
  std::uint64_t talk_seconds = 0;

  bool operator==(const QueryGroup&) const = default;
};

struct QueryResult {
  QueryRequest request;
  std::uint64_t epochs = 0;  ///< distinct (site, epoch seq) pairs seen
  std::vector<QueryGroup> groups;  ///< sorted by key ascending
  // Provenance, deliberately excluded from encode_query_result() so the
  // journal path and the recompute reference path (which never scans a
  // file) can be compared byte-for-byte.
  std::uint64_t records_read = 0;
  std::uint64_t records_corrupt = 0;

  bool operator==(const QueryResult&) const = default;
};

/// Deterministic encoding of a result (request in canonical text form,
/// epochs, groups in key order). Two results that encode equal are the
/// same answer — this is the bit-identity oracle used by tests and
/// bench_query.
void encode_query_result(const QueryResult& result, util::ByteWriter& w);

/// Human-readable rendering: summary line, then one block per group
/// with p50/p90/p99 (bucket upper bounds) and the non-empty CDF rows.
[[nodiscard]] std::string render_query_result(const QueryResult& result);

/// Upper bound (µs or kbit/s — bucket units) below which at least
/// fraction `q` (0..1] of the histogram's samples fall; 0 when empty.
[[nodiscard]] std::uint64_t histogram_quantile_upper(
    const capture::OffloadHistogram& hist, double q);

/// Streaming aggregator. begin() resets but keeps all table capacity,
/// so a reused engine's add_slice() path allocates only while tables
/// grow past their historical high-water mark — zero in steady state.
class QueryEngine {
 public:
  /// `site_names[i]` labels site index i (shown when grouping by site;
  /// sites are identified by index everywhere else).
  void begin(const QueryRequest& request,
             std::span<const std::string> site_names);
  /// Folds one record's rows into the groups. Slices must arrive
  /// grouped by (site, seq) — the k-way merge order and the recompute
  /// path's natural order both satisfy this — so epoch counting is a
  /// transition count, not a set.
  void add_slice(const EpochSlice& slice, std::uint32_t site);
  /// Sorts groups by key and moves the aggregate into `out`.
  void finish(QueryResult& out);

 private:
  /// Open-addressed u64 -> u32 map with power-of-two probing; grows
  /// only, never shrinks (steady-state zero-alloc).
  class FlatMap {
   public:
    void clear();
    /// Returns the value for `key`, inserting `fresh` when absent;
    /// `inserted` reports which happened.
    std::uint32_t find_or_insert(std::uint64_t key, std::uint32_t fresh,
                                 bool& inserted);

   private:
    void grow();
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> vals_;
    std::vector<std::uint8_t> used_;
    std::size_t size_ = 0;
  };

  QueryGroup& group_for(std::uint64_t key, std::uint32_t site);
  [[nodiscard]] bool meeting_excluded(std::uint64_t meeting_key) const;

  QueryRequest request_;
  std::vector<std::string> site_names_;
  std::vector<QueryGroup> groups_;
  FlatMap group_index_;    ///< group key -> index into groups_
  FlatMap distinct_;       ///< mix(group key, meeting key) -> 1 (set)
  std::uint64_t epochs_ = 0;
  bool any_epoch_ = false;
  std::uint32_t last_site_ = 0;
  std::uint64_t last_seq_ = 0;
};

/// Answers `request` from already-open readers; `site_of[i]` maps
/// reader i to its site index and `site_names` labels the sites (pass
/// one name per site; readers of the same site share an index). Records
/// outside the window are never decoded; when the request filters to
/// one meeting and a reader has a footer dictionary, records without
/// that meeting are skipped too. Corrupt records are counted in
/// `out.records_corrupt`, never fatal.
bool run_query(const QueryRequest& request,
               std::span<JournalReader* const> readers,
               std::span<const std::uint32_t> site_of,
               std::span<const std::string> site_names, QueryResult& out,
               std::string* error);

/// Open journals and their site indexes — run_query's inputs, gathered
/// one way for zpm_query's explicit files, its MANIFEST mode and
/// run_query_on_manifest.
class JournalSet {
 public:
  /// Opens `path` under `site` (empty: the site its header names); each
  /// new site name gets the next index. False, with `error` set, when
  /// the journal cannot be read. A file the set already holds (same
  /// device and inode, whatever the path spelling) is skipped: true,
  /// with `*duplicate` set, so no record is counted twice.
  bool open(const std::string& path, const std::string& site,
            std::string* error, bool* duplicate = nullptr);
  /// Opens every journal in `manifest` (paths relative to `dir`) whose
  /// span can overlap `request`'s window. Unreadable journals are
  /// counted in `skipped`, not fatal — unless *all* fail; an entry
  /// naming a file already open is skipped silently.
  bool open_manifest(const QueryRequest& request, const Manifest& manifest,
                     const std::string& dir, std::size_t* skipped,
                     std::string* error);
  /// run_query over the open journals; the records their scans found
  /// corrupt are added to `out.records_corrupt`.
  bool query(const QueryRequest& request, QueryResult& out,
             std::string* error) const;
  /// One "<path>: site=.. shards=.. records=.. indexed|scanned
  /// corrupt=.. skipped_bytes=.." line per open journal (--stats).
  [[nodiscard]] std::string render_stats() const;
  [[nodiscard]] bool empty() const { return readers_.empty(); }

 private:
  /// Device and inode of an open journal (0/0 where stat is unavailable).
  struct FileId {
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
  };

  std::vector<std::unique_ptr<JournalReader>> owned_;
  std::vector<JournalReader*> readers_;
  std::vector<std::string> paths_;
  std::vector<FileId> ids_;
  std::vector<std::uint32_t> site_of_;
  std::vector<std::string> site_names_;
};

/// JournalSet::open_manifest, then JournalSet::query.
bool run_query_on_manifest(const QueryRequest& request, const Manifest& manifest,
                           const std::string& dir, QueryResult& out,
                           std::size_t* skipped, std::string* error);

}  // namespace zpm::query
