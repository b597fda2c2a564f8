// The query half of the benchmark: the request plan over a report
// directory's journals, the closed-loop query client, the query-layer
// probes and the recompute correctness gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/epoch.h"
#include "query/query.h"
#include "support.h"

namespace zpm::perfbench {

/// A trace and the site label its journal was written under.
struct SiteTrace {
  std::string trace_path;
  std::string site;
};

/// One distinct request of the plan.
struct PlannedQuery {
  std::string dir;  ///< report directory holding the MANIFEST
  query::QueryRequest request;
  /// Records the journal path must decode (window-overlapping records
  /// over every journal the MANIFEST lists).
  std::uint64_t overlapping = 0;
  /// Records a reader must touch: `overlapping` plus every record of
  /// each unsealed segment it opens (those are scanned at open).
  std::uint64_t touched = 0;
  /// Traces whose recompute is the reference answer: one, or one per
  /// site for a group=site request (site index = position).
  std::vector<SiteTrace> reference;
};

struct QueryPlan {
  std::vector<PlannedQuery> window;  ///< one epoch, group=meeting, sealed
  std::vector<PlannedQuery> range;   ///< full sealed span, group=site
  std::vector<PlannedQuery> live;    ///< one epoch of the unsealed segment
};

/// Where the journals are. `sealed_dir`'s MANIFEST lists one sealed
/// journal per `sealed_sites` entry; `live_dir`'s MANIFEST (possibly the
/// same directory) lists `live_site`'s unsealed segment of
/// `live_epochs` epochs, later in capture time than every sealed one.
struct QueryTarget {
  std::string sealed_dir;
  std::vector<SiteTrace> sealed_sites;
  std::string live_dir;
  SiteTrace live_site;
  std::uint64_t live_epochs = 0;
};

bool plan_queries(const QueryTarget& target, Ledger& ledger, QueryPlan& out);

/// Full-range (all time, group=meeting) request over `dir`, answered by
/// recomputing `trace`.
PlannedQuery full_range_query(const std::string& dir, const SiteTrace& trace);

/// Per query pass: each class's percentiles over that pass's samples.
struct QueryTimes {
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> range_p50_us;
  std::vector<double> live_p50_us;
  std::vector<double> steal;  ///< machine steal share over the pass
  std::uint64_t samples = 0;
};

/// One query pass of a closed-loop client: each request (MANIFEST load
/// + manifest query) is sent when the previous one returned. The pass
/// cycles 40 window requests, one range and one live request, 28 times:
/// 1120 window samples, so the pass's p99 has eleven beyond it, and 28
/// of each other class.
void query_pass(const QueryPlan& plan, Ledger& ledger, QueryTimes& out);

/// Query-layer figures from the traced probes.
struct QueryProbe {
  double manifest_load_us = 0;
  double open_us = 0;
  double select_us = 0;
  double records_read_per_query = 0;
  double useful_record_ratio = 0;
  double decode_us_per_record = 0;
  double merge_us_per_record = 0;
};

bool query_probes(const QueryPlan& plan, Ledger& ledger, Tracer& tracer,
                  QueryProbe& out);

/// Answers each request from the journals and compares the
/// encode_query_result() bytes with analysis::recompute_query_result
/// over the reference traces. One ledger operation per request.
bool check_queries(const std::vector<PlannedQuery>& queries,
                   const analysis::EpochEngineConfig& engine_config,
                   Ledger& ledger);

}  // namespace zpm::perfbench
