// zpm_query — sub-linear time-windowed CDF/summary queries over the
// metric journals a campus_monitor daemon leaves in its report
// directory (the query half of the CoMo-style export/query split; see
// docs/DESIGN.md "Query/export architecture" and docs/WIRE_FORMAT.md
// for the journal layout).
//
// Usage: zpm_query --dir <report-dir> [query flags]      (MANIFEST mode)
//        zpm_query <journal.zpmj>... [query flags]       (explicit files)
//
// The flags are the kQuery rows of the option table in
// src/analysis/options.h; a usage error prints their usage text. The
// key flags (--from, --to, --metric, --group, --meeting) and the fields
// of a --query spec apply in command-line order, so the last setting of
// a field wins: `--query "metric=jitter;from=5" --from 9` asks from 9,
// and a key flag given before --query keeps its value unless the spec
// names that field too.
//
// The window selects whole epochs by span overlap — the epoch is the
// aggregation quantum. Journals are mmap'd and their footer indexes
// binary-searched, so a narrow window over a long journal only decodes
// the overlapping records; journals that lost their index (crash)
// are scanned with per-record CRC resync, and anything skipped is
// accounted, never silently dropped. Results merge exactly across
// shards and sites (additive histograms/counters, stable meeting keys).
//
// Exit codes: 0 ok, 1 no readable input, 2 usage.
#include <cstdio>
#include <string>

#include "analysis/options.h"
#include "query/query.h"

using namespace zpm;

int main(int argc, char** argv) {
  analysis::QuerySettings opts;
  const auto table = analysis::query_options(opts);
  const char* synopsis = "zpm_query (--dir <report-dir> | <journal.zpmj>...) [options]";
  const auto args = analysis::parse_args(table, {argv + 1, argv + argc}, true);
  if (!args.error.empty()) return analysis::usage_error(table, args.error, synopsis);
  if (opts.dir.empty() == args.positionals.empty())
    return analysis::usage_error(table, "", synopsis);
  const query::QueryRequest& request = opts.request;
  if (request.from_us > request.to_us) {
    std::fprintf(stderr, "empty window: --from is after --to\n");
    return 2;
  }

  query::JournalSet journals;
  std::string error;
  if (!opts.dir.empty()) {
    query::Manifest manifest;
    std::size_t skipped = 0;
    if (!query::load_manifest(opts.dir, manifest, &error) ||
        !journals.open_manifest(request, manifest, opts.dir, &skipped, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    if (skipped > 0)
      std::fprintf(stderr, "warning: %zu unreadable journal(s) skipped\n",
                   skipped);
  } else {
    for (const auto path : args.positionals) {
      bool duplicate = false;
      if (!journals.open(std::string(path), "", &error, &duplicate))
        std::fprintf(stderr, "warning: %.*s: %s\n", static_cast<int>(path.size()),
                     path.data(), error.c_str());
      else if (duplicate)
        std::fprintf(stderr,
                     "warning: %.*s: already named, counted once\n",
                     static_cast<int>(path.size()), path.data());
    }
    if (journals.empty()) {
      std::fprintf(stderr, "error: no readable journals\n");
      return 1;
    }
  }
  if (opts.stats) std::fputs(journals.render_stats().c_str(), stderr);

  query::QueryResult result;
  if (!journals.query(request, result, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fputs(query::render_query_result(result).c_str(), stdout);
  return 0;
}
