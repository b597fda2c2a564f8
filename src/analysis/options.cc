#include "analysis/options.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>

#include "overload/governor.h"
#include "util/strings.h"

namespace zpm::analysis {

namespace {

/// What a malformed value of each kind should have looked like.
constexpr const char* kWants[] = {
    "0 or 1", "an unsigned integer", "a positive integer",
    "a hexadecimal integer", "a number", "a number of seconds",
    "a byte count like 4M or 262144", "a value",
    "\"begin-end:pressure[,...]\" over packet indices"};
const char* wants(OptionKind kind) { return kWants[static_cast<int>(kind)]; }

/// Stores an integer into a 64- or 32-bit field; false if it does not fit.
bool put(const Option& opt, std::uint64_t v) {
  if (auto* narrow = std::get_if<std::uint32_t*>(&opt.field)) {
    if (v > UINT32_MAX) return false;
    **narrow = static_cast<std::uint32_t>(v);
  } else {
    *std::get<std::uint64_t*>(opt.field) = v;
  }
  return true;
}

/// Parses `text` as `opt.kind` and stores it; false leaves the field
/// untouched.
bool store(const Option& opt, std::string_view text) {
  std::uint64_t n = 0;
  double x = 0;
  switch (opt.kind) {
    case OptionKind::Flag:
      if (text != "0" && text != "1") return false;
      *std::get<bool*>(opt.field) = text == "1";
      return true;
    case OptionKind::Unsigned: return parse_whole(text, n) && put(opt, n);
    case OptionKind::Count: return parse_whole(text, n) && n > 0 && put(opt, n);
    case OptionKind::Hex:
      if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
      return parse_whole(text, n, 16) && put(opt, n);
    case OptionKind::ByteSize:
      n = util::parse_byte_size(text);
      return n > 0 && put(opt, n);
    case OptionKind::Double:
      if (!parse_whole(text, x) || !std::isfinite(x)) return false;
      *std::get<double*>(opt.field) = x;
      return true;
    case OptionKind::Seconds:  // bounded so the microseconds fit an int64
      if (!parse_whole(text, x) || !(std::abs(x) < 9e12)) return false;
      *std::get<util::Duration*>(opt.field) = util::Duration::seconds(x);
      return true;
    case OptionKind::Schedule:
      if (!overload::PressureSchedule().parse(std::string(text))) return false;
      [[fallthrough]];
    case OptionKind::String:
      *std::get<std::string*>(opt.field) = text;
      return true;
  }
  return false;
}

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t\r") - b + 1);
}

}  // namespace

OptionTable for_surface(OptionTable rows, Surface surface) {
  std::erase_if(rows, [&](Option& row) {
    if (row.surfaces & surface) return false;
    row.flag = nullptr;
    return row.key == nullptr;
  });
  return rows;
}

ParsedArgs parse_args(const OptionTable& table, std::span<char* const> args) {
  ParsedArgs out;
  for (std::size_t i = 0; i < args.size() && out.error.empty(); ++i) {
    const std::string_view arg = args[i];
    const auto row = std::ranges::find_if(
        table, [&](const Option& o) { return o.flag != nullptr && arg == o.flag; });
    if (row == table.end()) {
      out.error = "unknown option " + std::string(arg);
    } else if (row->kind != OptionKind::Flag &&
               (i + 1 == args.size() || !store(*row, args[++i]))) {
      out.error = std::string(arg) + " wants " + wants(row->kind);
    } else {
      if (row->kind == OptionKind::Flag) *std::get<bool*>(row->field) = row->set;
      if (row->implies != nullptr) *row->implies = true;
      out.given.insert(row->flag);
    }
  }
  return out;
}

std::vector<std::string> parse_config(const OptionTable& table, std::istream& in) {
  std::vector<std::string> errors;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view text = trim(line);
    const std::size_t eq = text.find('=');
    if (text.empty() || text.front() == '#' || eq == std::string_view::npos) continue;
    const std::string key(trim(text.substr(0, eq)));
    const auto row = std::ranges::find_if(
        table, [&](const Option& o) { return o.key != nullptr && key == o.key; });
    if (row == table.end())
      errors.push_back("unknown key '" + key + "' ignored");
    else if (!store(*row, trim(text.substr(eq + 1))))
      errors.push_back(key + " wants " + wants(row->kind) + "; key ignored");
  }
  return errors;
}

std::string usage(const OptionTable& table, std::string_view synopsis) {
  std::string out = "usage: " + std::string(synopsis) + "\n";
  for (const auto& row : table) {
    if (row.flag == nullptr) continue;
    std::string flag = row.flag;
    flag.resize(std::max<std::size_t>(flag.size(), 20), ' ');
    out += "  " + flag + " " + row.help + "\n";
  }
  return out;
}

int usage_error(const OptionTable& table, std::string_view error,
                std::string_view synopsis) {
  if (!error.empty())
    std::fprintf(stderr, "%.*s\n", static_cast<int>(error.size()), error.data());
  std::fprintf(stderr, "%s", usage(table, synopsis).c_str());
  return 2;
}

OptionTable engine_options(EpochEngineConfig& c) {
  using K = OptionKind;
  constexpr std::uint8_t kFiles = kAnalyze | kPcap;
  constexpr std::uint8_t kGoverned = kAnalyze | kDaemon;
  auto& gov = c.overload.governor;
  return {
      {"--threads", nullptr, K::Count, &c.shards, kGoverned,
       "<n> analyzer shards (default 1; same results)"},
      {"--epoch-packets", "epoch_packets", K::Unsigned, &c.limits.max_packets,
       kDaemon, "<n> packets per epoch (0 = off; default 1000000)"},
      {"--epoch-seconds", "epoch_seconds", K::Seconds, &c.limits.max_span,
       kDaemon, "<s> capture seconds per epoch (0 = off; default 60)"},
      {"--p2p-timeout", "p2p_timeout_seconds", K::Seconds,
       &c.analyzer.p2p_timeout, kAnalyze, "<s> STUN candidate lifetime (default 60)"},
      {"--strict", nullptr, K::Flag, &c.analyzer.strict, kAnalyze,
       "exit 3 if a record was malformed (names the first)"},
      {"--no-frontend", "frontend", K::Flag, &c.frontend, kFiles | kDaemon,
       "decode every packet fully (same results)", false},
      {"--flow-memory-budget", "flow_memory_budget", K::ByteSize,
       &c.flow_memory_budget, kFiles | kDaemon,
       "<bytes> sketch tier budget, K/M/G (default 1M)"},
      {"--dataplane-offload", nullptr, K::Flag, &c.dataplane_offload,
       kFiles | kDaemon, "RTT/jitter histograms in the front end"},
      {"--overload", nullptr, K::Flag, &c.overload.enabled, kGoverned,
       "run under the overload governor (--live default)"},
      {"--no-overload", nullptr, K::Flag, &c.overload.enabled, kDaemon,
       "run without the overload governor", false},
      {"--overload-inject", nullptr, K::Schedule, &c.overload.inject, kGoverned,
       "<spec> pressure begin-end:p[,...]; implies --overload", true,
       &c.overload.enabled},
      {"--overload-window", nullptr, K::Unsigned, &c.overload.window_packets,
       kGoverned, "<pkts> packets per observation (default 2048)"},
      {"--overload-high", "overload_high_watermark", K::Double,
       &gov.high_watermark, kDaemon, "<x> escalation watermark (default 0.85)"},
      {"--overload-low", "overload_low_watermark", K::Double, &gov.low_watermark,
       kDaemon, "<x> recovery watermark (default 0.35)"},
      {nullptr, "overload_alpha", K::Double, &gov.alpha, 0, "EWMA smoothing"},
      {nullptr, "overload_escalate_after", K::Unsigned, &gov.escalate_after, 0,
       "observations over the high watermark to escalate"},
      {nullptr, "overload_recover_after", K::Unsigned, &gov.recover_after, 0,
       "observations under the low watermark to recover"},
      {"--bounded-push", nullptr, K::Flag, &c.bounded_dispatch, kDaemon,
       "shed, not block, on a full ring (--live: always)"},
      {"--slow-shard", nullptr, K::Unsigned, &c.fault_slow_shard, kDaemon,
       "<i> fault: shard i sleeps per batch"},
      {"--slow-us", nullptr, K::Unsigned, &c.fault_slow_us, kDaemon,
       "<us> the slow shard's sleep (default 100)"},
      {"--no-journal", nullptr, K::Flag, &c.collect_journal, kDaemon,
       "no metric journal in --report-dir", false},
  };
}

OptionTable file_run_options(FileRunSettings& s, Surface surface) {
  using K = OptionKind;
  constexpr std::uint8_t kFiles = kAnalyze | kPcap;
  OptionTable rows = engine_options(s.engine);
  rows.insert(rows.end(), {
      {"--csv", nullptr, K::String, &s.csv_prefix, kAnalyze,
       "<prefix> write <prefix>_{streams,seconds,meetings}.csv"},
      {"--anon-key", nullptr, K::Hex, &s.anon_key, kAnalyze,
       "<hex> key the capture was anonymized with"},
      {"--corrupt", nullptr, K::Unsigned, &s.corrupt_seed, kAnalyze,
       "<seed> inject hostile faults into the input first"},
      {"--no-sketch", nullptr, K::Flag, &s.sketch, kFiles,
       "no sketch tier (budget 0; same results)", false},
      {"--frontend-stats", nullptr, K::Flag, &s.frontend_stats, kFiles,
       "print the front end's verdict counters"},
      {"--sketch-stats", nullptr, K::Flag, &s.sketch_stats, kFiles,
       "print the sketch tier's volume and heavy hitters"},
      {"--offload-stats", nullptr, K::Flag, &s.offload_stats, kAnalyze,
       "print the offload's histograms and accounting"},
  });
  return for_surface(std::move(rows), surface);
}

OptionTable trace_options(TraceSettings& s) {
  using K = OptionKind;
  return {
      {"--minutes", nullptr, K::Double, &s.minutes, kTrace,
       "<m> simulated minutes (default 10)"},
      {"--meetings", nullptr, K::Double, &s.meetings, kTrace,
       "<n> meetings per peak hour (default 6)"},
      {"--background", nullptr, K::Double, &s.background, kTrace,
       "<ratio> background traffic ratio (default 1)"},
      {"--seed", nullptr, K::Unsigned, &s.seed, kTrace, "<n> RNG seed (default 42)"},
      {"--burst", nullptr, K::Double, &s.burst_s, kTrace,
       "<period-s> square-wave background overlay"},
      {"--burst-flows", nullptr, K::Unsigned, &s.burst_flows, kTrace,
       "<n> flows in the overlay (default 20000)"},
  };
}

}  // namespace zpm::analysis
