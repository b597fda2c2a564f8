// The option table (analysis/options.h): strict value parsing, config
// files, and the frozen inventory of every surface's flags and keys.
#include "analysis/options.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campus_run.h"
#include "analysis/daemon.h"

namespace zpm::analysis {
namespace {

/// parse_args over a token list (no program name).
ParsedArgs parse(const OptionTable& table, std::vector<std::string> tokens) {
  std::vector<char*> argv;
  for (auto& t : tokens) argv.push_back(t.data());
  return parse_args(table, argv);
}

std::vector<std::string> parse_text(const OptionTable& table, const std::string& text) {
  std::istringstream in(text);
  return parse_config(table, in);
}

std::set<std::string> flags_of(const OptionTable& table) {
  std::set<std::string> out;
  for (const auto& row : table) {
    if (row.flag == nullptr) continue;
    EXPECT_TRUE(out.insert(row.flag).second) << "duplicate " << row.flag;
  }
  return out;
}

std::set<std::string> keys_of(const OptionTable& table) {
  std::set<std::string> out;
  for (const auto& row : table) {
    if (row.key == nullptr) continue;
    EXPECT_TRUE(out.insert(row.key).second) << "duplicate " << row.key;
  }
  return out;
}

struct Fields {
  std::uint64_t u64 = 7;
  std::uint32_t u32 = 7;
  std::uint64_t count = 7;
  std::uint64_t hex = 7;
  std::uint64_t bytes = 7;
  double x = 7.0;
  util::Duration secs = util::Duration::seconds(7);
  bool on = true;
  std::string schedule = "keep";
};

OptionTable kinds_table(Fields& f) {
  using K = OptionKind;
  return {
      {"--u64", "u64", K::Unsigned, &f.u64, kDaemon, ""},
      {"--u32", "u32", K::Unsigned, &f.u32, kDaemon, ""},
      {"--count", "count", K::Count, &f.count, kDaemon, ""},
      {"--hex", "hex", K::Hex, &f.hex, kDaemon, ""},
      {"--bytes", "bytes", K::ByteSize, &f.bytes, kDaemon, ""},
      {"--x", "x", K::Double, &f.x, kDaemon, ""},
      {"--secs", "secs", K::Seconds, &f.secs, kDaemon, ""},
      {"--off", "on", K::Flag, &f.on, kDaemon, "", false},
      {"--schedule", nullptr, K::Schedule, &f.schedule, kDaemon, ""},
  };
}

TEST(Options, IntegerKindsRejectMalformedValues) {
  for (const char* flag : {"--u64", "--u32", "--count", "--bytes"}) {
    for (const char* bad : {"1e5", "abc", "", "-1", "18446744073709551616",
                            "99999999999999999999999", " 5", "5 ", "+5"}) {
      Fields f;
      const auto args = parse(kinds_table(f), {flag, bad});
      EXPECT_EQ(args.error.rfind(std::string(flag) + " wants ", 0), 0u)
          << flag << " accepted '" << bad << "'";
      EXPECT_EQ(f.u64 + f.u32 + f.count + f.bytes, 28u) << flag << " " << bad;
    }
  }
  for (const char* bad : {"zz", "", "-1", "0x", "0xg", "1ffffffffffffffff", " 5"}) {
    Fields f;
    EXPECT_EQ(parse(kinds_table(f), {"--hex", bad}).error,
              "--hex wants a hexadecimal integer") << bad;
    EXPECT_EQ(f.hex, 7u);
  }
}

TEST(Options, IntegerKindsParseWholeValues) {
  Fields f;
  const auto args = parse(kinds_table(f), {"--u64", "18446744073709551615", "--u32",
                                           "4294967295", "--count", "3", "--hex",
                                           "0x5eedcafef00dd00d", "--bytes", "4M"});
  ASSERT_EQ(args.error, "");
  EXPECT_EQ(f.u64, UINT64_MAX);
  EXPECT_EQ(f.u32, UINT32_MAX);
  EXPECT_EQ(f.count, 3u);
  EXPECT_EQ(f.hex, 0x5eedcafef00dd00dULL);
  EXPECT_EQ(f.bytes, std::uint64_t{4} << 20);

  // Width and range: u32 overflow, a zero count, a zero byte size.
  EXPECT_NE(parse(kinds_table(f), {"--u32", "4294967296"}).error, "");
  EXPECT_EQ(parse(kinds_table(f), {"--count", "0"}).error,
            "--count wants a positive integer");
  EXPECT_NE(parse(kinds_table(f), {"--bytes", "0"}).error, "");
}

TEST(Options, DoubleAndSecondsRejectTrailingJunk) {
  for (const char* flag : {"--x", "--secs"}) {
    for (const char* bad : {"1.5x", "2s", "xyz", "", "1.5 ", "nan", "inf", "1e400"}) {
      Fields f;
      EXPECT_NE(parse(kinds_table(f), {flag, bad}).error, "") << flag << " " << bad;
      EXPECT_EQ(f.x, 7.0);
      EXPECT_EQ(f.secs, util::Duration::seconds(7));
    }
  }
  Fields f;
  ASSERT_EQ(parse(kinds_table(f), {"--x", "1e5", "--secs", "0.25"}).error, "");
  EXPECT_EQ(f.x, 1e5);
  EXPECT_EQ(f.secs, util::Duration::millis(250));
}

TEST(Options, FlagsMissingValuesAndUnknownOptions) {
  Fields f;
  auto args = parse(kinds_table(f), {"--off", "--u64"});
  EXPECT_EQ(args.error, "--u64 wants an unsigned integer");
  EXPECT_FALSE(f.on);  // the flag before the error was applied
  EXPECT_EQ(parse(kinds_table(f), {"--bogus"}).error, "unknown option --bogus");
  EXPECT_NE(parse(kinds_table(f), {"--schedule", "10-5:x"}).error, "");
  EXPECT_EQ(f.schedule, "keep");

  args = parse(kinds_table(f), {"--schedule", "0-100:0.9", "--off"});
  ASSERT_EQ(args.error, "");
  EXPECT_EQ(f.schedule, "0-100:0.9");
  EXPECT_TRUE(args.given.contains("--schedule"));
  EXPECT_TRUE(args.given.contains("--off"));
  EXPECT_FALSE(args.given.contains("--u64"));
}

TEST(Options, ConfigLinesTrimSkipCommentsAndRejectMalformedValues) {
  Fields f;
  const auto errors = parse_text(kinds_table(f),
                                 "# a comment\n"
                                 "\n"
                                 "   u64   =  42  \r\n"
                                 "\tsecs=1.5\n"
                                 "  # u32 = 9\n"
                                 "no equals sign here\n"
                                 "on = false\n"
                                 "count = 1e5\n"
                                 "bytes = 4M\n"
                                 "mystery = 1\n");
  EXPECT_EQ(f.u64, 42u);
  EXPECT_EQ(f.secs, util::Duration::seconds(1.5));
  EXPECT_EQ(f.u32, 7u);
  EXPECT_TRUE(f.on);  // "false" is not 0 or 1: ignored
  EXPECT_EQ(f.count, 7u);
  EXPECT_EQ(f.bytes, std::uint64_t{4} << 20);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0], "on wants 0 or 1; key ignored");
  EXPECT_EQ(errors[1], "count wants a positive integer; key ignored");
  EXPECT_EQ(errors[2], "unknown key 'mystery' ignored");
  EXPECT_TRUE(parse_text(kinds_table(f), "on = 0\n").empty());
  EXPECT_FALSE(f.on);
}

TEST(Options, ConfigFileLandsInEngineAndDaemonFields) {
  DaemonConfig cfg;
  const auto errors = parse_text(daemon_options(cfg),
                                 "epoch_packets = 800\n"
                                 "epoch_seconds = 2.5\n"
                                 "watchdog_seconds = 9\n"
                                 "p2p_timeout_seconds = 30\n"
                                 "frontend = 0\n"
                                 "flow_memory_budget = 4M\n"
                                 "overload_high_watermark = 0.9\n"
                                 "overload_low_watermark = 0.2\n"
                                 "overload_alpha = 0.5\n"
                                 "overload_escalate_after = 3\n"
                                 "overload_recover_after = 6\n");
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(cfg.engine.limits.max_packets, 800u);
  EXPECT_EQ(cfg.engine.limits.max_span, util::Duration::seconds(2.5));
  EXPECT_EQ(cfg.watchdog, util::Duration::seconds(9));
  EXPECT_EQ(cfg.engine.analyzer.p2p_timeout, util::Duration::seconds(30));
  EXPECT_FALSE(cfg.engine.frontend);
  EXPECT_EQ(cfg.engine.flow_memory_budget, std::size_t{4} << 20);
  const auto& gov = cfg.engine.overload.governor;
  EXPECT_EQ(gov.high_watermark, 0.9);
  EXPECT_EQ(gov.low_watermark, 0.2);
  EXPECT_EQ(gov.alpha, 0.5);
  EXPECT_EQ(gov.escalate_after, 3u);
  EXPECT_EQ(gov.recover_after, 6u);

  // Argv-only settings are not config keys.
  DaemonConfig other;
  EXPECT_EQ(parse_text(daemon_options(other), "threads = 4\nsnapshot = x\n").size(),
            2u);
  EXPECT_EQ(other.engine.shards, 1u);
}

TEST(Options, SharedEngineRowsRejectZeroThreadsOnEverySurface) {
  FileRunSettings file;
  EXPECT_EQ(parse(file_run_options(file, kAnalyze), {"--threads", "0"}).error,
            "--threads wants a positive integer");
  DaemonConfig cfg;
  EXPECT_EQ(parse(daemon_options(cfg), {"--threads", "0"}).error,
            "--threads wants a positive integer");
  EXPECT_EQ(parse(daemon_options(cfg), {"--epoch-packets", "1e5"}).error,
            "--epoch-packets wants an unsigned integer");
  // A flag is accepted only on the surfaces its row names.
  EXPECT_EQ(parse(daemon_options(cfg), {"--p2p-timeout", "30"}).error,
            "unknown option --p2p-timeout");
  EXPECT_EQ(parse(file_run_options(file, kPcap), {"--threads", "2"}).error,
            "unknown option --threads");
}

TEST(Options, OverloadFlagsApplyInOrder) {
  DaemonConfig cfg;
  const auto table = daemon_options(cfg);
  ASSERT_EQ(parse(table, {"--no-overload", "--overload-inject", "0-9:1"}).error, "");
  EXPECT_TRUE(cfg.engine.overload.enabled);  // the schedule implies --overload
  ASSERT_EQ(parse(table, {"--overload-inject", "0-9:1", "--no-overload"}).error, "");
  EXPECT_FALSE(cfg.engine.overload.enabled);
}

// Every row accepts a well-formed value of its kind: the field it
// binds has the type its kind writes.
TEST(Options, EveryRowStoresAValueOfItsKind) {
  FileRunSettings file;
  TraceSettings trace;
  DaemonConfig daemon;
  DaemonSource source;
  std::vector<OptionTable> tables = {file_run_options(file, kAnalyze),
                                     file_run_options(file, kPcap),
                                     trace_options(trace),
                                     daemon_options(daemon, &source)};
  for (const auto& table : tables) {
    for (const auto& row : table) {
      if (row.flag == nullptr) continue;
      std::vector<std::string> tokens = {row.flag};
      switch (row.kind) {
        case OptionKind::Flag: break;
        case OptionKind::Schedule: tokens.push_back("0-10:0.5"); break;
        case OptionKind::ByteSize: tokens.push_back("64K"); break;
        default: tokens.push_back("3"); break;
      }
      EXPECT_EQ(parse(table, tokens).error, "") << row.flag;
    }
    const std::string text = usage(table, "prog [options]");
    for (const auto& flag : flags_of(table))
      EXPECT_NE(text.find("  " + flag), std::string::npos) << flag;
  }
  for (const auto& key : keys_of(daemon_options(daemon))) {
    const std::string value = key == "frontend" ? "1" : "3";
    EXPECT_TRUE(parse_text(daemon_options(daemon), key + " = " + value).empty()) << key;
  }
}

// The frozen option inventory: a flag or key added, removed or renamed
// on any surface has to show up here as a reviewed change.
TEST(Options, FrozenInventory) {
  FileRunSettings file;
  const std::set<std::string> analyze = {
      "--threads", "--csv", "--p2p-timeout", "--anon-key", "--strict",
      "--corrupt", "--no-frontend", "--frontend-stats", "--flow-memory-budget",
      "--no-sketch", "--sketch-stats", "--overload", "--overload-inject",
      "--overload-window", "--dataplane-offload", "--offload-stats"};
  EXPECT_EQ(analyze.size(), 16u);
  EXPECT_EQ(flags_of(file_run_options(file, kAnalyze)), analyze);

  const std::set<std::string> pcap = {
      "--no-frontend", "--frontend-stats", "--flow-memory-budget",
      "--no-sketch", "--sketch-stats", "--dataplane-offload"};
  EXPECT_EQ(pcap.size(), 6u);
  EXPECT_EQ(flags_of(file_run_options(file, kPcap)), pcap);

  TraceSettings trace;
  const std::set<std::string> make_trace = {
      "--minutes", "--meetings", "--background", "--seed", "--burst",
      "--burst-flows"};
  EXPECT_EQ(make_trace.size(), 6u);
  EXPECT_EQ(flags_of(trace_options(trace)), make_trace);

  DaemonConfig cfg;
  DaemonSource source;
  const std::set<std::string> daemon = {
      "--replay", "--live", "--loops", "--pace-pps", "--stall-after",
      "--epoch-packets", "--epoch-seconds", "--snapshot", "--report-dir",
      "--site", "--no-journal", "--config", "--watchdog-seconds", "--threads",
      "--halt-after-epochs", "--no-frontend", "--flow-memory-budget", "--quiet",
      "--overload", "--no-overload", "--overload-window", "--overload-inject",
      "--overload-high", "--overload-low", "--bounded-push", "--slow-shard",
      "--slow-us", "--dataplane-offload"};
  EXPECT_EQ(daemon.size(), 28u);
  EXPECT_EQ(flags_of(daemon_options(cfg, &source)), daemon);

  const std::set<std::string> keys = {
      "epoch_packets", "epoch_seconds", "watchdog_seconds",
      "p2p_timeout_seconds", "frontend", "flow_memory_budget",
      "overload_high_watermark", "overload_low_watermark", "overload_alpha",
      "overload_escalate_after", "overload_recover_after"};
  EXPECT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys_of(daemon_options(cfg)), keys);
  EXPECT_EQ(keys_of(daemon_options(cfg, &source)), keys);
}

/// default_campus_config() with one environment variable set (or
/// cleared), restoring whatever the process had before.
CampusRunConfig campus_config_with(const char* name, const char* value) {
  const char* before = std::getenv(name);
  const std::optional<std::string> saved =
      before ? std::optional<std::string>(before) : std::nullopt;
  if (value != nullptr) setenv(name, value, 1);
  else unsetenv(name);
  const CampusRunConfig config = default_campus_config();
  if (saved) setenv(name, saved->c_str(), 1);
  else unsetenv(name);
  return config;
}

TEST(Options, CampusEnvironmentParsedStrictly) {
  const auto hours = [](const char* value) {
    return campus_config_with("ZPM_CAMPUS_HOURS", value).campus.duration;
  };
  const util::Duration day = hours(nullptr);
  EXPECT_EQ(day, util::Duration::seconds(12 * 3600.0));
  EXPECT_EQ(hours("0.5"), util::Duration::seconds(1800.0));
  for (const char* bad : {"abc", "-1", "0", "2h", "", "inf", "nan", "1e300"})
    EXPECT_EQ(hours(bad), day) << "ZPM_CAMPUS_HOURS=" << bad;

  const auto threads = [](const char* value) {
    return campus_config_with("ZPM_ANALYSIS_THREADS", value).analysis_threads;
  };
  const std::size_t serial = threads(nullptr);
  EXPECT_EQ(threads("3"), 3u);
  for (const char* bad : {"4x", "-2", "0", " 4", "four"})
    EXPECT_EQ(threads(bad), serial) << "ZPM_ANALYSIS_THREADS=" << bad;

  const auto meetings = [](const char* value) {
    return campus_config_with("ZPM_CAMPUS_SCALE", value)
        .campus.meetings_per_peak_hour;
  };
  EXPECT_DOUBLE_EQ(meetings("2"), 2 * meetings(nullptr));
  EXPECT_DOUBLE_EQ(meetings("x2"), meetings(nullptr));
  EXPECT_DOUBLE_EQ(meetings("-1"), meetings(nullptr));
}

}  // namespace
}  // namespace zpm::analysis
