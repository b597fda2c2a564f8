// One declarative option table behind every configuration surface:
// zpm_analyze, campus_monitor's --pcap / --make-trace / --daemon flags
// and the daemon's SIGHUP key=value file. One strict parser serves argv
// and config lines — the whole value must parse — and the usage text is
// rendered from the same rows. A row is reloadable on SIGHUP exactly
// when it has a config key. See DESIGN.md "Continuous operation".
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "analysis/epoch.h"

namespace zpm::analysis {

/// How a row's value is parsed. Integer kinds take digits only, within
/// the field's width.
enum class OptionKind : std::uint8_t {
  Flag,      ///< argv: takes no value, stores Option::set; config: 0 or 1
  Unsigned,  ///< decimal integer
  Count,     ///< decimal integer, at least 1
  Hex,       ///< hexadecimal integer, optional 0x prefix
  Double,    ///< finite decimal number
  Seconds,   ///< finite decimal number of seconds, stored as a Duration
  ByteSize,  ///< util::parse_byte_size: "4M", "256K", "1048576"
  String,    ///< any text
  Schedule,  ///< overload::PressureSchedule "begin-end:pressure[,...]"
};

/// Command-line surfaces, as bits of Option::surfaces: zpm_analyze and
/// campus_monitor --pcap, --make-trace and --daemon.
enum Surface : std::uint8_t { kAnalyze = 1, kPcap = 2, kTrace = 4, kDaemon = 8 };

/// One row. A value row's help line starts with the value's name, as
/// in "<n> analyzer shards".
struct Option {
  const char* flag;       ///< argv spelling, or nullptr
  const char* key;        ///< config-file key, or nullptr
  OptionKind kind;
  /// Where a parsed value is stored (size_t fields bind as uint64_t*):
  /// a table must not outlive the settings its rows point into.
  std::variant<bool*, std::uint32_t*, std::uint64_t*, double*, util::Duration*,
               std::string*> field;
  std::uint8_t surfaces;  ///< Surface bits that accept `flag`
  const char* help;
  bool set = true;          ///< what a given Flag row stores
  bool* implies = nullptr;  ///< also set to true whenever the row is given
};

using OptionTable = std::vector<Option>;

/// The rows whose flag `surface` accepts, plus the other keyed rows
/// with their flag cleared (config file only).
OptionTable for_surface(OptionTable rows, Surface surface);

struct ParsedArgs {
  std::string error;                  ///< first usage error; empty = ok
  std::set<std::string_view> given;  ///< the flags seen
};

/// Parses flags and their values (no program name or positionals),
/// stopping at the first unknown flag or missing or malformed value;
/// the error names the flag ("--threads wants a positive integer").
ParsedArgs parse_args(const OptionTable& table, std::span<char* const> args);

/// Applies "key = value" lines (whitespace trimmed; blank, "#" and
/// "="-less lines skipped). Returns one message per unknown key or
/// malformed value, whose field is left untouched.
std::vector<std::string> parse_config(const OptionTable& table, std::istream& in);

/// "usage: <synopsis>" and one line per flag with its help.
std::string usage(const OptionTable& table, std::string_view synopsis);
/// Prints `error` (if any) and the usage text to stderr; returns 2.
int usage_error(const OptionTable& table, std::string_view error,
                std::string_view synopsis);

/// std::from_chars over the whole of `text`: the number parse behind
/// every numeric row (no sign on unsigned types, no trailing bytes).
template <class T>
bool parse_whole(std::string_view text, T& out, int base = 10) {
  const char* end = text.data() + text.size();
  std::from_chars_result r{};
  if constexpr (std::is_integral_v<T>) r = std::from_chars(text.data(), end, out, base);
  else r = std::from_chars(text.data(), end, out);
  return r.ec == std::errc{} && r.ptr == end;
}

/// Every row that writes an EpochEngineConfig field, for all surfaces.
OptionTable engine_options(EpochEngineConfig& config);

/// What zpm_analyze and campus_monitor --pcap read besides the engine
/// configuration.
struct FileRunSettings {
  EpochEngineConfig engine;
  bool sketch = true;  ///< false under --no-sketch: budget 0
  bool frontend_stats = false;
  bool sketch_stats = false;
  bool offload_stats = false;
  std::string csv_prefix;
  std::uint64_t anon_key = 0;      ///< meaningful when --anon-key is given
  std::uint64_t corrupt_seed = 0;  ///< meaningful when --corrupt is given
};

/// zpm_analyze's (kAnalyze) or campus_monitor --pcap's (kPcap) rows.
OptionTable file_run_options(FileRunSettings& settings, Surface surface);

/// campus_monitor --make-trace's settings and rows.
struct TraceSettings {
  double minutes = 10.0;
  double meetings = 6.0;  ///< per peak hour
  double background = 1.0;
  std::uint64_t seed = 42;
  double burst_s = 0.0;  ///< square-wave period; 0 = no overlay
  std::uint64_t burst_flows = 20'000;
};
OptionTable trace_options(TraceSettings& settings);

}  // namespace zpm::analysis
