// Small formatting helpers shared by examples, benches and reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace zpm::util {

/// "1.2 GB", "430 KB" — SI units with one decimal.
std::string human_bytes(std::uint64_t bytes);

/// "222.9 Mbit/s" style rate formatting from bits per second.
std::string human_bitrate(double bits_per_second);

/// Fixed-point decimal with `decimals` fraction digits.
std::string fixed(double v, int decimals);

/// Percentage with `decimals` fraction digits, e.g. "62.00%".
std::string percent(double fraction, int decimals = 2);

/// Thousands-separated integer, e.g. "1,846,000,000".
std::string with_commas(std::uint64_t v);

/// "HH:MM" clock label from seconds since local midnight.
std::string clock_label(std::int64_t seconds_since_midnight);

/// Splits on a delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// "4M", "256K", "1048576" → bytes (binary K/M/G suffixes, capped at
/// 1 TiB). The whole spec must parse: digits, then at most one suffix.
/// Returns 0 on a malformed or oversized spec; CLIs treat that as a
/// usage error.
std::size_t parse_byte_size(std::string_view spec);

}  // namespace zpm::util
