#include "util/strings.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace zpm::util {

std::string human_bytes(std::uint64_t bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (v >= 1000.0 && unit + 1 < kUnits.size()) {
    v /= 1000.0;
    ++unit;
  }
  char buf[48];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  }
  return buf;
}

std::string human_bitrate(double bits_per_second) {
  static constexpr std::array<const char*, 4> kUnits = {"bit/s", "Kbit/s", "Mbit/s", "Gbit/s"};
  double v = bits_per_second;
  std::size_t unit = 0;
  while (v >= 1000.0 && unit + 1 < kUnits.size()) {
    v /= 1000.0;
    ++unit;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  return buf;
}

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string clock_label(std::int64_t seconds_since_midnight) {
  std::int64_t day = 24 * 3600;
  std::int64_t s = ((seconds_since_midnight % day) + day) % day;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d",
                static_cast<int>(s / 3600), static_cast<int>((s % 3600) / 60));
  return buf;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream stream(s);
  while (std::getline(stream, item, delim)) out.push_back(item);
  if (!s.empty() && s.back() == delim) out.emplace_back();
  return out;
}

std::size_t parse_byte_size(std::string_view spec) {
  std::uint64_t value = 0;
  const char* const last = spec.data() + spec.size();
  const auto [end, ec] = std::from_chars(spec.data(), last, value);
  if (ec != std::errc{} || last - end > 1) return 0;
  std::size_t scale = 1;
  if (end != last) {
    switch (*end) {
      case 'k': case 'K': scale = std::size_t{1} << 10; break;
      case 'm': case 'M': scale = std::size_t{1} << 20; break;
      case 'g': case 'G': scale = std::size_t{1} << 30; break;
      default: return 0;
    }
  }
  if (value > (std::size_t{1} << 40) / scale) return 0;
  return static_cast<std::size_t>(value) * scale;
}

}  // namespace zpm::util
