// Seeded trace synthesis for the benchmark workloads. The workload's
// structure (meeting count and size, background rate, capture span) is
// fixed by its shape; the seed only draws the details (addresses, paths,
// media content, background sizes and 5-tuples), so every seed yields
// the same amount of work and the figures stay comparable across seeds.
#pragma once

#include <cstdint>
#include <string>

namespace zpm::perfbench {

struct TraceShape {
  std::size_t meetings = 0;
  std::size_t participants = 0;  ///< per meeting, two of them on campus
  /// Non-Zoom packets per second; every one has a random 5-tuple, so
  /// nearly every one is a new flow for the sketch tier.
  double background_pps = 0;
  double seconds = 0;  ///< capture span
};

struct TraceInfo {
  std::string path;
  std::uint64_t packets = 0;
  std::uint64_t zoom_packets = 0;
  std::uint64_t bytes = 0;
  std::size_t meetings = 0;
};

/// Writes the trace as a classic pcap at `path`. The capture starts at
/// `start_s` (seconds since midnight); all meetings start within its
/// first two seconds and run past its end.
bool synthesize(const TraceShape& shape, std::uint64_t seed, double start_s,
                const std::string& path, TraceInfo& out);

/// fsync()s `path`, so its writeback does not run during measurement.
bool sync_file(const std::string& path);

}  // namespace zpm::perfbench
