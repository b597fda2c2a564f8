// Shared pieces of the end-to-end benchmark: clocks, sample statistics,
// the process heap counter, the failed-operation ledger and the span
// tracer. Everything here lives in the benchmark binary; the library
// under test is never instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zpm::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of the machine's CPU time between two readings that the
/// hypervisor ran other guests on (steal); 0 when unknown.
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Live heap accounting. alloc.cc replaces the global operator new and
// delete for the whole binary, so every thread's allocations count.
std::size_t heap_live_bytes();
std::size_t heap_peak_bytes();
/// Restarts peak tracking from the current live size.
void heap_reset_peak();

/// Sum of regular-file sizes under `dir` (recursive); 0 if missing.
std::uint64_t directory_bytes(const std::string& dir);
/// Removes `dir` and everything in it, then creates it empty.
bool reset_directory(const std::string& dir, std::string* error);

/// Counts operations attempted and failed. Every failure is logged to
/// stderr with its reason, so a non-zero `failed` is explainable.
class Ledger {
 public:
  /// One operation; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder. A span is (name, parent, start, end); a
/// span's self time is its duration minus its direct children's. Spans
/// are kept in memory while the run measures and written out at the
/// end. A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (kNone when disabled). `name`
  /// must be a string literal (it is stored by pointer).
  std::uint32_t begin(const char* name, std::uint32_t parent = kNone);
  void end(std::uint32_t id);
  /// Records an already-measured span.
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  /// Per-name totals over every recorded span.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Writes one tab-separated line per span (id, parent, name, start,
  /// end; ns relative to the first span).
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
  bool enabled_;
};

}  // namespace zpm::perfbench
