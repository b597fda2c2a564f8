#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace zpm::perfbench {

namespace fs = std::filesystem;

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

bool reset_directory(const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (!ec) fs::create_directories(dir, ec);
  if (ec && error != nullptr) *error = dir + ": " + ec.message();
  return !ec;
}

bool Ledger::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Ledger::count(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0)
    std::fprintf(stderr, "perfbench: FAILED: %llu of %llu %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  if (!enabled_) return kNone;
  spans_.push_back(Span{name, parent, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id) {
  if (id != kNone) spans_[id].end_ns = now_ns();
}

std::uint32_t Tracer::add(const char* name, std::uint32_t parent,
                          std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return kNone;
  spans_.push_back(Span{name, parent, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_)
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%lld\t%lld\n", i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.name, static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  return std::fclose(f) == 0;
}

}  // namespace zpm::perfbench
