// Counter field tables (util/counter_table.h): each table lists its
// struct's counters once, in declaration order, and merge, the wire
// codecs, the health report rows and the all-clear verdict all read it.
// FrozenLayout pins every name, position and health class; the
// round-trip drives every field through the table-driven code; the
// docs check keeps docs/ROBUSTNESS.md section 2 naming every counter.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/epoch.h"
#include "analysis/tables.h"
#include "capture/offload.h"
#include "core/analyzer.h"
#include "core/health.h"
#include "sketch/sketch.h"
#include "util/counter_table.h"

namespace zpm {
namespace {

template <class Rows>
std::vector<std::string_view> names_of(const Rows& rows) {
  std::vector<std::string_view> out;
  for (const auto& row : rows) out.push_back(row.name);
  return out;
}

/// Byte offset of each row's member inside `s`.
template <class S, class Rows>
std::vector<std::size_t> offsets_of(const S& s, const Rows& rows) {
  std::vector<std::size_t> out;
  const auto* base = reinterpret_cast<const char*>(&s);
  for (const auto& row : rows)
    out.push_back(static_cast<std::size_t>(
        reinterpret_cast<const char*>(&(s.*row.member)) - base));
  return out;
}

/// Consecutive u64 offsets starting at `first`: declaration order.
std::vector<std::size_t> consecutive(std::size_t first, std::size_t count) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(first + i * 8);
  return out;
}

/// Sets row i's field to i + 1.
template <class S, class Rows>
void number_fields(S& s, const Rows& rows) {
  std::uint64_t v = 1;
  for (const auto& row : rows) s.*row.member = v++;
}

TEST(CounterTables, FrozenLayout) {
  using core::HealthClass;
  const std::vector<std::string_view> health = {
      "truncated-l2", "non-ipv4", "bad-l3", "ip-fragments", "unsupported-l4",
      "bad-l4", "snaplen-truncated", "non-monotonic-ts", "frontend-rejected",
      "sketch-evicted", "bad-sfu-encap", "bad-media-encap", "malformed-rtp",
      "malformed-rtcp", "malformed-stun", "unknown-payload-type",
      "quarantined-flows", "quarantined-packets", "epoch-evicted-flows",
      "epoch-evicted-meetings", "overload-shed-l1", "overload-shed-l2",
      "overload-shed-l3", "overload-shed-l4", "ring-wait-spins",
      "source-stalls", "kernel-packets", "kernel-drops", "offload-covered",
      "offload-collisions", "offload-evictions"};
  EXPECT_EQ(health.size(), 31u);
  EXPECT_EQ(names_of(core::kHealthFields), health);

  constexpr auto D = HealthClass::Drop, O = HealthClass::Observation,
                 A = HealthClass::Accounting, G = HealthClass::Gauge;
  const std::vector<HealthClass> classes = {
      D, O, D, O, O, D, O, O, A, A, D, D, D, D, D, O,
      O, D, A, A, A, A, A, A, G, G, G, G, A, A, A};
  std::vector<HealthClass> actual;
  for (const auto& row : core::kHealthFields) actual.push_back(row.cls);
  EXPECT_EQ(actual, classes);

  const std::vector<std::string_view> counters = {
      "total-packets", "total-bytes", "zoom-packets", "zoom-bytes",
      "server-udp-packets", "p2p-udp-packets", "stun-packets",
      "tcp-control-packets", "media-packets", "rtcp-packets",
      "unknown-sfu-packets", "unknown-media-packets", "p2p-false-positives"};
  EXPECT_EQ(names_of(core::kCounterFields), counters);

  const std::vector<std::string_view> tier = {
      "absorbed-packets", "absorbed-bytes", "promotions", "demotions",
      "evictions"};
  EXPECT_EQ(names_of(sketch::kTierStatsFields), tier);

  const std::vector<std::string_view> offload = {
      "covered-packets", "probe-arms", "probe-collisions", "flow-evictions",
      "telemetry-collisions"};
  EXPECT_EQ(names_of(capture::kOffloadReportFields), offload);
}

TEST(CounterTables, RowsFollowDeclarationOrder) {
  // Row order is wire order; the structs keep their counters in that
  // same order, so row i must address the i-th counter word.
  const core::AnalyzerHealth h;
  EXPECT_EQ(offsets_of(h, core::kHealthFields), consecutive(0, 31));
  const core::AnalyzerCounters c;
  EXPECT_EQ(offsets_of(c, core::kCounterFields), consecutive(0, 13));
  const sketch::TierStats t;
  EXPECT_EQ(offsets_of(t, sketch::kTierStatsFields), consecutive(0, 5));
  const capture::OffloadReport o;
  EXPECT_EQ(offsets_of(o, capture::kOffloadReportFields),
            consecutive(offsetof(capture::OffloadReport, covered_packets), 5));
}

TEST(CounterTables, TableDrivenRoundTrip) {
  analysis::EpochReport rep;
  number_fields(rep.counters, core::kCounterFields);
  number_fields(rep.health, core::kHealthFields);
  number_fields(rep.tier_stats, sketch::kTierStatsFields);
  number_fields(rep.offload, capture::kOffloadReportFields);

  util::ByteWriter w;
  analysis::encode_epoch_report(rep, w);
  util::ByteReader r(w.view());
  analysis::EpochReport decoded;
  ASSERT_TRUE(analysis::decode_epoch_report(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(decoded, rep);

  auto counters = rep.counters;
  counters.merge(rep.counters);
  auto health = rep.health;
  health.merge(rep.health);
  auto tier = rep.tier_stats;
  tier.merge(rep.tier_stats);
  auto offload = rep.offload;
  offload.merge(rep.offload);
  const auto doubled = [](const auto& merged, const auto& once, const auto& rows) {
    for (const auto& row : rows)
      EXPECT_EQ(merged.*row.member, 2 * (once.*row.member)) << row.name;
  };
  doubled(counters, rep.counters, core::kCounterFields);
  doubled(health, rep.health, core::kHealthFields);
  doubled(tier, rep.tier_stats, sketch::kTierStatsFields);
  doubled(offload, rep.offload, capture::kOffloadReportFields);

  const auto rows = analysis::health_rows(rep.health);
  ASSERT_EQ(rows.size(), 31u);
  std::uint64_t drops = 0;
  std::size_t drop_rows = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& field = core::kHealthFields[i];
    EXPECT_EQ(rows[i].category, field.name);
    EXPECT_EQ(rows[i].description, field.description);
    EXPECT_EQ(rows[i].count, i + 1);
    EXPECT_EQ(rows[i].dropped, field.cls == core::HealthClass::Drop);
    if (rows[i].dropped) {
      drops += rows[i].count;
      ++drop_rows;
    }
  }
  EXPECT_EQ(drop_rows, 9u);
  EXPECT_EQ(rep.health.dropped_records(), drops);
}

TEST(CounterTables, RecordsClearIgnoresAccountingAndGauges) {
  for (const auto& row : core::kHealthFields) {
    core::AnalyzerHealth h;
    h.*row.member = 7;
    const bool quiet = row.cls == core::HealthClass::Accounting ||
                       row.cls == core::HealthClass::Gauge;
    EXPECT_EQ(h.records_clear(), quiet) << row.name;
    EXPECT_FALSE(h.all_clear()) << row.name;
    core::zero_gauges(h);
    EXPECT_EQ(h.all_clear(), row.cls == core::HealthClass::Gauge) << row.name;
  }
}

TEST(CounterTables, StrictViolationNamesComeFromTheTable) {
  for (const auto& row : core::kHealthFields)
    EXPECT_EQ(core::health_name(row.member), row.name);
  core::AnalyzerHealth h;
  EXPECT_EQ(core::health_name(core::apply_decode_failure(
                h, net::DecodeFailure::BadIpHeader)),
            "bad-l3");
  EXPECT_EQ(core::apply_decode_failure(h, net::DecodeFailure::NonIpv4), nullptr);
  EXPECT_EQ(h.bad_l3, 1u);
  EXPECT_EQ(h.non_ipv4, 1u);
}

TEST(CounterTables, RobustnessDocNamesEveryHealthCounter) {
  std::ifstream in(ZPM_ROBUSTNESS_DOC);
  ASSERT_TRUE(in) << ZPM_ROBUSTNESS_DOC;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  const auto begin = doc.find("\n## 2.");
  const auto end = doc.find("\n## 3.");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string section = doc.substr(begin, end - begin);
  for (const auto& row : core::kHealthFields)
    EXPECT_NE(section.find("`" + std::string(row.name) + "`"), std::string::npos)
        << row.name << " is missing from docs/ROBUSTNESS.md section 2";
}

}  // namespace
}  // namespace zpm
