// Field tables for plain u64 counter structs. A struct whose counters
// are listed once, as {member pointer, kebab-case name} rows, gets its
// merge, its wire codec and its report rows from that one list instead
// of one hand-kept copy per use:
//
//   struct Stats { std::uint64_t a = 0, b = 0; };
//   inline constexpr std::array<util::CounterField<Stats>, 2> kStatsFields{{
//       {&Stats::a, "a"}, {&Stats::b, "b"}}};
//   util::merge_fields(total, shard, kStatsFields);
//
// Row order is wire order: encode_fields writes one big-endian u64 per
// row and decode_fields reads them back in the same order, so the
// tables follow each struct's declaration order and a reordered row
// changes every image on disk. Merging is plain addition, so per-shard
// (or per-site) values merged in any order equal serial counting.
// Per-packet increments stay direct member writes; the tables are read
// only at merge, encode, report and diagnostic time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bytes.h"

namespace zpm::util {

/// One counter of struct `S`. Richer rows (a description, a class) may
/// be any aggregate with `member` and `name` members.
template <class S>
struct CounterField {
  std::uint64_t S::* member;
  std::string_view name;
};

/// `into += from`, field by field.
template <class S, class Rows>
constexpr void merge_fields(S& into, const S& from, const Rows& rows) {
  for (const auto& row : rows) into.*row.member += from.*row.member;
}

/// Appends every field as a big-endian u64, in row order.
template <class S, class Rows>
void encode_fields(const S& s, const Rows& rows, ByteWriter& w) {
  for (const auto& row : rows) w.u64be(s.*row.member);
}

/// Reads every field back in row order; false when the bytes ran out.
template <class S, class Rows>
bool decode_fields(ByteReader& r, S& s, const Rows& rows) {
  for (const auto& row : rows) s.*row.member = r.u64be();
  return r.ok();
}

/// True when no two rows name the same member. With a count check
/// against the struct's size this makes a table a permutation of the
/// struct's counters; the wire-order tests pin the permutation.
template <class Rows>
constexpr bool distinct_members(const Rows& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = i + 1; j < rows.size(); ++j)
      if (rows[i].member == rows[j].member) return false;
  return true;
}

}  // namespace zpm::util
