// Sketch-backed flow tier: O(1)-memory summarization of background
// traffic, the software analogue of DUNE-style switch sketch tiers.
//
// The paper's campus tap (§5) sees every 5-tuple on the network; the
// Tofino filter rejects the non-Zoom bulk at line rate, but a software
// deployment still wants *some* visibility into what it rejects — flow
// counts, byte volumes, who the elephants are — without paying exact
// per-flow state for millions of concurrent background flows. This
// module bounds that cost at a fixed byte budget:
//
//   * CountMinSketch — conservative-update count-min over packed
//     canonical flow keys, cells laid out so every row starts on a
//     cache-line boundary. Per-key indices come from one 64-bit
//     canonical hash via Kirsch–Mitzenmacher double hashing, so the
//     tier never hashes a packet the front end hasn't already hashed.
//   * HeavyTable — SpaceSaving-style top-K table (exact keys, byte and
//     packet counts with the classic overestimate bound) with an
//     intrusive min-heap and an open-addressing index, all sized at
//     construction.
//   * FlowTier — the facade the capture front end drives: absorb() on
//     every rejected packet, promote() when the filter admits a flow to
//     exact tracking (returns the carried byte/packet aggregate),
//     demote() when exact tracking lets a flow go.
//
// Everything is sized once from a byte budget and never reallocates:
// the hot path (absorb / estimate) is allocation-free, and a tier is
// owned by exactly one producer thread per shard — lock-free by
// construction, merged at report time (flows map to exactly one shard,
// so the merge is exact concatenation).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/five_tuple.h"
#include "util/bytes.h"
#include "util/counter_table.h"

namespace zpm::sketch {

/// The per-flow aggregate the tier carries for a flow: what promotion
/// hands to the exact tracker and demotion hands back.
struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  bool operator==(const FlowStats&) const = default;
};

/// Count-min sketch with conservative update over 64-bit canonical flow
/// hashes. Each cell tracks packets and bytes; the two counters are
/// updated independently (each is a valid conservative-update CM in its
/// own right), so both estimates are upper bounds that never undercount.
class CountMinSketch {
 public:
  static constexpr std::size_t kRows = 4;

  /// Sizes the widest power-of-two row layout that fits `budget_bytes`
  /// (minimum 64 cells per row). Rows are contiguous and every row
  /// starts on a 64-byte boundary.
  explicit CountMinSketch(std::size_t budget_bytes);

  /// Conservative update: only the minimal cells advance, so point
  /// queries tighten toward true counts under heavy collision load.
  void add(std::uint64_t hash, std::uint32_t packet_inc, std::uint32_t byte_inc);

  /// Point query: min over rows; an upper bound on the true counts.
  [[nodiscard]] FlowStats estimate(std::uint64_t hash) const;

  [[nodiscard]] std::size_t width() const { return mask_ + 1; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return cells_.capacity() * sizeof(Cell);
  }

  /// Appends the cell array (width header + raw counters) to `w`
  /// (snapshot persistence).
  void serialize(util::ByteWriter& w) const;
  /// Restores the cells from `r`. Fails (returns false, sketch
  /// unchanged semantics not guaranteed — discard it) when the stored
  /// width does not match this sketch's geometry or `r` underflows.
  bool deserialize(util::ByteReader& r);

 private:
  struct Cell {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  [[nodiscard]] const Cell& cell(std::size_t row, std::uint64_t hash) const {
    // Kirsch–Mitzenmacher: two 32-bit halves of the canonical hash give
    // kRows pairwise-distinct probe sequences from a single hash call.
    const std::uint64_t h1 = hash & 0xffffffffu;
    const std::uint64_t h2 = (hash >> 32) | 1u;  // odd, never degenerate
    return base_[row * width() + ((h1 + row * h2) & mask_)];
  }
  [[nodiscard]] Cell& cell(std::size_t row, std::uint64_t hash) {
    return const_cast<Cell&>(std::as_const(*this).cell(row, hash));
  }

  std::uint64_t mask_ = 0;
  std::vector<Cell> cells_;  // over-allocated so base_ is 64B-aligned
  Cell* base_ = nullptr;
};

/// SpaceSaving-style heavy-hitter table: tracks the top-`capacity`
/// flows by byte volume with exact keys. When a new flow arrives at a
/// full table the minimum entry is evicted and the newcomer inherits
/// its count as the classic overestimate (recorded in `error_bytes`).
/// Fixed capacity, free-list entry storage, intrusive min-heap — no
/// allocation after construction.
class HeavyTable {
 public:
  struct Entry {
    net::PackedFlowKey key;
    std::uint64_t bytes = 0;        ///< count (includes inherited error)
    std::uint64_t packets = 0;      ///< count (inherits on takeover, like bytes)
    std::uint64_t error_bytes = 0;  ///< inherited overestimate bound
    std::uint32_t heap_pos = 0;
    std::uint32_t next_free = 0;
  };

  explicit HeavyTable(std::size_t capacity);

  /// Adds one observation. May evict the minimum entry (returns true
  /// when it does — the caller health-accounts evictions).
  bool offer(const net::PackedFlowKey& key, std::uint64_t hash,
             std::uint64_t packet_inc, std::uint64_t byte_inc);

  /// The tracked entry for `key`, or nullptr when untracked.
  [[nodiscard]] const Entry* find(const net::PackedFlowKey& key,
                                  std::uint64_t hash) const;

  /// Removes `key` (promotion to exact tracking). Returns true when the
  /// key was tracked.
  bool erase(const net::PackedFlowKey& key, std::uint64_t hash);

  /// Tracked entries, largest byte count first.
  [[nodiscard]] std::vector<Entry> top() const;

  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  /// Appends capacity + tracked entries (in deterministic top() order,
  /// exact counts including error_bytes) to `w`.
  void serialize(util::ByteWriter& w) const;
  /// Restores from `r` into an exact copy of the serialized table
  /// (entries, counts, overestimate bounds). Fails on capacity
  /// mismatch, duplicate keys, overflow, or reader underflow; the
  /// table is reset to empty first, so a failed restore leaves it
  /// empty, never half-loaded.
  bool deserialize(util::ByteReader& r);
  [[nodiscard]] std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::uint32_t) +
           heap_.capacity() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] std::uint32_t* index_slot(const net::PackedFlowKey& key,
                                          std::uint64_t hash);
  void index_erase(const net::PackedFlowKey& key, std::uint64_t hash);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);

  void reset();  // empty the table, re-thread the free list
  bool restore_entry(const Entry& e, std::uint64_t hash);

  std::vector<Entry> entries_;        // fixed storage, free-list linked
  std::vector<std::uint32_t> index_;  // open addressing: entry idx + 1, 0 empty
  std::vector<std::uint32_t> heap_;   // min-heap over entry bytes
  std::uint64_t index_mask_ = 0;
  std::uint32_t free_head_ = 0;       // entry idx + 1, 0 = none
};

/// Cumulative tier counters (reported by `--stats`; never part
/// of the standard report, which must stay bit-identical tier on/off).
struct TierStats {
  std::uint64_t absorbed_packets = 0;  ///< rejected packets summarized
  std::uint64_t absorbed_bytes = 0;
  std::uint64_t promotions = 0;   ///< flows moved to exact tracking
  std::uint64_t demotions = 0;    ///< flows handed back by the exact tier
  std::uint64_t evictions = 0;    ///< SpaceSaving minimum-entry evictions

  bool operator==(const TierStats&) const = default;

  void merge(const TierStats& other);
};

/// Every TierStats counter, in declaration order (the wire order of the
/// tier image and the epoch record; util/counter_table.h).
inline constexpr std::array<util::CounterField<TierStats>, 5> kTierStatsFields{{
    {&TierStats::absorbed_packets, "absorbed-packets"},
    {&TierStats::absorbed_bytes, "absorbed-bytes"},
    {&TierStats::promotions, "promotions"},
    {&TierStats::demotions, "demotions"},
    {&TierStats::evictions, "evictions"},
}};

// A counter added to TierStats without a row fails here.
static_assert(sizeof(TierStats) == kTierStatsFields.size() * sizeof(std::uint64_t) &&
              util::distinct_members(kTierStatsFields));

inline void TierStats::merge(const TierStats& other) {
  util::merge_fields(*this, other, kTierStatsFields);
}

/// One ranked heavy flow in a tier (or merged cross-shard) report.
struct HeavyHitter {
  net::FiveTuple flow;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t error_bytes = 0;

  bool operator==(const HeavyHitter&) const = default;
};

/// See file comment. One instance per pipeline shard; single-threaded.
class FlowTier {
 public:
  /// Splits `budget_bytes` between the heavy-hitter table (~1/4, at
  /// least 16 entries) and the count-min cells (the rest); the total
  /// allocated footprint never exceeds the budget by more than small
  /// fixed overhead (asserted by bench_sketch against 1.25x).
  explicit FlowTier(std::size_t budget_bytes);

  /// Summarizes one rejected packet. Allocation-free.
  void absorb(const net::PackedFlowKey& key, std::uint64_t hash,
              std::uint32_t wire_bytes);

  /// The flow is being admitted to exact tracking: returns the carried
  /// aggregate (heavy-table counts when tracked, else the CM point
  /// estimate — an upper bound) and drops the flow from the heavy
  /// table. Flows the tier never saw return zeros.
  FlowStats promote(const net::PackedFlowKey& key, std::uint64_t hash);

  /// The exact tier let the flow go; its accumulated aggregate folds
  /// back into the sketch so tier reports stay whole-trace.
  void demote(const net::PackedFlowKey& key, std::uint64_t hash,
              const FlowStats& carried);

  /// CM point estimate (upper bound), heavy-table exact when tracked.
  [[nodiscard]] FlowStats estimate(const net::PackedFlowKey& key,
                                   std::uint64_t hash) const;

  /// Folds an externally-accumulated flow aggregate into the tier —
  /// how the daemon carries a finished epoch's tier report into its
  /// daemon-lifetime background summary. Like demote(), but the counts
  /// were already stats-accounted in their epoch, so only the
  /// structures (and eviction accounting) advance here; pair with
  /// fold_stats() for the counters.
  void fold(const net::PackedFlowKey& key, std::uint64_t hash,
            const FlowStats& agg);
  /// Merges externally-accumulated tier counters (epoch report stats).
  void fold_stats(const TierStats& s) { stats_.merge(s); }

  /// Appends the full tier (budget, stats, CM cells, heavy entries) to
  /// `w` (snapshot persistence). Deterministic: equal tiers serialize
  /// to equal bytes.
  void serialize(util::ByteWriter& w) const;
  /// Restores from `r`. Fails when the stored byte budget differs from
  /// this tier's (geometry must match exactly) or the payload is
  /// malformed; on failure the caller should discard the tier and
  /// start fresh.
  bool deserialize(util::ByteReader& r);

  [[nodiscard]] const TierStats& stats() const { return stats_; }
  /// Top tracked flows, largest byte volume first, at most `limit`.
  [[nodiscard]] std::vector<HeavyHitter> heavy_hitters(std::size_t limit) const;
  [[nodiscard]] std::size_t tracked_flows() const { return heavy_.size(); }
  /// Actual allocated footprint (cells + entries + index + heap).
  [[nodiscard]] std::size_t memory_bytes() const {
    return cm_.memory_bytes() + heavy_.memory_bytes();
  }
  [[nodiscard]] std::size_t budget_bytes() const { return budget_; }

 private:
  std::size_t budget_;
  // Declaration order is initialization order: the CM sketch is sized
  // from whatever budget the heavy table leaves over.
  HeavyTable heavy_;
  CountMinSketch cm_;
  TierStats stats_;
};

/// Report-time merge of per-shard tiers: stats sum; heavy hitters are
/// exact concatenation (a flow lives in exactly one shard's tier, by
/// the canonical-hash routing) re-ranked by bytes, at most `limit`.
struct TierReport {
  TierStats stats;
  std::vector<HeavyHitter> heavy_hitters;
};
TierReport merge_tiers(const std::vector<const FlowTier*>& tiers,
                       std::size_t limit);

}  // namespace zpm::sketch
