#include "sketch/sketch.h"

#include <algorithm>
#include <cstdint>

namespace zpm::sketch {

namespace {

constexpr std::size_t kCacheLine = 64;

/// Largest power of two <= n (n >= 1).
std::size_t floor_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// CountMinSketch

CountMinSketch::CountMinSketch(std::size_t budget_bytes) {
  const std::size_t min_cells = kRows * 64;
  std::size_t cells = budget_bytes / sizeof(Cell);
  if (cells < min_cells) cells = min_cells;
  const std::size_t width = floor_pow2(cells / kRows);
  mask_ = width - 1;
  // Over-allocate one cache line so rows can start 64B-aligned; width
  // is a multiple of 4 cells (64 bytes), so row starts stay aligned.
  cells_.resize(kRows * width + kCacheLine / sizeof(Cell));
  auto addr = reinterpret_cast<std::uintptr_t>(cells_.data());
  const std::uintptr_t aligned = (addr + kCacheLine - 1) & ~std::uintptr_t{kCacheLine - 1};
  base_ = cells_.data() + (aligned - addr) / sizeof(Cell);
}

void CountMinSketch::add(std::uint64_t hash, std::uint32_t packet_inc,
                         std::uint32_t byte_inc) {
  // Conservative update, per counter: raise a cell only as far as the
  // new lower bound (current min + increment) requires.
  std::uint64_t min_packets = cell(0, hash).packets;
  std::uint64_t min_bytes = cell(0, hash).bytes;
  for (std::size_t r = 1; r < kRows; ++r) {
    const Cell& c = cell(r, hash);
    min_packets = std::min(min_packets, c.packets);
    min_bytes = std::min(min_bytes, c.bytes);
  }
  const std::uint64_t new_packets = min_packets + packet_inc;
  const std::uint64_t new_bytes = min_bytes + byte_inc;
  for (std::size_t r = 0; r < kRows; ++r) {
    Cell& c = cell(r, hash);
    c.packets = std::max(c.packets, new_packets);
    c.bytes = std::max(c.bytes, new_bytes);
  }
}

void CountMinSketch::serialize(util::ByteWriter& w) const {
  w.u64be(width());
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t i = 0; i < width(); ++i) {
      const Cell& c = base_[r * width() + i];
      w.u64be(c.packets);
      w.u64be(c.bytes);
    }
  }
}

bool CountMinSketch::deserialize(util::ByteReader& r) {
  if (r.u64be() != width()) return false;
  for (std::size_t row = 0; row < kRows; ++row) {
    for (std::size_t i = 0; i < width(); ++i) {
      Cell& c = base_[row * width() + i];
      c.packets = r.u64be();
      c.bytes = r.u64be();
    }
  }
  return r.ok();
}

FlowStats CountMinSketch::estimate(std::uint64_t hash) const {
  FlowStats est{cell(0, hash).packets, cell(0, hash).bytes};
  for (std::size_t r = 1; r < kRows; ++r) {
    const Cell& c = cell(r, hash);
    est.packets = std::min(est.packets, c.packets);
    est.bytes = std::min(est.bytes, c.bytes);
  }
  return est;
}

// ---------------------------------------------------------------------------
// HeavyTable

HeavyTable::HeavyTable(std::size_t capacity) {
  if (capacity < 4) capacity = 4;
  entries_.resize(capacity);
  heap_.reserve(capacity);
  // Index at least 2x capacity keeps open-addressing probes short.
  std::size_t index_size = 8;
  while (index_size < capacity * 2) index_size *= 2;
  index_.assign(index_size, 0);
  index_mask_ = index_size - 1;
  // Thread the free list through the fixed entry storage.
  for (std::size_t i = 0; i < capacity; ++i)
    entries_[i].next_free = static_cast<std::uint32_t>(i + 2 <= capacity ? i + 2 : 0);
  free_head_ = 1;
}

std::uint32_t* HeavyTable::index_slot(const net::PackedFlowKey& key,
                                      std::uint64_t hash) {
  std::size_t idx = hash & index_mask_;
  for (;;) {
    std::uint32_t slot = index_[idx];
    if (slot == 0 || entries_[slot - 1].key == key) return &index_[idx];
    idx = (idx + 1) & index_mask_;
  }
}

void HeavyTable::index_erase(const net::PackedFlowKey& key, std::uint64_t hash) {
  std::size_t idx = hash & index_mask_;
  while (index_[idx] == 0 || !(entries_[index_[idx] - 1].key == key))
    idx = (idx + 1) & index_mask_;
  // Backward-shift deletion, same scheme as FlowDispatchTable::erase.
  std::size_t hole = idx;
  for (std::size_t next = (hole + 1) & index_mask_;; next = (next + 1) & index_mask_) {
    const std::uint32_t slot = index_[next];
    if (slot == 0) break;
    const std::size_t home =
        net::canonical_flow_hash(entries_[slot - 1].key) & index_mask_;
    if (((next - home) & index_mask_) >= ((next - hole) & index_mask_)) {
      index_[hole] = slot;
      hole = next;
    }
  }
  index_[hole] = 0;
}

void HeavyTable::sift_up(std::uint32_t pos) {
  const std::uint32_t entry = heap_[pos];
  const std::uint64_t bytes = entries_[entry].bytes;
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (entries_[heap_[parent]].bytes <= bytes) break;
    heap_[pos] = heap_[parent];
    entries_[heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  entries_[entry].heap_pos = pos;
}

void HeavyTable::sift_down(std::uint32_t pos) {
  const std::uint32_t entry = heap_[pos];
  const std::uint64_t bytes = entries_[entry].bytes;
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = pos * 2 + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        entries_[heap_[child + 1]].bytes < entries_[heap_[child]].bytes)
      ++child;
    if (entries_[heap_[child]].bytes >= bytes) break;
    heap_[pos] = heap_[child];
    entries_[heap_[pos]].heap_pos = pos;
    pos = child;
  }
  heap_[pos] = entry;
  entries_[entry].heap_pos = pos;
}

bool HeavyTable::offer(const net::PackedFlowKey& key, std::uint64_t hash,
                       std::uint64_t packet_inc, std::uint64_t byte_inc) {
  std::uint32_t* slot = index_slot(key, hash);
  if (*slot != 0) {
    Entry& e = entries_[*slot - 1];
    e.bytes += byte_inc;
    e.packets += packet_inc;
    sift_down(e.heap_pos);
    return false;
  }
  if (free_head_ != 0) {
    // Room left: claim a free entry.
    const std::uint32_t idx = free_head_ - 1;
    Entry& e = entries_[idx];
    free_head_ = e.next_free;
    e.key = key;
    e.bytes = byte_inc;
    e.packets = packet_inc;
    e.error_bytes = 0;
    *slot = idx + 1;
    heap_.push_back(idx);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
    return false;
  }
  // SpaceSaving replacement: the newcomer takes over the minimum entry,
  // inheriting its count as the overestimate bound.
  const std::uint32_t idx = heap_[0];
  Entry& e = entries_[idx];
  index_erase(e.key, net::canonical_flow_hash(e.key));
  // The index slot for `key` may have shifted during the erase.
  *index_slot(key, hash) = idx + 1;
  e.key = key;
  e.error_bytes = e.bytes;
  e.bytes += byte_inc;
  // Packets inherit too (classic SpaceSaving): both counters must stay
  // upper bounds or FlowTier::estimate could undercount a flow whose
  // entry changed hands (caught by fuzz_sketch).
  e.packets += packet_inc;
  sift_down(0);
  return true;
}

const HeavyTable::Entry* HeavyTable::find(const net::PackedFlowKey& key,
                                          std::uint64_t hash) const {
  std::size_t idx = hash & index_mask_;
  for (;;) {
    const std::uint32_t slot = index_[idx];
    if (slot == 0) return nullptr;
    if (entries_[slot - 1].key == key) return &entries_[slot - 1];
    idx = (idx + 1) & index_mask_;
  }
}

bool HeavyTable::erase(const net::PackedFlowKey& key, std::uint64_t hash) {
  const Entry* found = find(key, hash);
  if (found == nullptr) return false;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(found - entries_.data());
  index_erase(key, hash);
  // Remove from the heap: move the last element into the hole.
  const std::uint32_t pos = entries_[idx].heap_pos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    entries_[last].heap_pos = pos;
    sift_down(pos);
    sift_up(entries_[last].heap_pos);
  }
  entries_[idx].next_free = free_head_;
  free_head_ = idx + 1;
  return true;
}

void HeavyTable::serialize(util::ByteWriter& w) const {
  w.u64be(capacity());
  w.u64be(size());
  // top() order is a deterministic total order, so equal tables
  // serialize to equal bytes regardless of internal heap layout.
  for (const Entry& e : top()) {
    w.u64be(e.key.k1);
    w.u64be(e.key.k2);
    w.u64be(e.bytes);
    w.u64be(e.packets);
    w.u64be(e.error_bytes);
  }
}

void HeavyTable::reset() {
  std::fill(index_.begin(), index_.end(), 0u);
  heap_.clear();
  const std::size_t cap = entries_.size();
  for (std::size_t i = 0; i < cap; ++i)
    entries_[i].next_free = static_cast<std::uint32_t>(i + 2 <= cap ? i + 2 : 0);
  free_head_ = 1;
}

bool HeavyTable::restore_entry(const Entry& e, std::uint64_t hash) {
  std::uint32_t* slot = index_slot(e.key, hash);
  if (*slot != 0) return false;  // duplicate key in the stored stream
  if (free_head_ == 0) return false;
  const std::uint32_t idx = free_head_ - 1;
  Entry& dst = entries_[idx];
  free_head_ = dst.next_free;
  dst.key = e.key;
  dst.bytes = e.bytes;
  dst.packets = e.packets;
  dst.error_bytes = e.error_bytes;
  *slot = idx + 1;
  heap_.push_back(idx);
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  return true;
}

bool HeavyTable::deserialize(util::ByteReader& r) {
  if (r.u64be() != capacity()) return false;
  const std::uint64_t count = r.u64be();
  if (!r.ok() || count > capacity()) return false;
  reset();
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.key.k1 = r.u64be();
    e.key.k2 = r.u64be();
    e.bytes = r.u64be();
    e.packets = r.u64be();
    e.error_bytes = r.u64be();
    if (!r.ok()) return false;
    if (!restore_entry(e, net::canonical_flow_hash(e.key))) return false;
  }
  return true;
}

std::vector<HeavyTable::Entry> HeavyTable::top() const {
  std::vector<Entry> out;
  out.reserve(heap_.size());
  for (std::uint32_t idx : heap_) out.push_back(entries_[idx]);
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    // Deterministic total order for equal counts.
    if (a.key.k1 != b.key.k1) return a.key.k1 < b.key.k1;
    return a.key.k2 < b.key.k2;
  });
  return out;
}

// ---------------------------------------------------------------------------
// FlowTier

FlowTier::FlowTier(std::size_t budget_bytes)
    : budget_(budget_bytes),
      // ~1/4 of the budget buys heavy-hitter entries; each costs its
      // Entry plus its share of the 2x index and the heap slot.
      heavy_(std::max<std::size_t>(
          16, (budget_bytes / 4) /
                  (sizeof(HeavyTable::Entry) + 3 * sizeof(std::uint32_t)))),
      cm_(budget_bytes > heavy_.memory_bytes()
              ? budget_bytes - heavy_.memory_bytes()
              : 0) {}

void FlowTier::absorb(const net::PackedFlowKey& key, std::uint64_t hash,
                      std::uint32_t wire_bytes) {
  ++stats_.absorbed_packets;
  stats_.absorbed_bytes += wire_bytes;
  cm_.add(hash, 1, wire_bytes);
  if (heavy_.offer(key, hash, 1, wire_bytes)) ++stats_.evictions;
}

FlowStats FlowTier::promote(const net::PackedFlowKey& key, std::uint64_t hash) {
  const FlowStats est = estimate(key, hash);
  if (heavy_.erase(key, hash) || est.packets > 0) ++stats_.promotions;
  // Flows the tier never saw estimate to zero and don't count as
  // promotions.
  return est;
}

void FlowTier::demote(const net::PackedFlowKey& key, std::uint64_t hash,
                      const FlowStats& carried) {
  ++stats_.demotions;
  stats_.absorbed_packets += carried.packets;
  stats_.absorbed_bytes += carried.bytes;
  constexpr std::uint64_t kU32Max = 0xffffffffu;
  cm_.add(hash, static_cast<std::uint32_t>(std::min(carried.packets, kU32Max)),
          static_cast<std::uint32_t>(std::min(carried.bytes, kU32Max)));
  if (heavy_.offer(key, hash, carried.packets, carried.bytes))
    ++stats_.evictions;
}

FlowStats FlowTier::estimate(const net::PackedFlowKey& key,
                             std::uint64_t hash) const {
  // Per-counter max of the two structures. The heavy entry alone is
  // not an upper bound: a flow evicted under pressure and later
  // re-tracked restarts its entry from the re-entry increment, with
  // the earlier history surviving only in the CM (caught by
  // fuzz_sketch). The CM alone almost is — except demote() must clamp
  // each add to 32 bits, so a demoted aggregate past 4 Gi lives fully
  // only in the 64-bit heavy entry. The max of the two stays an upper
  // bound in every interleaving.
  FlowStats est = cm_.estimate(hash);
  if (const HeavyTable::Entry* e = heavy_.find(key, hash)) {
    est.packets = std::max(est.packets, e->packets);
    est.bytes = std::max(est.bytes, e->bytes);
  }
  return est;
}

void FlowTier::fold(const net::PackedFlowKey& key, std::uint64_t hash,
                    const FlowStats& agg) {
  constexpr std::uint64_t kU32Max = 0xffffffffu;
  cm_.add(hash, static_cast<std::uint32_t>(std::min(agg.packets, kU32Max)),
          static_cast<std::uint32_t>(std::min(agg.bytes, kU32Max)));
  if (heavy_.offer(key, hash, agg.packets, agg.bytes)) ++stats_.evictions;
}

void FlowTier::serialize(util::ByteWriter& w) const {
  w.u64be(budget_);
  util::encode_fields(stats_, kTierStatsFields, w);
  cm_.serialize(w);
  heavy_.serialize(w);
}

bool FlowTier::deserialize(util::ByteReader& r) {
  // Geometry is a pure function of the budget; a different stored
  // budget means the cells/entries cannot be placed 1:1.
  if (r.u64be() != budget_) return false;
  if (!util::decode_fields(r, stats_, kTierStatsFields)) return false;
  return cm_.deserialize(r) && heavy_.deserialize(r);
}

std::vector<HeavyHitter> FlowTier::heavy_hitters(std::size_t limit) const {
  std::vector<HeavyHitter> out;
  const std::vector<HeavyTable::Entry> ranked = heavy_.top();
  out.reserve(std::min(limit, ranked.size()));
  for (const HeavyTable::Entry& e : ranked) {
    if (out.size() >= limit) break;
    out.push_back(HeavyHitter{e.key.unpack(), e.bytes, e.packets, e.error_bytes});
  }
  return out;
}

TierReport merge_tiers(const std::vector<const FlowTier*>& tiers,
                       std::size_t limit) {
  TierReport report;
  std::vector<HeavyHitter> all;
  for (const FlowTier* tier : tiers) {
    if (tier == nullptr) continue;
    report.stats.merge(tier->stats());
    // Each shard's full table; ranking happens after concatenation.
    std::vector<HeavyHitter> hh = tier->heavy_hitters(tier->tracked_flows());
    all.insert(all.end(), hh.begin(), hh.end());
  }
  std::sort(all.begin(), all.end(), [](const HeavyHitter& a, const HeavyHitter& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    return net::PackedFlowKey(a.flow).k1 != net::PackedFlowKey(b.flow).k1
               ? net::PackedFlowKey(a.flow).k1 < net::PackedFlowKey(b.flow).k1
               : net::PackedFlowKey(a.flow).k2 < net::PackedFlowKey(b.flow).k2;
  });
  if (all.size() > limit) all.resize(limit);
  report.heavy_hitters = std::move(all);
  return report;
}

}  // namespace zpm::sketch
