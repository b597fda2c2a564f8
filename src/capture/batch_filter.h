// Vectorized two-stage capture front end: the software model of putting
// the paper's Tofino filter (§5) *in front of* the analysis pipeline.
//
// In the campus deployment only the Zoom-identified fraction of 1.8B
// tapped packets ever reached the software tools; everything else was
// rejected at line rate by fixed-offset match tables. This module plays
// that role for trace replay:
//
//   * Stage 1 (BatchFilter::classify) computes a per-packet verdict —
//     Admit / Reject / FullParse — for a whole net::TraceSource batch
//     using branch-light fixed-offset probes on the discriminants the
//     paper reverse-engineers (UDP ports 8801/3478 + the server subnet
//     list, SFU encap type 5, media types {13,15,16,33,34}, the RTP
//     payload-type set, the STUN magic cookie), before any full header
//     decode. A SWAR/SSE2 probe and a scalar reference implementation
//     are selected at runtime (ZPM_NO_SIMD forces scalar) and must be
//     bit-identical (enforced by tests/fuzz/fuzz_batch_filter).
//   * Stage 2 (FlowDispatchTable) replaces the per-packet hash-map flow
//     lookup of the dispatch path with an open-addressing flat table
//     over packed canonical 5-tuples, so admitted packets carry a
//     precomputed owner shard + flow slot into
//     pipeline::ParallelAnalyzer::offer_batch.
//
// Correctness contract (the analyzer's output must stay bit-identical
// with the front end on or off): a packet may only be Rejected when the
// analyzer would provably have returned "not Zoom" with zero counter or
// state side effects beyond the total/stream-order/snaplen accounting
// the caller replays (Analyzer::account_frontend_rejected /
// ParallelAnalyzer's verdict-aware offer_batch). Concretely:
//   * the packet must be "probe-clean" — guaranteed to decode (fixed
//     20-byte IPv4 header, complete UDP/TCP header), so no decode-
//     failure health counter could have fired, and
//   * UDP: neither address is in the server list and neither endpoint
//     was ever a P2P candidate. The filter arms a *superset* of the
//     analyzer's candidate set (both endpoints of any IPv4/UDP packet
//     touching port 3478, never expiring), so it can over-admit —
//     costing only a full parse — but never over-reject.
//   * TCP: neither address is in the server list (the analyzer ignores
//     such packets unconditionally).
// Everything uncertain (non-IPv4, IP options, fragments, truncated L4,
// short frames) is FullParse: the normal decode path, unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "capture/offload.h"
#include "net/five_tuple.h"
#include "net/packet.h"
#include "sketch/sketch.h"
#include "util/counter_table.h"
#include "zoom/server_db.h"

namespace zpm::capture {

/// Stage-1 verdict for one packet of a batch.
enum class Verdict : std::uint8_t {
  FullParse = 0,  ///< cannot pre-classify cheaply; normal decode path
  Admit = 1,      ///< will be analyzed; carries precomputed shard + slot
  Reject = 2,     ///< provably cannot affect analysis; never decoded
};

/// Per-packet auxiliary flags accompanying an Admit verdict.
/// The packet is UDP and touches the STUN port (3478) — the dispatcher
/// only needs to run its STUN-candidate broadcast check on these.
inline constexpr std::uint8_t kFlagStunPort = 0x01;
/// The payload passed the Zoom shape probe (SFU type 5 + known media
/// type + known RTP payload type, or a valid STUN prefix). Look-alike
/// port squatters never get this flag (tests/test_batch_filter.cc).
inline constexpr std::uint8_t kFlagZoomShaped = 0x02;
/// The data-plane offload absorbed this packet's metric work (capture/
/// offload.h): the host dispatch path must skip its per-packet
/// jitter/latency updates for it. Only set when the offload is enabled
/// and extract_offload_fields succeeded on the frame.
inline constexpr std::uint8_t kFlagOffloadCovered = 0x04;

/// classify() output, index-aligned with the input batch. The arrays
/// are only resized (geometric capacity growth), so reusing one
/// instance across batches is allocation-free in steady state.
struct BatchVerdicts {
  /// A flow the sketch tier handed to exact tracking during this batch:
  /// its first Admit arrived after the tier had already summarized
  /// packets for it (e.g. a P2P flow rejected until its endpoint was
  /// STUN-armed). `carried` is the tier's accumulated pre-admission
  /// aggregate — side-band context for the exact tracker, never part of
  /// the standard report (bit-identity contract).
  struct Promotion {
    net::FiveTuple flow;  ///< canonical
    std::uint32_t shard = 0;
    sketch::FlowStats carried;

    bool operator==(const Promotion&) const = default;
  };

  std::vector<Verdict> verdicts;
  std::vector<std::uint8_t> flags;
  std::vector<std::uint32_t> shard;  ///< owner shard; valid for Admit
  std::vector<std::uint32_t> slot;   ///< flow slot; valid for Admit
  /// net::canonical_flow_hash of the packet's canonical 5-tuple; 0 for
  /// packets that were never resolved (FullParse without a probe-clean
  /// header). The overload shedder keys its deterministic admission
  /// sampling off this, so replays shed identically.
  std::vector<std::uint64_t> flow_hash;
  std::vector<Promotion> promotions;  ///< sketch-tier promotions, batch order

  void resize(std::size_t n) {
    verdicts.resize(n);
    flags.resize(n);
    shard.resize(n);
    slot.resize(n);
    flow_hash.resize(n);
    promotions.clear();
  }

  bool operator==(const BatchVerdicts&) const = default;
};

/// Cumulative front-end counters (the filter's selectivity on a trace,
/// cf. the paper's Fig. 17 processed-vs-filtered series).
struct FrontEndStats {
  std::uint64_t packets = 0;       ///< classified, total
  std::uint64_t admitted = 0;      ///< Verdict::Admit
  std::uint64_t rejected = 0;      ///< Verdict::Reject
  std::uint64_t full_parse = 0;    ///< Verdict::FullParse (fallback)
  std::uint64_t zoom_shaped = 0;   ///< admitted with kFlagZoomShaped
  std::uint64_t stun_flagged = 0;  ///< admitted with kFlagStunPort
  std::uint64_t simd_batches = 0;
  std::uint64_t scalar_batches = 0;
  /// Data-plane offload coverage and register churn (zero unless
  /// BatchFilterConfig::dataplane_offload is on).
  std::uint64_t offload_covered = 0;    ///< admits with kFlagOffloadCovered
  std::uint64_t offload_collisions = 0; ///< probe + telemetry slot overwrites
  std::uint64_t offload_evictions = 0;  ///< jitter scratch slot overwrites
  /// Pre-admission aggregate handed over by sketch-tier promotions
  /// (the sum of every BatchVerdicts::Promotion::carried).
  std::uint64_t promoted_packets = 0;
  std::uint64_t promoted_bytes = 0;
};

/// Every FrontEndStats counter, in declaration order (the `--stats`
/// rows; util/counter_table.h).
inline constexpr std::array<util::CounterField<FrontEndStats>, 13>
    kFrontEndStatsFields{{
        {&FrontEndStats::packets, "packets"},
        {&FrontEndStats::admitted, "admitted"},
        {&FrontEndStats::rejected, "rejected"},
        {&FrontEndStats::full_parse, "full-parse"},
        {&FrontEndStats::zoom_shaped, "zoom-shaped"},
        {&FrontEndStats::stun_flagged, "stun-flagged"},
        {&FrontEndStats::simd_batches, "simd-batches"},
        {&FrontEndStats::scalar_batches, "scalar-batches"},
        {&FrontEndStats::offload_covered, "offload-covered"},
        {&FrontEndStats::offload_collisions, "offload-collisions"},
        {&FrontEndStats::offload_evictions, "offload-evictions"},
        {&FrontEndStats::promoted_packets, "promoted-packets"},
        {&FrontEndStats::promoted_bytes, "promoted-bytes"},
    }};

// A counter added to FrontEndStats without a row fails here.
static_assert(sizeof(FrontEndStats) ==
                  kFrontEndStatsFields.size() * sizeof(std::uint64_t) &&
              util::distinct_members(kFrontEndStatsFields));

/// Stage 2: open-addressing flat map from packed canonical 5-tuples to
/// (owner shard, flow slot). Replaces the per-packet
/// std::hash<FiveTuple> + unordered-map probe of the dispatch path for
/// flows seen before: media traffic arrives in per-flow bursts, so the
/// common case is one multiply-xorshift hash and one cache line. Slots
/// are assigned in first-sight order and stable for the table's life.
class FlowDispatchTable {
 public:
  explicit FlowDispatchTable(std::size_t initial_capacity = 1 << 10);

  struct Hit {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
    bool inserted = false;  ///< first sight of this flow
  };

  /// Looks up `canonical` (must be a canonical() 5-tuple), inserting on
  /// first sight with the owner the parallel dispatcher would compute:
  /// net::canonical_flow_hash % shards. Bit-compatibility with
  /// ParallelAnalyzer's routing is the whole point; tests assert it.
  Hit lookup_or_insert(const net::FiveTuple& canonical, std::size_t shards);
  /// Same, with the key and hash the caller already has in hand.
  Hit lookup_or_insert(const net::PackedFlowKey& key, std::uint64_t hash,
                       std::size_t shards);

  /// Removes a flow (sketch-tier demotion). Backward-shift deletion, no
  /// tombstones; the flow's slot id is retired, never reused, so slot
  /// ids stay unique for the table's life. Returns false when absent.
  bool erase(const net::FiveTuple& canonical);

  /// Flows currently resident (insertions minus erasures).
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint64_t k1 = 0;  ///< (src_ip << 32) | dst_ip
    std::uint64_t k2 = 0;  ///< (src_port << 24) | (dst_port << 8) | proto; 0 = empty
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
  };

  void grow();

  std::vector<Entry> entries_;
  std::size_t mask_;
  std::size_t size_ = 0;
  std::size_t next_slot_ = 0;  ///< first-sight slot counter (never reused)
};

/// Stage-1 configuration. `server_db` and `shards` must match the
/// analyzer configuration the verdicts are fed into, or the
/// bit-identity contract (and shard routing) breaks.
struct BatchFilterConfig {
  zoom::ServerDb server_db = zoom::ServerDb::official();
  /// Worker shard count of the consuming pipeline; 1 for serial use.
  std::size_t shards = 1;
  /// Total byte budget for the sketch tier, split evenly across one
  /// sketch::FlowTier per shard; 0 disables the tier. Rejected packets
  /// are summarized (never decoded or shipped), and a flow's first
  /// Admit promotes its accumulated aggregate via
  /// BatchVerdicts::promotions. Verdicts are identical with the tier on
  /// or off — the tier only *observes* the Reject stream.
  std::size_t flow_memory_budget = 0;
  /// Enables the data-plane metric offload (capture/offload.h): one
  /// DataPlaneOffload per shard absorbs the jitter/RTT metric work for
  /// server media packets it can classify at fixed offsets, marking
  /// them kFlagOffloadCovered so the host skips those updates. Verdicts
  /// are identical with the offload on or off — it only adds a flag.
  bool dataplane_offload = false;
  OffloadConfig offload;  ///< register sizing when enabled
};

/// See file comment.
class BatchFilter {
 public:
  enum class Mode : std::uint8_t {
    Auto,         ///< SIMD when compiled in and ZPM_NO_SIMD is unset
    ForceScalar,  ///< scalar reference probe
    ForceSimd,    ///< SWAR/SSE2 probe (still scalar-built binaries SWAR)
  };

  explicit BatchFilter(BatchFilterConfig config, Mode mode = Mode::Auto);

  /// Classifies one batch. `out` is index-aligned with `batch` and
  /// fully overwritten. Stateful: STUN exchanges in this batch arm P2P
  /// candidate endpoints for all later packets (including later in the
  /// same batch, mirroring the analyzer's in-order processing).
  void classify(std::span<const net::RawPacketView> batch, BatchVerdicts& out);

  [[nodiscard]] const FrontEndStats& stats() const { return stats_; }
  /// True when classify() runs the SWAR/SSE2 probe.
  [[nodiscard]] bool simd_active() const { return simd_; }
  /// Distinct admitted flows (FlowDispatchTable size).
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  /// Armed candidate endpoints (superset of the analyzer's, see above).
  [[nodiscard]] std::size_t candidate_endpoint_count() const {
    return candidates_size_;
  }

  // --- Sketch tier ------------------------------------------------------

  [[nodiscard]] bool sketch_enabled() const { return !tiers_.empty(); }
  /// Hands an exact-tracked flow back to the sketch tier (meeting ended,
  /// tracker evicted): removes it from the dispatch table and folds
  /// `carried` — the aggregate the exact tier accumulated — into the
  /// owning shard's sketch. Returns false when the flow is unknown or
  /// the tier is disabled. Counted under `sketch-evicted`.
  bool demote_flow(const net::FiveTuple& canonical,
                   const sketch::FlowStats& carried);
  /// Health feed for the `sketch-evicted` category: SpaceSaving
  /// minimum-entry evictions plus explicit demotions, all shards.
  [[nodiscard]] std::uint64_t sketch_evicted() const;
  /// Merged cross-shard tier report (stats sum + re-ranked heavy
  /// hitters). Exact merge: a flow lives in exactly one shard's tier.
  [[nodiscard]] sketch::TierReport sketch_report(std::size_t limit) const;
  /// Shard-local tier (bench/test introspection); requires sketch_enabled().
  [[nodiscard]] const sketch::FlowTier& tier(std::size_t shard) const {
    return tiers_[shard];
  }

  // --- Data-plane offload -----------------------------------------------

  [[nodiscard]] bool offload_enabled() const { return !offloads_.empty(); }
  /// Merged register contents across all shards (exact: every counter
  /// register is increment-only, so summing is lossless).
  [[nodiscard]] OffloadReport offload_report() const;
  /// Shard-local offload (bench/test introspection); requires
  /// offload_enabled().
  [[nodiscard]] const DataPlaneOffload& offload(std::size_t shard) const {
    return offloads_[shard];
  }

 private:
  /// Order-independent per-packet facts, produced identically by the
  /// scalar and SWAR/SSE2 probe layers; the stateful resolve pass that
  /// consumes them is shared, which is what makes scalar/SIMD parity
  /// structural rather than incidental.
  struct Probe {
    std::uint32_t flags = 0;
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t proto = 0;
  };

  /// Scalar reference probe for one packet — the byte-by-byte
  /// specification the SWAR/SSE2 path must match (and falls back to for
  /// lanes it cannot handle: short frames, odd layouts, big-endian).
  static Probe probe_one_scalar(std::span<const std::uint8_t> data);

  void probe_batch_scalar(std::span<const net::RawPacketView> batch);
  void probe_batch_simd(std::span<const net::RawPacketView> batch);
  void resolve(std::span<const net::RawPacketView> batch, BatchVerdicts& out);

  // Never-expiring open-addressing set over (ip << 16 | port) keys.
  [[nodiscard]] bool candidate_contains(std::uint64_t key) const;
  void candidate_insert(std::uint64_t key);
  void candidate_grow();

  BatchFilterConfig config_;
  bool simd_;
  FrontEndStats stats_;
  FlowDispatchTable flows_;
  std::vector<sketch::FlowTier> tiers_;  // one per shard; empty = disabled
  std::vector<DataPlaneOffload> offloads_;  // one per shard; empty = disabled
  std::vector<Probe> probes_;  // classify() scratch, reused
  std::vector<std::uint64_t> candidates_;
  std::size_t candidates_mask_;
  std::size_t candidates_size_ = 0;
  bool candidates_has_zero_ = false;
};

}  // namespace zpm::capture
