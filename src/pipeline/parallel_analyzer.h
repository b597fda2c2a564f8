// Flow-sharded parallel analysis pipeline.
//
// The paper's campus deployment pushed 1.8B packets through the
// analysis tools in 12 hours; a single-threaded per-packet loop caps
// well short of that. This module scales `core::Analyzer` across cores
// with the classic capture-pipeline split (cf. CoMo): a producer stage
// decodes raw frames and dispatches each packet by
// hash(five_tuple().canonical()) % N over lock-free SPSC rings to N
// worker shards, each owning a private Analyzer — all per-flow,
// per-stream and per-meeting state stays thread-local, so the hot path
// takes zero locks.
//
// Two kinds of state are not 5-tuple-local and get special treatment:
//   * STUN-announced P2P candidates are keyed by endpoint (§4.1); the
//     dispatcher broadcasts STUN exchanges to every shard (candidate
//     registration only — the owner shard alone counts the packet).
//   * Duplicate-media grouping (§4.3), meeting grouping and SFU RTT
//     copy-matching (§5.3 M1) span flows; shards journal those
//     operations (core::ShardJournal) and finish() replays all journals
//     in global packet order through one MeetingGrouper/RtpCopyMatcher.
//
// The replay makes the merged result *bit-identical* to the serial
// Analyzer on the same trace — the correctness contract, enforced by
// tests/test_parallel_pipeline.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "capture/batch_filter.h"
#include "core/analyzer.h"
#include "net/packet.h"
#include "util/spsc_ring.h"

namespace zpm::pipeline {

/// Parallel pipeline configuration.
struct ParallelAnalyzerConfig {
  /// Per-shard analyzer configuration (identical across shards).
  core::AnalyzerConfig analyzer;
  /// Worker shard count. 1 still runs the full dispatch/merge machinery
  /// (useful for testing); use core::Analyzer directly for a serial path.
  std::size_t shards = 4;
  /// Per-shard ring capacity in packets (rounded up to a power of two).
  std::size_t ring_capacity = 1 << 13;
  /// Live-mode bounded dispatch: publish with bounded retries instead of
  /// blocking on a full shard ring; items that still do not fit after
  /// `push_retry_rounds` are shed (Full items land in
  /// health().overload_shed_l4, see ring_shed_packets()). Off by
  /// default — replay/file modes keep the lossless blocking push and
  /// all existing bit-identity guarantees.
  bool bounded_push = false;
  /// Retry rounds (each a yield) before bounded dispatch sheds.
  std::uint32_t push_retry_rounds = 128;
  /// Fault injection for overload tests: the worker with this shard
  /// index sleeps `fault_slow_us` microseconds per drained batch,
  /// deterministically manufacturing ring backpressure. SIZE_MAX
  /// disables.
  std::size_t fault_slow_shard = SIZE_MAX;
  std::uint32_t fault_slow_us = 0;
};

/// How long the packet bytes behind an offer_batch() call stay valid.
enum class BatchLifetime : std::uint8_t {
  /// The views point into storage that outlives finish() — e.g. a
  /// memory-mapped trace held by the caller. Shards analyze the bytes
  /// in place; nothing is copied.
  Pinned,
  /// The views point into a buffer the caller reuses after the call
  /// returns (a streamed trace's refill buffer). The batch's bytes are
  /// copied once into a refcounted block shared by all its items.
  Transient,
};

/// See file comment.
class ParallelAnalyzer {
 public:
  explicit ParallelAnalyzer(ParallelAnalyzerConfig config);
  /// Joins workers; safe after finish().
  ~ParallelAnalyzer();

  ParallelAnalyzer(const ParallelAnalyzer&) = delete;
  ParallelAnalyzer& operator=(const ParallelAnalyzer&) = delete;

  /// Offers one raw captured frame (producer thread only). The packet
  /// is decoded here and shipped to its owner shard; recognition
  /// results are only available after finish().
  void offer(net::RawPacket pkt);

  /// Offers a batch of raw frames (producer thread only): the zero-copy
  /// fast path. Packets are decoded here, grouped per owner shard, and
  /// published with one ring operation per shard per batch. With
  /// BatchLifetime::Pinned nothing is copied; with Transient the batch
  /// is copied once into a shared block (never per packet, per shard).
  /// Bit-identical to calling offer() per packet.
  void offer_batch(std::span<const net::RawPacketView> batch,
                   BatchLifetime lifetime);

  /// Same, with capture front-end verdicts (index-aligned with `batch`,
  /// from a capture::BatchFilter configured with this pipeline's server
  /// db and shard count — both are part of the bit-identity contract):
  ///   * Reject  — accounted (totals, stream order, snaplen,
  ///     frontend_rejected) and dropped without header decode.
  ///   * Admit   — decoded and shipped to the precomputed owner shard;
  ///     the STUN-candidate broadcast check runs only when
  ///     capture::kFlagStunPort is set (a superset of packets that can
  ///     pass it).
  ///   * FullParse — exactly the plain offer_batch() path.
  /// Results stay bit-identical to offer_batch() without verdicts.
  void offer_batch(std::span<const net::RawPacketView> batch,
                   BatchLifetime lifetime,
                   const capture::BatchVerdicts& verdicts);

  /// Closes the rings, joins the workers and runs the merge step. Must
  /// be called exactly once, after the last offer().
  void finish();

  // --- Results (valid after finish()) ---------------------------------

  /// Merged trace-wide counters (bit-identical to serial).
  [[nodiscard]] const core::AnalyzerCounters& counters() const { return counters_; }
  /// Merged health counters. Every field except `ring_wait_spins`
  /// (timing-dependent backpressure) is bit-identical to serial.
  [[nodiscard]] const core::AnalyzerHealth& health() const { return health_; }
  /// Earliest strict violation across dispatcher and shards, when
  /// config.analyzer.strict is set (populated by finish(); decode-level
  /// violations are visible as soon as offer() sees them).
  [[nodiscard]] const std::optional<core::StrictViolation>& strict_violation() const {
    return violation_;
  }
  /// All streams in global creation order (the serial Analyzer's order);
  /// media/meeting ids are the re-grouped global ones.
  [[nodiscard]] const std::vector<core::StreamInfo*>& streams() const {
    return streams_;
  }
  /// Distinct media ids after cross-shard duplicate re-grouping.
  [[nodiscard]] std::uint64_t media_count() const { return next_media_id_; }
  /// The merged meeting grouper.
  [[nodiscard]] const core::MeetingGrouper& meetings() const { return grouper_; }
  /// Distinct Zoom flows (canonical 5-tuples) across all shards.
  [[nodiscard]] std::size_t zoom_flow_count() const { return zoom_flow_count_; }
  /// §5.3 method-1 RTT samples from the global replay, trace-wide.
  [[nodiscard]] const std::vector<metrics::RttSample>& sfu_rtt_samples() const {
    return sfu_rtt_samples_;
  }
  /// TCP control-connection RTT estimators merged across shards.
  [[nodiscard]] const std::unordered_map<net::FiveTuple, metrics::TcpRttEstimator>&
  tcp_rtt() const {
    return tcp_rtt_;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // --- Live pressure signals (producer thread; valid before finish()) --

  /// Max over shards of ring occupancy as a fraction of capacity.
  /// Approximate under concurrency — a pressure signal, not an
  /// accounting value.
  [[nodiscard]] double max_ring_occupancy() const;
  /// Producer push-wait spins accumulated so far across all shard
  /// rings (producer-owned counters; read from the producer thread).
  [[nodiscard]] std::uint64_t producer_wait_spins() const;
  /// Full items shed so far by bounded dispatch (config.bounded_push);
  /// the same count is folded into health().overload_shed_l4.
  [[nodiscard]] std::uint64_t ring_shed_packets() const {
    return ring_shed_packets_;
  }

  /// Sketch-tier promotions seen across all verdict-aware offer_batch()
  /// calls, in arrival order: the pre-admission byte/packet aggregates
  /// the capture front end carried for flows that reached exact
  /// tracking. Side-band context only (reported via --sketch-stats);
  /// never folded into the standard report, which stays bit-identical
  /// with the tier on or off.
  [[nodiscard]] const std::vector<capture::BatchVerdicts::Promotion>&
  promotions() const {
    return promotions_;
  }

 private:
  struct Item;
  struct Shard;

  /// Global-order capture-quality observations + decode, shared by
  /// offer() and offer_batch(). Returns the decoded view, or nullopt
  /// after accounting the undecoded packet.
  std::optional<net::PacketView> ingest(std::uint64_t seq,
                                        const net::RawPacketView& pkt,
                                        std::span<const std::uint8_t> bytes);
  /// If `view` is a valid STUN exchange with a Zoom server, resolves
  /// the campus-side candidate endpoint (§4.1) into ip/port.
  bool stun_candidate(const net::PacketView& view, net::Ipv4Addr* ip,
                      std::uint16_t* port) const;
  /// Shared body of both offer_batch() overloads; `verdicts` is null on
  /// the plain path.
  void offer_batch_impl(std::span<const net::RawPacketView> batch,
                        BatchLifetime lifetime,
                        const capture::BatchVerdicts* verdicts);
  void replay_journals();

  ParallelAnalyzerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;

  // offer_batch() scratch, reused so the steady state allocates nothing:
  // per-shard item staging and the transient block's per-packet offsets.
  std::vector<std::vector<Item>> staging_;
  std::vector<std::size_t> block_offsets_;

  // Packets the producer could not decode still count toward totals
  // (the serial offer() counts them before decoding).
  std::uint64_t undecoded_packets_ = 0;
  std::uint64_t undecoded_bytes_ = 0;

  // Packets the capture front end rejected: counted toward totals, never
  // decoded or shipped to a shard.
  std::uint64_t frontend_rejected_packets_ = 0;
  std::uint64_t frontend_rejected_bytes_ = 0;

  // Sketch-tier promotions accumulated from verdict batches.
  std::vector<capture::BatchVerdicts::Promotion> promotions_;

  // Full items shed by bounded dispatch (see ring_shed_packets()).
  std::uint64_t ring_shed_packets_ = 0;

  // Producer-side health: capture-quality observations and decode
  // failures belong to the global offer order, mirroring the serial
  // Analyzer's journal_ == nullptr accounting. Shard healths are merged
  // in at finish().
  core::AnalyzerHealth health_;
  std::optional<core::StrictViolation> violation_;
  std::optional<util::Timestamp> last_offer_ts_;

  // Merged results.
  core::AnalyzerCounters counters_;
  core::MeetingGrouper grouper_;
  std::vector<core::StreamInfo*> streams_;
  std::uint64_t next_media_id_ = 0;
  std::size_t zoom_flow_count_ = 0;
  std::vector<metrics::RttSample> sfu_rtt_samples_;
  std::unordered_map<net::FiveTuple, metrics::TcpRttEstimator> tcp_rtt_;
};

}  // namespace zpm::pipeline
