// Epoch rotation for continuous operation.
//
// A long-running monitor cannot hold per-flow state forever, and a
// crash must not cost a week of results. The epoch engine bounds both:
// the packet stream is cut into *epochs* — independent measurement
// windows, each analyzed by a fresh analyzer/front-end instance — and
// every completed epoch becomes one immutable, serializable record.
// Rotation retires the previous window's flow and meeting state, which
// is the memory bound; the retirement is accounted in the finished
// epoch's health (`epoch-evicted-flows`, `epoch-evicted-meetings`) so
// eviction is visible, never silent.
//
// Determinism contract (what makes crash recovery testable): rotation
// triggers are pure functions of the packet sequence — a packet count
// and a capture-timestamp span, never the wall clock — and the engine
// splits incoming batches packet-exactly at the boundary. Epoch N's
// record is therefore a function of (packet stream, configuration)
// alone: identical across batch sizes and interrupted/restarted runs.
// The analyzer-derived fields are additionally shard-count-invariant
// (the pipeline's bit-identity contract); the sketch-tier summary is
// not — the front end partitions its flow tables by shard, so tier
// eviction patterns legitimately depend on the shard count, though
// they stay deterministic for any fixed count. The data-plane offload
// summary follows the same rule: which packets are *covered* is a pure
// per-packet predicate (shard-invariant), but the offload's register
// histograms and collision counters live in per-shard instances, so
// their slot-collision churn depends on the shard count while staying
// deterministic for any fixed count. Nondeterministic gauges
// (`ring_wait_spins`, `source_stalls`) are zeroed in the durable
// record.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "capture/batch_filter.h"
#include "core/analyzer.h"
#include "overload/overload.h"
#include "pipeline/parallel_analyzer.h"
#include "query/journal.h"
#include "sketch/sketch.h"
#include "util/bytes.h"
#include "util/time.h"

namespace zpm::analysis {

/// Rotation triggers; an epoch closes when either fires. Both are
/// capture-sequence-deterministic (see file comment).
struct EpochLimits {
  /// Close after this many offered packets. 0 disables the trigger.
  std::uint64_t max_packets = 1'000'000;
  /// Close when the epoch's capture-time extent reaches this span
  /// (first to current packet timestamp). Zero/negative disables.
  util::Duration max_span = util::Duration::seconds(60.0);

  [[nodiscard]] bool any_enabled() const {
    return max_packets > 0 || max_span > util::Duration::micros(0);
  }
};

/// Engine configuration. `shards` > 1 routes through
/// pipeline::ParallelAnalyzer (epoch records are bit-identical).
struct EpochEngineConfig {
  core::AnalyzerConfig analyzer;
  std::size_t shards = 1;
  bool frontend = true;
  std::size_t flow_memory_budget = std::size_t{1} << 20;  // 0 = no sketch tier
  /// Data-plane metric offload (capture/offload.h): the front end keeps
  /// in-dataplane RTT/jitter histograms for covered media flows and the
  /// host skips the per-packet estimator work for them. Requires the
  /// front end; ignored when `frontend` is false.
  bool dataplane_offload = false;
  capture::OffloadConfig offload;
  EpochLimits limits;
  /// Heavy hitters retained per epoch record.
  std::size_t heavy_hitter_limit = 16;
  /// Overload governance (zpm::overload). Disabled by default; enabled
  /// with an empty inject spec the governor reads real pipeline signals
  /// (live mode), with a spec it is fully deterministic.
  overload::OverloadOptions overload;
  /// Live-mode bounded dispatch for the sharded pipeline: the producer
  /// never blocks on a full shard ring; overflow is shed and accounted
  /// (overload_shed_l4). Leave false for lossless replay/file analysis.
  bool bounded_dispatch = false;
  /// Fault injection passed through to the pipeline (overload tests):
  /// shard `fault_slow_shard` sleeps `fault_slow_us` per drained batch.
  std::size_t fault_slow_shard = SIZE_MAX;
  std::uint32_t fault_slow_us = 0;
  /// Metric-journal collection (query/journal.h): every completed epoch
  /// additionally yields `shards` journal slices — per-stream and
  /// per-meeting aggregate rows built from the analyzer state retired
  /// at rotation, plus the encoded epoch report on shard 0. The slices
  /// are returned through offer()/flush()'s out-params; the engine
  /// itself never touches a file.
  bool collect_journal = false;
};

/// One completed epoch: the durable unit of the daemon. Everything in
/// here is deterministic (see file comment) and round-trips through
/// encode_epoch_report()/decode_epoch_report().
struct EpochReport {
  std::uint64_t seq = 0;            ///< 0-based epoch sequence number
  std::uint64_t first_packet = 0;   ///< global index of the first packet
  std::uint64_t packets = 0;        ///< packets offered to this epoch
  util::Timestamp first_ts;         ///< capture time of the first packet
  util::Timestamp last_ts;          ///< capture time of the last packet
  core::AnalyzerCounters counters;
  core::AnalyzerHealth health;      ///< nondeterministic gauges zeroed
  std::uint64_t stream_count = 0;
  std::uint64_t media_count = 0;
  std::uint64_t meeting_count = 0;
  std::uint64_t zoom_flow_count = 0;
  sketch::TierStats tier_stats;
  std::vector<sketch::HeavyHitter> heavy_hitters;
  /// Highest overload level the governor reached during this epoch.
  /// >= 3 means media-flow coverage was degraded (sampled); the shed
  /// totals are in health.overload_shed_l1..l4.
  std::uint32_t max_overload_level = 0;
  /// Data-plane offload summary: merged per-shard RTT/jitter histogram
  /// registers plus coverage/collision accounting. All-zero when the
  /// offload is disabled (and encoded as such — the record format is
  /// fixed, not conditional).
  capture::OffloadReport offload;

  bool operator==(const EpochReport&) const = default;
};

/// Deterministic binary encoding (big-endian, sparse tallies). Equal
/// reports encode to equal bytes — the crash-recovery byte-compare
/// artifact.
void encode_epoch_report(const EpochReport& report, util::ByteWriter& w);
/// Bounds-checked decode; false on truncation or malformed framing
/// (`report` may be partially filled — discard it).
bool decode_epoch_report(util::ByteReader& r, EpochReport& report);

/// See file comment. Single producer thread; drives a serial Analyzer
/// or a ParallelAnalyzer per epoch plus an optional capture front end.
/// It is the one ingest driver: the daemon rotates it, while the file
/// surfaces (zpm_analyze, campus_monitor --pcap, run_campus) run it as
/// one window with both limits off, finish() it and read the report
/// and the closed-window accessors.
class EpochEngine {
 public:
  explicit EpochEngine(EpochEngineConfig config);
  ~EpochEngine();

  EpochEngine(const EpochEngine&) = delete;
  EpochEngine& operator=(const EpochEngine&) = delete;

  /// Feeds one batch, splitting it packet-exactly at rotation
  /// boundaries; every epoch completed inside the batch is appended to
  /// `completed`. `lifetime` follows the pipeline contract (Pinned
  /// requires the batch storage to outlive the epoch it lands in).
  /// With `collect_journal`, one EpochSliceSet per completed epoch is
  /// appended to `slices` (ignored when null or collection is off).
  void offer(std::span<const net::RawPacketView> batch,
             pipeline::BatchLifetime lifetime,
             std::vector<EpochReport>& completed,
             std::vector<query::EpochSliceSet>* slices = nullptr);

  /// Closes the in-progress epoch (graceful drain / end of stream).
  /// nullopt when the current epoch is empty. With `collect_journal`,
  /// the closed epoch's slices land in `*slices` when non-null.
  std::optional<EpochReport> flush(query::EpochSliceSet* slices = nullptr);

  /// Closes the in-progress epoch for good: the record (and `*slices`)
  /// are byte-identical to what flush() would return, but no next epoch
  /// opens, so no fresh front end or shard workers are built only to be
  /// torn down. nullopt when the epoch is empty. The closed window stays
  /// readable through the accessors below; offer()/flush()/finish() must
  /// not be called again.
  std::optional<EpochReport> finish(query::EpochSliceSet* slices = nullptr);

  // --- Closed window (valid after finish()) ------------------------------

  /// The window's streams in report order, one list for the serial and
  /// sharded modes (serial mode rebuilds it into reused scratch).
  [[nodiscard]] std::span<const core::StreamInfo* const> streams() const;
  [[nodiscard]] const core::MeetingGrouper& meetings() const;
  /// First malformed record when `analyzer.strict` is set.
  [[nodiscard]] std::optional<core::StrictViolation> strict_violation() const;
  /// The capture front end; null when `frontend` is off.
  [[nodiscard]] const capture::BatchFilter* frontend() const {
    return filter_ ? &*filter_ : nullptr;
  }

  /// Immediate limit change (SIGHUP): applies to the current epoch too,
  /// so a shortened span can close it on the very next packet.
  void set_limits(const EpochLimits& limits) { config_.limits = limits; }
  /// Staged engine change (SIGHUP): the new analyzer/front-end
  /// configuration takes effect at the next rotation, so the current
  /// epoch's flow state is never dropped mid-window.
  void stage_config(const core::AnalyzerConfig& analyzer, bool frontend,
                    std::size_t flow_memory_budget);

  /// Sequence number the next completed epoch will carry.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  /// Restores the epoch numbering after a snapshot restore.
  void set_next_seq(std::uint64_t seq);
  /// Packets offered to the in-progress epoch.
  [[nodiscard]] std::uint64_t packets_in_current() const { return packets_; }
  /// Global packet index of the next offered packet.
  [[nodiscard]] std::uint64_t global_packets() const { return global_packets_; }
  /// Restores the global packet position after a snapshot restore.
  /// Re-aligns the overload observation boundary: window boundaries are
  /// absolute global-index multiples, so a restarted run observes at
  /// the same points an uninterrupted one does.
  void set_global_packets(std::uint64_t n);

  [[nodiscard]] const EpochEngineConfig& config() const { return config_; }

  // --- Overload governance ---------------------------------------------

  /// Current ladder level (0 when the governor is disabled).
  [[nodiscard]] int overload_level() const {
    return governor_ ? governor_->level() : 0;
  }
  /// Smoothed pressure after the last observation (0 when disabled).
  [[nodiscard]] double overload_pressure() const {
    return governor_ ? governor_->pressure() : 0.0;
  }
  /// Governor lifetime counters (all zero when disabled).
  [[nodiscard]] overload::GovernorStats governor_stats() const {
    return governor_ ? governor_->stats() : overload::GovernorStats{};
  }
  /// Shedder lifetime totals (ladder sheds only; bounded-dispatch ring
  /// sheds are accounted in the epoch healths' overload_shed_l4).
  [[nodiscard]] const overload::ShedStats& shed_stats() const {
    return shedder_.stats();
  }
  /// Live retune of the governor thresholds (daemon SIGHUP). Applies
  /// immediately; level, streaks and counters are preserved. No-op when
  /// the governor is disabled.
  void set_overload_thresholds(const overload::GovernorConfig& config);
  /// Feeds kernel drop deltas from the live source into the next
  /// pressure observation (daemon poll loop).
  void note_kernel_drops(std::uint64_t delta) {
    pending_kernel_drops_ += delta;
  }

 private:
  void open_epoch();
  /// Drains the window's analyzer so its results are final.
  void finish_analyzer();
  /// With journal collection on and `slices` non-null, also builds the
  /// closed epoch's journal slices — after the report's gauge zeroing,
  /// so the slice-carried report bytes equal the durable epoch record.
  EpochReport close_epoch(query::EpochSliceSet* slices = nullptr);
  /// True when the epoch must rotate before admitting a packet at `ts`.
  [[nodiscard]] bool rotate_before(util::Timestamp ts) const;
  void feed(std::span<const net::RawPacketView> run,
            pipeline::BatchLifetime lifetime);
  /// One governor observation at the current global-index window
  /// boundary (injected pressure, or real signals).
  void observe_window();

  EpochEngineConfig config_;
  std::optional<EpochEngineConfig> staged_;  // applies at next rotation

  // Per-epoch engines, rebuilt at every rotation (epochs are
  // independent windows; this reset *is* the memory bound).
  std::optional<core::Analyzer> serial_;
  std::optional<pipeline::ParallelAnalyzer> parallel_;
  std::optional<capture::BatchFilter> filter_;
  capture::BatchVerdicts verdicts_;  // classify() scratch, reused

  // Overload governance. The governor persists across rotations — the
  // ladder tracks sustained pressure, not epoch boundaries — while the
  // shedder's per-flow sampling counters reset with the front end's
  // slot ids at every rotation.
  std::optional<overload::OverloadGovernor> governor_;
  overload::PressureSchedule schedule_;
  overload::LoadShedder shedder_;
  overload::ShedStats shed_base_;        // shedder totals at epoch open
  std::uint64_t next_observe_ = 0;       // next observation boundary (global)
  std::uint64_t spins_base_ = 0;         // producer wait spins at last observe
  std::uint64_t pending_kernel_drops_ = 0;
  double feed_latency_ewma_us_ = 0.0;    // smoothed per-packet feed latency
  int epoch_max_level_ = 0;
  std::vector<net::RawPacketView> shed_run_;  // shedder scratch, reused
  capture::BatchVerdicts shed_verdicts_;
  mutable std::vector<const core::StreamInfo*> stream_list_;  // streams() scratch

  std::uint64_t next_seq_ = 0;
  std::uint64_t global_packets_ = 0;  // next packet's global index
  std::uint64_t packets_ = 0;         // offered to the current epoch
  util::Timestamp first_ts_;
  util::Timestamp last_ts_;
};

}  // namespace zpm::analysis
