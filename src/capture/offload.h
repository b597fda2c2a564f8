// Data-plane metric offload — bucketed RTT/jitter histograms plus a
// spin-bit-style RTT probe, modelled with switch-legal primitives.
//
// The paper (§8) observes its metrics "can be implemented in a
// streaming fashion and are amenable to data-plane implementation".
// This module is that extension for the Tofino model in capture/: the
// switch keeps pre-aggregated interarrival-jitter and RTT histograms
// for the media flows it can fully classify at fixed offsets, so the
// host analyzer skips its per-packet floating-point metric work for
// those "covered" packets and folds the histograms into epoch records
// instead.
//
// Everything here obeys data-plane constraints: fixed-size register
// arrays indexed by a hash with collision-overwrite semantics,
// integer-only arithmetic (EWMA via arithmetic shift, power-of-two
// histogram bucket boundaries computed with a priority encoder /
// bit_width), and no per-packet allocation. Four register groups:
//
//   * per-flow jitter scratch (hash of ssrc+direction+media type →
//     last arrival + integer EWMA of the interarrival delta): each
//     covered packet emits |delta − ewma| into the global jitter
//     histogram. A colliding stream overwrites the slot (counted as an
//     eviction); histogram counters are global, so no samples are lost
//     — only the evicted stream's scratch state restarts.
//   * a spin-bit-like edge probe: an upstream (to-SFU) media packet
//     stamps its arrival into a slot keyed by hash(ssrc, seq, rtp_ts);
//     when the SFU's forwarded copy (identical ssrc/seq/ts, the fact
//     the host RtpCopyMatcher exploits) passes the tap downstream, the
//     arrival delta is an RTT sample for the tap↔SFU path — derived
//     without parsing media payloads, like tracking the QUIC spin bit.
//   * histogram counter registers: 16 buckets each for jitter and RTT,
//     P4TG-style with power-of-two boundaries (bucket b counts samples
//     in [2^b, 2^(b+1)) µs; bucket 0 also absorbs 0–1 µs; the top
//     bucket clamps).
//   * an SSRC-tag register array (flow_slots entries, indexed by a hash
//     of the SSRC): a packet whose slot is valid but holds another SSRC
//     overwrites it, counted as a telemetry collision — the per-SSRC
//     register churn AnalyzerHealth's offload-collisions and --stats
//     report next to the probe collisions.
//
// Register contents are cumulative for the life of the filter, exactly
// what a control plane polling switch registers observes. Collision and
// eviction patterns depend on how flows partition across per-shard
// offload instances, so — like the sketch tier's churn counters — the
// offload section is NOT part of the serial-vs-sharded bit-identity
// contract; the standard report sections remain so.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "capture/resources.h"
#include "util/bytes.h"
#include "util/counter_table.h"
#include "util/time.h"

namespace zpm::capture {

/// Histogram bucket count (fits a 4-bit priority-encoder result).
inline constexpr std::size_t kOffloadBuckets = 16;

/// Power-of-two bucketing: bucket b covers [2^b, 2^(b+1)) µs for b ≥ 1;
/// bucket 0 covers [0, 2) µs; values ≥ 2^15 µs clamp to the top bucket.
/// One subtract + count-leading-zeros — a single-stage switch primitive.
std::size_t offload_bucket(std::uint64_t us);

/// One cumulative histogram register group.
struct OffloadHistogram {
  std::array<std::uint64_t, kOffloadBuckets> buckets{};
  std::uint64_t samples = 0;

  void add(std::uint64_t us) {
    ++buckets[offload_bucket(us)];
    ++samples;
  }
  void merge(const OffloadHistogram& other) {
    for (std::size_t b = 0; b < kOffloadBuckets; ++b) buckets[b] += other.buckets[b];
    samples += other.samples;
  }
  bool operator==(const OffloadHistogram&) const = default;
};

/// The control-plane view of one offload instance's registers (merged
/// across shards by OffloadReport::merge; summing is exact because each
/// counter register is only ever incremented).
struct OffloadReport {
  OffloadHistogram jitter;  ///< |interarrival − EWMA| deviation, µs
  OffloadHistogram rtt;     ///< tap↔SFU probe round trips, µs
  std::uint64_t covered_packets = 0;   ///< packets the offload absorbed
  std::uint64_t probe_arms = 0;        ///< upstream stamps written
  std::uint64_t probe_collisions = 0;  ///< armed slot overwritten by another word
  std::uint64_t flow_evictions = 0;    ///< jitter scratch slot overwritten
  std::uint64_t telemetry_collisions = 0;  ///< SSRC-tag slot overwritten

  void merge(const OffloadReport& other);
  /// probe + SSRC-tag slot overwrites (the AnalyzerHealth feed).
  [[nodiscard]] std::uint64_t collisions() const {
    return probe_collisions + telemetry_collisions;
  }
  bool operator==(const OffloadReport&) const = default;
};

/// The scalar OffloadReport counters, in declaration order (the wire
/// order after the two histograms; util/counter_table.h).
inline constexpr std::array<util::CounterField<OffloadReport>, 5>
    kOffloadReportFields{{
        {&OffloadReport::covered_packets, "covered-packets"},
        {&OffloadReport::probe_arms, "probe-arms"},
        {&OffloadReport::probe_collisions, "probe-collisions"},
        {&OffloadReport::flow_evictions, "flow-evictions"},
        {&OffloadReport::telemetry_collisions, "telemetry-collisions"},
    }};

// A scalar counter added to OffloadReport without a row fails here.
static_assert(sizeof(OffloadReport) ==
                  offsetof(OffloadReport, covered_packets) +
                      kOffloadReportFields.size() * sizeof(std::uint64_t) &&
              util::distinct_members(kOffloadReportFields));

/// Deterministic big-endian codec for the epoch/snapshot formats and
/// the fuzz_offload fixpoint target.
void encode_offload_report(const OffloadReport& report, util::ByteWriter& w);
std::optional<OffloadReport> decode_offload_report(util::ByteReader& r);

/// Fields the data plane extracts from a covered media frame at fixed
/// offsets (no parsing): SFU direction byte, media encap type, and the
/// RTP seq/ts/ssrc behind the documented per-type payload offset.
struct OffloadFields {
  std::uint8_t direction = 0;   ///< zoom::kSfuDirToSfu or kSfuDirFromSfu
  std::uint8_t media_type = 0;  ///< zoom::MediaEncapType (media kinds only)
  std::uint16_t seq = 0;
  std::uint32_t rtp_ts = 0;
  std::uint32_t ssrc = 0;
  std::uint32_t clock_hz = 0;       ///< from the media kind (90 k / 48 k)
  std::uint32_t payload_bytes = 0;  ///< UDP payload length
};

/// Fixed-offset extraction from a raw Ethernet frame that already passed
/// the front end's Zoom shape probe (clean 20-byte IPv4 + UDP, SFU type
/// 5, known media type, known RTP payload type). Returns nullopt when
/// the frame is not a server media packet with a complete RTP fixed
/// header and a known SFU direction — those packets stay host-handled.
std::optional<OffloadFields> extract_offload_fields(
    std::span<const std::uint8_t> frame);

/// Register array sizing. Both counts must be powers of two.
struct OffloadConfig {
  std::size_t flow_slots = 1024;   ///< jitter scratch registers
  std::size_t probe_slots = 2048;  ///< spin-bit probe registers
};

/// What one on_media_packet() update did, so the caller can account
/// coverage and churn without re-reading the registers.
struct OffloadUpdate {
  std::uint8_t probe_collisions = 0;
  std::uint8_t flow_evictions = 0;
  std::uint8_t telemetry_collisions = 0;
};

/// See file comment.
class DataPlaneOffload {
 public:
  explicit DataPlaneOffload(OffloadConfig config = {});

  /// Absorbs one covered media packet (fields from
  /// extract_offload_fields, arrival from the capture record).
  OffloadUpdate on_media_packet(util::Timestamp arrival, const OffloadFields& f);

  /// Register contents so far.
  [[nodiscard]] OffloadReport report() const;
  [[nodiscard]] const OffloadConfig& config() const { return config_; }

 private:
  struct FlowSlot {
    std::uint64_t tag = 0;  ///< stream key; 0 = empty
    std::int64_t last_arrival_us = 0;
    std::int64_t ewma_us = 0;
    bool have_delta = false;
  };
  struct ProbeSlot {
    std::uint64_t tag = 0;  ///< probe word; 0 = empty
    std::int64_t arrival_us = 0;
  };

  OffloadConfig config_;
  std::vector<FlowSlot> flows_;
  std::vector<ProbeSlot> probes_;
  std::vector<std::uint64_t> ssrc_tags_;  ///< SSRC | 1 << 32; 0 = empty
  OffloadReport report_;
};

/// Straightforward reimplementation of the update specification, kept
/// deliberately naive: the differential reference for fuzz_offload and
/// the bucketed-vs-exact CDF tests. Same register sizes and collision
/// semantics, but it additionally records every exact µs sample, and
/// its report is rebuilt from those samples with a loop-based bucket
/// search instead of the priority-encoder formulation.
class OffloadReference {
 public:
  explicit OffloadReference(OffloadConfig config = {});

  void on_media_packet(util::Timestamp arrival, const OffloadFields& f);

  /// Histograms rebuilt from the exact sample lists; must equal the
  /// DataPlaneOffload report fed the same packets, bit for bit.
  [[nodiscard]] OffloadReport report() const;
  [[nodiscard]] const std::vector<std::uint64_t>& jitter_samples_us() const {
    return jitter_samples_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& rtt_samples_us() const {
    return rtt_samples_;
  }

 private:
  struct FlowState {
    std::uint64_t tag = 0;
    std::int64_t last_arrival_us = 0;
    std::int64_t ewma_us = 0;
    bool have_delta = false;
  };
  struct ProbeState {
    std::uint64_t tag = 0;
    std::int64_t arrival_us = 0;
  };

  OffloadConfig config_;
  std::vector<FlowState> flows_;
  std::vector<ProbeState> probes_;
  std::vector<std::uint64_t> jitter_samples_;
  std::vector<std::uint64_t> rtt_samples_;
  std::uint64_t covered_packets_ = 0;
  std::uint64_t probe_arms_ = 0;
  std::uint64_t probe_collisions_ = 0;
  std::uint64_t flow_evictions_ = 0;
  std::vector<std::optional<std::uint32_t>> ssrcs_;
  std::uint64_t telemetry_collisions_ = 0;
};

/// Table 5 rows for the offload extension: the histogram stages and the
/// spin-bit probe, sized from `config`. Appended to
/// capture_program_components() when the offload is enabled.
std::vector<ComponentSpec> offload_program_components(
    const OffloadConfig& config = {});

}  // namespace zpm::capture
