// Analyzer health accounting: per-category counters for every record
// the pipeline drops, quarantines, or merely distrusts. A production
// tap (the paper ran 12 hours against 1.8B live campus packets)
// delivers snaplen-truncated records, middlebox-mangled headers,
// capture gaps and port-squatting non-Zoom traffic; these counters make
// that visible instead of silently skewing the metrics.
//
// Determinism contract: every counter except the gauges —
// `ring_wait_spins`, `source_stalls`, `kernel_packets`, `kernel_drops`
// — is a pure function of the offered packet sequence, so serial and
// sharded runs must produce bit-identical values (enforced by
// tests/test_health.cc). `ring_wait_spins` measures backpressure of
// the parallel pipeline's SPSC rings, `source_stalls` counts wall-
// clock watchdog firings, and the kernel counters mirror the live
// capture backend's drop statistics; all are inherently timing-
// dependent and are zeroed in durable epoch records
// (src/analysis/epoch.cc). The `overload_shed_l*` counters sit on the
// deterministic side *when pressure is injected* (overload::
// PressureSchedule drives the governor from packet indices); under
// real live-mode signals they are timing-dependent like any shed.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "net/packet.h"
#include "util/counter_table.h"
#include "util/time.h"

namespace zpm::core {

/// See file comment. All counters count packets (records), not bytes.
struct AnalyzerHealth {
  // -- L2-L4 decode failures (net::decode_packet drop sites) --
  std::uint64_t truncated_l2 = 0;    // frame shorter than an Ethernet header
  std::uint64_t non_ipv4 = 0;        // ARP / IPv6 / LLDP / ... (benign)
  std::uint64_t bad_l3 = 0;          // truncated or inconsistent IPv4 header
  std::uint64_t ip_fragments = 0;    // non-first fragments (no L4 header)
  std::uint64_t unsupported_l4 = 0;  // IP protocol other than UDP/TCP (benign)
  std::uint64_t bad_l4 = 0;          // truncated or inconsistent UDP/TCP header

  // -- capture-quality observations (packet still analyzed) --
  std::uint64_t snaplen_truncated = 0;  // captured bytes < reported wire length
  std::uint64_t non_monotonic_ts = 0;   // timestamp regressed vs. previous record

  // -- front-end screening (capture::BatchFilter; packet counted in the
  //    totals but provably irrelevant, so it is never decoded) --
  std::uint64_t frontend_rejected = 0;
  // -- sketch tier churn (accounting only, no packet is dropped): flows
  //    the bounded heavy-hitter table evicted under memory pressure plus
  //    flows explicitly demoted from exact tracking back to the sketch --
  std::uint64_t sketch_evicted = 0;

  // -- Zoom-layer parse failures --
  std::uint64_t bad_sfu_encap = 0;    // server payload < 8-byte SFU encap
  std::uint64_t bad_media_encap = 0;  // known encap type, truncated header
  std::uint64_t malformed_rtp = 0;    // media encap promised RTP, parse failed
  std::uint64_t malformed_rtcp = 0;   // RTCP encap type, empty compound parse
  std::uint64_t malformed_stun = 0;   // port-3478 exchange that is not STUN

  // -- suspicious-but-analyzed observations --
  std::uint64_t unknown_payload_type = 0;  // RTP payload type outside Table 3

  // -- flow quarantine (repeatedly malformed flows, see AnalyzerConfig) --
  std::uint64_t quarantined_flows = 0;    // flows that crossed the threshold
  std::uint64_t quarantined_packets = 0;  // packets skipped on those flows

  // -- epoch rotation (continuous operation; accounting only, no packet
  //    is dropped): flow/meeting state retired when the daemon closes an
  //    epoch and resets its engine, so bounded memory is visible --
  std::uint64_t epoch_evicted_flows = 0;
  std::uint64_t epoch_evicted_meetings = 0;

  // -- overload-governor sheds (zpm::overload ladder; every packet the
  //    pipeline deliberately gave up, by the level that shed it — the
  //    conservation invariant offered == admitted + shed + kernel_drops
  //    is asserted over these) --
  std::uint64_t overload_shed_l1 = 0;  // Reject verdicts dropped pre-dispatch
  std::uint64_t overload_shed_l2 = 0;  // non-Zoom-candidate admission sampling
  std::uint64_t overload_shed_l3 = 0;  // media-flow packet sampling (degraded)
  std::uint64_t overload_shed_l4 = 0;  // whole-batch head-drop + ring sheds

  // -- parallel-pipeline backpressure (nondeterministic, see above) --
  std::uint64_t ring_wait_spins = 0;  // producer spins on a full shard ring
  // -- live-source watchdog (nondeterministic: wall-clock driven) --
  std::uint64_t source_stalls = 0;  // watchdog-detected quiet source + reopen
  // -- kernel capture statistics (live sources only; gauges, zeroed in
  //    durable records like ring_wait_spins / source_stalls) --
  std::uint64_t kernel_packets = 0;  // seen at the kernel filter point
  std::uint64_t kernel_drops = 0;    // dropped for lack of ring space

  // -- data-plane metric offload (capture/offload.h; accounting only,
  //    no packet is dropped — covered packets are analyzed normally
  //    minus the metric work the switch registers absorbed). Like
  //    sketch_evicted, the collision/eviction churn depends on how
  //    flows partition across per-shard offload instances, so these sit
  //    outside the serial-vs-sharded bit-identity contract. --
  std::uint64_t offload_covered_packets = 0;  // packets the offload absorbed
  std::uint64_t offload_collisions = 0;  // probe + telemetry slot overwrites
  std::uint64_t offload_evictions = 0;   // jitter scratch slot overwrites

  bool operator==(const AnalyzerHealth&) const = default;

  /// Adds another shard's counters (kHealthFields; plain u64 sums, so
  /// merging per-shard values in any order is bit-identical to serial
  /// counting).
  void merge(const AnalyzerHealth& o);

  /// Total packets deliberately shed by the overload ladder (all
  /// levels). Accounted degradation, not loss: excluded from
  /// dropped_records() for the same reason frontend_rejected is.
  [[nodiscard]] std::uint64_t overload_shed_total() const {
    return overload_shed_l1 + overload_shed_l2 + overload_shed_l3 +
           overload_shed_l4;
  }

  /// Records that could not be (fully) analyzed: the sum of the
  /// HealthClass::Drop rows — undecodable frames, Zoom-layer parse
  /// failures, and quarantined packets.
  [[nodiscard]] std::uint64_t dropped_records() const;

  /// True when every counter is zero — the expected state on a clean
  /// (e.g. simulator-generated, uncorrupted) trace.
  [[nodiscard]] bool all_clear() const { return *this == AnalyzerHealth{}; }

  /// True when every drop and observation counter is zero: each record
  /// was fully analyzed and nothing looked off. Accounting and gauge
  /// rows are ignored, so the verdict is the same with the front end,
  /// sketch tier, offload or overload ladder on or off and with or
  /// without epoch rotation. The CLIs' "all clear" line is this.
  [[nodiscard]] bool records_clear() const;
};

/// One AnalyzerHealth counter, as a member pointer.
using HealthCounter = std::uint64_t AnalyzerHealth::*;

/// What a health counter means for the report (kHealthFields).
enum class HealthClass : std::uint8_t {
  Drop,         ///< a record that could not be (fully) analyzed
  Observation,  ///< analyzed, but out of scope or suspicious
  Accounting,   ///< deliberate, accounted work: screening, churn, sheds
  Gauge,        ///< timing-dependent; zeroed in durable records
};

/// One AnalyzerHealth counter: its field, its stable kebab-case name
/// (report rows, strict violations, docs/ROBUSTNESS.md section 2), a
/// one-line operator description and its class.
struct HealthField {
  HealthCounter member;
  std::string_view name;
  std::string_view description;
  HealthClass cls;
};

/// Every AnalyzerHealth counter, in declaration order. Row order is the
/// epoch/snapshot wire order (util/counter_table.h).
inline constexpr std::array<HealthField, 31> kHealthFields{{
    {&AnalyzerHealth::truncated_l2, "truncated-l2",
     "frame shorter than an Ethernet header", HealthClass::Drop},
    {&AnalyzerHealth::non_ipv4, "non-ipv4",
     "non-IPv4 ethertype (ARP/IPv6/...; benign)", HealthClass::Observation},
    {&AnalyzerHealth::bad_l3, "bad-l3", "truncated or inconsistent IPv4 header",
     HealthClass::Drop},
    {&AnalyzerHealth::ip_fragments, "ip-fragments",
     "non-first IP fragments (no L4 header)", HealthClass::Observation},
    {&AnalyzerHealth::unsupported_l4, "unsupported-l4",
     "IP protocol other than UDP/TCP (benign)", HealthClass::Observation},
    {&AnalyzerHealth::bad_l4, "bad-l4", "truncated or inconsistent UDP/TCP header",
     HealthClass::Drop},
    {&AnalyzerHealth::snaplen_truncated, "snaplen-truncated",
     "captured bytes < reported wire length", HealthClass::Observation},
    {&AnalyzerHealth::non_monotonic_ts, "non-monotonic-ts",
     "timestamp regressed vs. previous record", HealthClass::Observation},
    {&AnalyzerHealth::frontend_rejected, "frontend-rejected",
     "screened out by the capture front end (never decoded)",
     HealthClass::Accounting},
    {&AnalyzerHealth::sketch_evicted, "sketch-evicted",
     "sketch-tier flow churn: heavy-hitter evictions + demotions",
     HealthClass::Accounting},
    {&AnalyzerHealth::bad_sfu_encap, "bad-sfu-encap",
     "server payload below the 8-byte SFU encap", HealthClass::Drop},
    {&AnalyzerHealth::bad_media_encap, "bad-media-encap",
     "known encap type with truncated header", HealthClass::Drop},
    {&AnalyzerHealth::malformed_rtp, "malformed-rtp",
     "media encap promised RTP, parse failed", HealthClass::Drop},
    {&AnalyzerHealth::malformed_rtcp, "malformed-rtcp",
     "RTCP encap with empty compound parse", HealthClass::Drop},
    {&AnalyzerHealth::malformed_stun, "malformed-stun",
     "port-3478 exchange that is not STUN", HealthClass::Drop},
    {&AnalyzerHealth::unknown_payload_type, "unknown-payload-type",
     "RTP payload type outside Table 3", HealthClass::Observation},
    {&AnalyzerHealth::quarantined_flows, "quarantined-flows",
     "flows exceeding the malformed-streak threshold", HealthClass::Observation},
    {&AnalyzerHealth::quarantined_packets, "quarantined-packets",
     "packets skipped on quarantined flows", HealthClass::Drop},
    {&AnalyzerHealth::epoch_evicted_flows, "epoch-evicted-flows",
     "flow state retired at epoch rotation (bounded memory)",
     HealthClass::Accounting},
    {&AnalyzerHealth::epoch_evicted_meetings, "epoch-evicted-meetings",
     "meeting state retired at epoch rotation", HealthClass::Accounting},
    {&AnalyzerHealth::overload_shed_l1, "overload-shed-l1",
     "overload L1: front-end rejects dropped pre-dispatch",
     HealthClass::Accounting},
    {&AnalyzerHealth::overload_shed_l2, "overload-shed-l2",
     "overload L2: non-Zoom-candidate admission sampling",
     HealthClass::Accounting},
    {&AnalyzerHealth::overload_shed_l3, "overload-shed-l3",
     "overload L3: media-flow packet sampling (degraded)",
     HealthClass::Accounting},
    {&AnalyzerHealth::overload_shed_l4, "overload-shed-l4",
     "overload L4: whole-batch head-drop + ring sheds", HealthClass::Accounting},
    {&AnalyzerHealth::ring_wait_spins, "ring-wait-spins",
     "producer spins on a full shard ring (timing-dependent)",
     HealthClass::Gauge},
    {&AnalyzerHealth::source_stalls, "source-stalls",
     "watchdog-detected source stalls + reopens (timing-dependent)",
     HealthClass::Gauge},
    {&AnalyzerHealth::kernel_packets, "kernel-packets",
     "packets seen at the kernel capture point (live gauge)",
     HealthClass::Gauge},
    {&AnalyzerHealth::kernel_drops, "kernel-drops",
     "kernel ring drops before the daemon saw the packet", HealthClass::Gauge},
    {&AnalyzerHealth::offload_covered_packets, "offload-covered",
     "metric work absorbed by the data-plane offload", HealthClass::Accounting},
    {&AnalyzerHealth::offload_collisions, "offload-collisions",
     "offload probe/telemetry register slot overwrites",
     HealthClass::Accounting},
    {&AnalyzerHealth::offload_evictions, "offload-evictions",
     "offload jitter scratch slots lost to colliding streams",
     HealthClass::Accounting},
}};

// A counter added to AnalyzerHealth without a row fails here.
static_assert(sizeof(AnalyzerHealth) ==
                  kHealthFields.size() * sizeof(std::uint64_t) &&
              util::distinct_members(kHealthFields));

inline void AnalyzerHealth::merge(const AnalyzerHealth& o) {
  util::merge_fields(*this, o, kHealthFields);
}

inline std::uint64_t AnalyzerHealth::dropped_records() const {
  std::uint64_t sum = 0;
  for (const auto& row : kHealthFields)
    if (row.cls == HealthClass::Drop) sum += this->*row.member;
  return sum;
}

inline bool AnalyzerHealth::records_clear() const {
  for (const auto& row : kHealthFields)
    if ((row.cls == HealthClass::Drop || row.cls == HealthClass::Observation) &&
        this->*row.member != 0)
      return false;
  return true;
}

/// Zeroes the timing-dependent (HealthClass::Gauge) counters, which
/// durable records must not carry.
inline void zero_gauges(AnalyzerHealth& h) {
  for (const auto& row : kHealthFields)
    if (row.cls == HealthClass::Gauge) h.*row.member = 0;
}

/// The kebab-case name of a health counter (strict-violation reports).
constexpr std::string_view health_name(HealthCounter member) {
  for (const auto& row : kHealthFields)
    if (row.member == member) return row.name;
  return {};
}

/// Applies one decode failure to `h`. Returns the counter it bumped
/// when the failure indicates a mangled record (strict-mode relevant),
/// or nullptr for success and benign out-of-scope traffic. Shared
/// between the serial Analyzer and the parallel dispatcher so both
/// attribute identically.
inline HealthCounter apply_decode_failure(AnalyzerHealth& h,
                                          net::DecodeFailure df) {
  using H = AnalyzerHealth;
  switch (df) {
    case net::DecodeFailure::None: break;
    case net::DecodeFailure::TruncatedEth: ++h.truncated_l2; return &H::truncated_l2;
    case net::DecodeFailure::NonIpv4: ++h.non_ipv4; break;
    case net::DecodeFailure::BadIpHeader: ++h.bad_l3; return &H::bad_l3;
    case net::DecodeFailure::IpFragment: ++h.ip_fragments; break;
    case net::DecodeFailure::UnsupportedL4: ++h.unsupported_l4; break;
    case net::DecodeFailure::BadL4Header: ++h.bad_l4; return &H::bad_l4;
  }
  return nullptr;
}

/// First malformed record seen in strict mode (AnalyzerConfig::strict):
/// which health category fired, at which global packet sequence number
/// (1-based offer index; in sharded mode the dispatcher's global
/// sequence), and the record's capture timestamp.
struct StrictViolation {
  std::string_view category;
  std::uint64_t sequence = 0;
  util::Timestamp ts;
};

}  // namespace zpm::core
