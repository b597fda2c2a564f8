// The end-to-end passive Zoom analyzer: raw captured packets in,
// dissected streams / meetings / per-second metrics out.
//
// This is the library's main entry point, combining every technique in
// the paper: Zoom traffic detection incl. stateful P2P detection (§3,
// §4.1), header dissection (§4.2), stream tracking and meeting grouping
// (§4.3), and the performance metrics of §5. It mirrors what the
// paper's software analysis tools run on the output of the P4 capture
// filter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/health.h"
#include "core/meetings.h"
#include "core/p2p_detector.h"
#include "core/shard_journal.h"
#include "core/streams.h"
#include "metrics/latency.h"
#include "net/flow_map.h"
#include "net/packet.h"
#include "zoom/classify.h"
#include "zoom/server_db.h"

namespace zpm::core {

/// Analyzer configuration.
struct AnalyzerConfig {
  /// Zoom's published server subnets (stateless detection).
  zoom::ServerDb server_db = zoom::ServerDb::official();
  /// P2P candidate lifetime after the STUN exchange (§4.1).
  util::Duration p2p_timeout = util::Duration::seconds(60);
  /// Duplicate-stream matching knobs (§4.3 step 1).
  DuplicateMatchConfig duplicate_match;
  /// Track TCP control-connection RTTs (§5.3 method 2).
  bool track_tcp_rtt = true;
  /// Retain per-frame records in stream metrics (frame-size CDFs).
  bool keep_frames = true;
  /// Keep only every Nth frame record (memory bound on long traces).
  std::uint32_t frame_sample_every = 1;
  /// Strict mode: record the first malformed record as a
  /// StrictViolation (see strict_violation()) so a driver can fail fast
  /// when debugging a hostile trace. Lenient (false) keeps counting.
  bool strict = false;
  /// Consecutive malformed Zoom-layer payloads on one flow before the
  /// flow is quarantined (further packets skipped and counted in
  /// AnalyzerHealth::quarantined_packets). 0 disables quarantine.
  std::uint32_t quarantine_threshold = 32;
};

/// Packet/byte pair used by the distribution tallies.
struct Tally {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  bool operator==(const Tally&) const = default;
};

/// Aggregate counters over the analyzed trace.
struct AnalyzerCounters {
  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;      // wire bytes of all offered packets
  std::uint64_t zoom_packets = 0;
  std::uint64_t zoom_bytes = 0;

  std::uint64_t server_udp_packets = 0;
  std::uint64_t p2p_udp_packets = 0;
  std::uint64_t stun_packets = 0;
  std::uint64_t tcp_control_packets = 0;

  std::uint64_t media_packets = 0;
  std::uint64_t rtcp_packets = 0;
  std::uint64_t unknown_sfu_packets = 0;
  std::uint64_t unknown_media_packets = 0;
  std::uint64_t p2p_false_positives = 0;

  /// Number of zoom::MediaKind values (Table 3's first index).
  static constexpr std::size_t kMediaKindCount = 3;

  /// Table 2 tallies indexed by the Zoom media-encap type byte. A flat
  /// array instead of a map: the per-packet hot path must not chase
  /// node-based-container pointers (or allocate on first touch). Bytes
  /// are UDP payload bytes; denominator = zoom UDP packets.
  std::array<Tally, 256> encap_tally{};
  /// Table 3 tallies indexed by kind * 256 + RTP payload type.
  std::array<Tally, kMediaKindCount * 256> payload_tally{};

  [[nodiscard]] Tally& encap(std::uint8_t type) { return encap_tally[type]; }
  [[nodiscard]] Tally& payload(std::uint8_t kind, std::uint8_t pt) {
    return payload_tally[std::size_t{kind} * 256 + pt];
  }

  /// Reporting view of encap_tally: the touched entries as the ordered
  /// map the analysis tables consume.
  [[nodiscard]] std::map<std::uint8_t, Tally> encap_types() const;
  /// Reporting view of payload_tally: (media kind, RTP payload type) ->
  /// packets/bytes.
  [[nodiscard]] std::map<std::pair<std::uint8_t, std::uint8_t>, Tally>
  payload_types() const;

  bool operator==(const AnalyzerCounters&) const = default;

  /// Adds another shard's counters (kCounterFields sums + tally merges).
  void merge(const AnalyzerCounters& other);
};

/// The scalar AnalyzerCounters, in declaration order (the epoch wire
/// order; util/counter_table.h). The two tally arrays follow them.
inline constexpr std::array<util::CounterField<AnalyzerCounters>, 13>
    kCounterFields{{
        {&AnalyzerCounters::total_packets, "total-packets"},
        {&AnalyzerCounters::total_bytes, "total-bytes"},
        {&AnalyzerCounters::zoom_packets, "zoom-packets"},
        {&AnalyzerCounters::zoom_bytes, "zoom-bytes"},
        {&AnalyzerCounters::server_udp_packets, "server-udp-packets"},
        {&AnalyzerCounters::p2p_udp_packets, "p2p-udp-packets"},
        {&AnalyzerCounters::stun_packets, "stun-packets"},
        {&AnalyzerCounters::tcp_control_packets, "tcp-control-packets"},
        {&AnalyzerCounters::media_packets, "media-packets"},
        {&AnalyzerCounters::rtcp_packets, "rtcp-packets"},
        {&AnalyzerCounters::unknown_sfu_packets, "unknown-sfu-packets"},
        {&AnalyzerCounters::unknown_media_packets, "unknown-media-packets"},
        {&AnalyzerCounters::p2p_false_positives, "p2p-false-positives"},
    }};

// A scalar counter added to AnalyzerCounters without a row fails here.
static_assert(offsetof(AnalyzerCounters, encap_tally) ==
                  kCounterFields.size() * sizeof(std::uint64_t) &&
              util::distinct_members(kCounterFields));

/// See file comment.
class Analyzer {
 public:
  explicit Analyzer(AnalyzerConfig config = {});

  /// Offers one raw captured frame. Returns true if it was recognized
  /// as Zoom traffic (any category). `covered` marks a packet the
  /// data-plane offload already absorbed (capture::kFlagOffloadCovered):
  /// it is analyzed normally except that the per-packet jitter/latency
  /// metric updates — the work the switch registers now hold — are
  /// skipped (StreamMetrics clock/jitter estimators, RTT copy-matching).
  bool offer(const net::RawPacket& pkt, bool covered = false) {
    return offer(net::as_view(pkt), covered);
  }
  /// Same, for a non-owning view (the zero-copy ingest path). The view
  /// only needs to stay valid for the duration of the call.
  bool offer(const net::RawPacketView& pkt, bool covered = false);
  /// Same, for an already-decoded packet.
  bool process(const net::PacketView& view, bool covered = false);

  /// Accounts a packet the capture front end (capture::BatchFilter)
  /// rejected without decoding: replays exactly the totals /
  /// stream-order / snaplen bookkeeping offer() would have done before
  /// decode, plus the frontend_rejected health counter. The bit-identity
  /// contract of the front end rests on the rejected packet having no
  /// other observable effect.
  void account_frontend_rejected(const net::RawPacketView& pkt);

  /// Flushes trailing metric bins; call once after the last packet.
  void finish();

  /// Sharded mode: records cross-flow operations (duplicate grouping,
  /// meeting assignment, RTT copy-matching) into `journal` instead of
  /// performing them; the parallel driver replays all shards' journals
  /// in global packet order. nullptr (default) restores serial behavior.
  void set_shard_journal(ShardJournal* journal) { journal_ = journal; }

  /// Sharded mode: registers the P2P candidate endpoint of a STUN
  /// exchange without counting the packet. The dispatcher broadcasts
  /// STUN exchanges to all shards through this hook because P2P
  /// candidates are keyed by endpoint, not 5-tuple — the later media
  /// flow can hash to any shard (§4.1). The dispatcher has already
  /// validated the STUN message and resolved the campus-side (non-
  /// server) endpoint, so only that endpoint travels to the shards —
  /// not a copy of the packet bytes.
  void register_stun_candidate(util::Timestamp ts, net::Ipv4Addr ip,
                               std::uint16_t port);

  [[nodiscard]] const AnalyzerCounters& counters() const { return counters_; }
  /// Robustness counters: what was dropped/distrusted and why.
  [[nodiscard]] const AnalyzerHealth& health() const { return health_; }
  [[nodiscard]] AnalyzerHealth& health() { return health_; }
  /// First malformed record, when config.strict is set.
  [[nodiscard]] const std::optional<StrictViolation>& strict_violation() const {
    return violation_;
  }
  [[nodiscard]] const StreamTable& streams() const { return streams_; }
  [[nodiscard]] StreamTable& streams() { return streams_; }
  [[nodiscard]] const MeetingGrouper& meetings() const { return grouper_; }
  [[nodiscard]] const P2pDetector& p2p_detector() const { return p2p_; }
  /// Distinct Zoom flows (canonical 5-tuples) seen, for Table 6.
  [[nodiscard]] std::size_t zoom_flow_count() const { return zoom_flows_.size(); }
  /// All TCP control-connection RTT estimators, keyed by canonical flow.
  [[nodiscard]] const std::unordered_map<net::FiveTuple, metrics::TcpRttEstimator>&
  tcp_rtt() const {
    return tcp_rtt_;
  }
  /// All §5.3 method-1 RTT samples (monitor <-> SFU), trace-wide.
  [[nodiscard]] const std::vector<metrics::RttSample>& sfu_rtt_samples() const {
    return copy_matcher_.samples();
  }

 private:
  bool process_decoded(const net::PacketView& view);
  bool handle_server_udp(const net::PacketView& view);
  bool handle_p2p_udp(const net::PacketView& view);
  bool handle_stun(const net::PacketView& view, bool server_is_src);
  bool handle_tcp(const net::PacketView& view);
  void account_zoom(const net::PacketView& view);
  /// Increments a health counter and arms the strict violation.
  void flag(HealthCounter field, util::Timestamp ts);
  void note_decode_failure(net::DecodeFailure df, util::Timestamp ts);
  void note_dissect_flaw(zoom::DissectFlaw flaw, util::Timestamp ts);
  /// Timestamp monotonicity is a property of the global offer order, so
  /// it is only checked at a global-order point: serial offer()/process()
  /// (journal_ == nullptr) or the parallel dispatcher. Shard-local
  /// subsequences would count differently.
  void note_stream_order(util::Timestamp ts);
  /// Updates the per-flow malformed streak; returns true when the flow
  /// just crossed the quarantine threshold.
  void note_flow_quality(const net::FiveTuple& flow, bool malformed,
                         util::Timestamp ts);
  [[nodiscard]] bool is_quarantined(const net::FiveTuple& flow) const {
    return !quarantined_.empty() && quarantined_.contains(flow);
  }
  /// Bloom-style membership filter over flows that have *ever* had a
  /// malformed streak entry. Bits are only set, never cleared, so a
  /// negative answer is exact: the common case (clean trace, flow never
  /// malformed) skips the hash-table erase probe that used to run for
  /// every well-formed packet.
  void bloom_mark(const net::FiveTuple& flow) {
    std::size_t h = std::hash<net::FiveTuple>{}(flow);
    ever_malformed_[(h & 0xffff) >> 6] |= 1ULL << (h & 63);
    std::size_t h2 = (h >> 16) & 0xffff;
    ever_malformed_[h2 >> 6] |= 1ULL << (h2 & 63);
  }
  [[nodiscard]] bool bloom_maybe_contains(const net::FiveTuple& flow) const {
    std::size_t h = std::hash<net::FiveTuple>{}(flow);
    if (!(ever_malformed_[(h & 0xffff) >> 6] & (1ULL << (h & 63)))) return false;
    std::size_t h2 = (h >> 16) & 0xffff;
    return (ever_malformed_[h2 >> 6] & (1ULL << (h2 & 63))) != 0;
  }
  void handle_dissected(const net::PacketView& view, const zoom::ZoomPacket& zp,
                        StreamDirection direction);
  StreamInfo& stream_for(const net::PacketView& view, const zoom::ZoomPacket& zp,
                         StreamDirection direction, std::uint32_t ssrc,
                         std::uint32_t first_rtp_ts);

  AnalyzerConfig config_;
  AnalyzerCounters counters_;
  AnalyzerHealth health_;
  std::optional<StrictViolation> violation_;
  std::optional<util::Timestamp> last_offer_ts_;
  // Flat open-addressing tables over the shared canonical flow hash
  // (net::FlatFlowMap): the per-packet membership probes here must not
  // chase unordered_{set,map} node pointers or allocate per flow. Only
  // membership/values are observable, so reports stay bit-identical.
  net::FlatFlowMap<std::uint32_t> malformed_streaks_;
  net::FlatFlowSet quarantined_;
  /// 65536-bit filter backing bloom_mark/bloom_maybe_contains.
  std::array<std::uint64_t, 1024> ever_malformed_{};
  P2pDetector p2p_;
  StreamTable streams_;
  MeetingGrouper grouper_;
  metrics::RtpCopyMatcher copy_matcher_;
  net::FlatFlowSet zoom_flows_;
  /// Media packets arrive in bursts on one flow; caching the last
  /// inserted canonical flow skips the zoom_flows_ hash probe for
  /// back-to-back packets of the same flow.
  std::optional<net::FiveTuple> last_zoom_flow_;
  std::unordered_map<net::FiveTuple, metrics::TcpRttEstimator> tcp_rtt_;
  ShardJournal* journal_ = nullptr;
  /// Offload coverage of the packet currently being processed; set at
  /// every entry point, consumed by handle_dissected.
  bool covered_packet_ = false;
};

}  // namespace zpm::core
