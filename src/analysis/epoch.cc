#include "analysis/epoch.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace zpm::analysis {

namespace {

/// Sparse tally encoding: only touched entries are written, as
/// (index, packets, bytes) triples. Campus-scale traffic touches a
/// handful of the 256/768 slots, so this keeps epoch records small.
template <std::size_t N>
void encode_tallies(const std::array<core::Tally, N>& tallies,
                    util::ByteWriter& w) {
  std::uint32_t touched = 0;
  for (const auto& t : tallies)
    if (t.packets != 0 || t.bytes != 0) ++touched;
  w.u32be(touched);
  for (std::size_t i = 0; i < N; ++i) {
    const auto& t = tallies[i];
    if (t.packets == 0 && t.bytes == 0) continue;
    w.u16be(static_cast<std::uint16_t>(i));
    w.u64be(t.packets);
    w.u64be(t.bytes);
  }
}

template <std::size_t N>
bool decode_tallies(util::ByteReader& r, std::array<core::Tally, N>& tallies) {
  tallies.fill(core::Tally{});
  const std::uint32_t touched = r.u32be();
  if (!r.can_read(std::size_t{touched} * 18)) return false;
  for (std::uint32_t i = 0; i < touched; ++i) {
    const std::uint16_t idx = r.u16be();
    if (idx >= N) return false;
    tallies[idx].packets = r.u64be();
    tallies[idx].bytes = r.u64be();
  }
  return r.ok();
}

void encode_health(const core::AnalyzerHealth& h, util::ByteWriter& w) {
  w.u64be(h.truncated_l2);
  w.u64be(h.non_ipv4);
  w.u64be(h.bad_l3);
  w.u64be(h.ip_fragments);
  w.u64be(h.unsupported_l4);
  w.u64be(h.bad_l4);
  w.u64be(h.snaplen_truncated);
  w.u64be(h.non_monotonic_ts);
  w.u64be(h.frontend_rejected);
  w.u64be(h.sketch_evicted);
  w.u64be(h.bad_sfu_encap);
  w.u64be(h.bad_media_encap);
  w.u64be(h.malformed_rtp);
  w.u64be(h.malformed_rtcp);
  w.u64be(h.malformed_stun);
  w.u64be(h.unknown_payload_type);
  w.u64be(h.quarantined_flows);
  w.u64be(h.quarantined_packets);
  w.u64be(h.epoch_evicted_flows);
  w.u64be(h.epoch_evicted_meetings);
  w.u64be(h.overload_shed_l1);
  w.u64be(h.overload_shed_l2);
  w.u64be(h.overload_shed_l3);
  w.u64be(h.overload_shed_l4);
  w.u64be(h.ring_wait_spins);
  w.u64be(h.source_stalls);
  w.u64be(h.kernel_packets);
  w.u64be(h.kernel_drops);
  w.u64be(h.offload_covered_packets);
  w.u64be(h.offload_collisions);
  w.u64be(h.offload_evictions);
}

bool decode_health(util::ByteReader& r, core::AnalyzerHealth& h) {
  h.truncated_l2 = r.u64be();
  h.non_ipv4 = r.u64be();
  h.bad_l3 = r.u64be();
  h.ip_fragments = r.u64be();
  h.unsupported_l4 = r.u64be();
  h.bad_l4 = r.u64be();
  h.snaplen_truncated = r.u64be();
  h.non_monotonic_ts = r.u64be();
  h.frontend_rejected = r.u64be();
  h.sketch_evicted = r.u64be();
  h.bad_sfu_encap = r.u64be();
  h.bad_media_encap = r.u64be();
  h.malformed_rtp = r.u64be();
  h.malformed_rtcp = r.u64be();
  h.malformed_stun = r.u64be();
  h.unknown_payload_type = r.u64be();
  h.quarantined_flows = r.u64be();
  h.quarantined_packets = r.u64be();
  h.epoch_evicted_flows = r.u64be();
  h.epoch_evicted_meetings = r.u64be();
  h.overload_shed_l1 = r.u64be();
  h.overload_shed_l2 = r.u64be();
  h.overload_shed_l3 = r.u64be();
  h.overload_shed_l4 = r.u64be();
  h.ring_wait_spins = r.u64be();
  h.source_stalls = r.u64be();
  h.kernel_packets = r.u64be();
  h.kernel_drops = r.u64be();
  h.offload_covered_packets = r.u64be();
  h.offload_collisions = r.u64be();
  h.offload_evictions = r.u64be();
  return r.ok();
}

void encode_counters(const core::AnalyzerCounters& c, util::ByteWriter& w) {
  w.u64be(c.total_packets);
  w.u64be(c.total_bytes);
  w.u64be(c.zoom_packets);
  w.u64be(c.zoom_bytes);
  w.u64be(c.server_udp_packets);
  w.u64be(c.p2p_udp_packets);
  w.u64be(c.stun_packets);
  w.u64be(c.tcp_control_packets);
  w.u64be(c.media_packets);
  w.u64be(c.rtcp_packets);
  w.u64be(c.unknown_sfu_packets);
  w.u64be(c.unknown_media_packets);
  w.u64be(c.p2p_false_positives);
  encode_tallies(c.encap_tally, w);
  encode_tallies(c.payload_tally, w);
}

bool decode_counters(util::ByteReader& r, core::AnalyzerCounters& c) {
  c.total_packets = r.u64be();
  c.total_bytes = r.u64be();
  c.zoom_packets = r.u64be();
  c.zoom_bytes = r.u64be();
  c.server_udp_packets = r.u64be();
  c.p2p_udp_packets = r.u64be();
  c.stun_packets = r.u64be();
  c.tcp_control_packets = r.u64be();
  c.media_packets = r.u64be();
  c.rtcp_packets = r.u64be();
  c.unknown_sfu_packets = r.u64be();
  c.unknown_media_packets = r.u64be();
  c.p2p_false_positives = r.u64be();
  return r.ok() && decode_tallies(r, c.encap_tally) &&
         decode_tallies(r, c.payload_tally);
}

}  // namespace

void encode_epoch_report(const EpochReport& report, util::ByteWriter& w) {
  w.u64be(report.seq);
  w.u64be(report.first_packet);
  w.u64be(report.packets);
  w.u64be(static_cast<std::uint64_t>(report.first_ts.us()));
  w.u64be(static_cast<std::uint64_t>(report.last_ts.us()));
  encode_counters(report.counters, w);
  encode_health(report.health, w);
  w.u64be(report.stream_count);
  w.u64be(report.media_count);
  w.u64be(report.meeting_count);
  w.u64be(report.zoom_flow_count);
  w.u64be(report.tier_stats.absorbed_packets);
  w.u64be(report.tier_stats.absorbed_bytes);
  w.u64be(report.tier_stats.promotions);
  w.u64be(report.tier_stats.demotions);
  w.u64be(report.tier_stats.evictions);
  w.u32be(static_cast<std::uint32_t>(report.heavy_hitters.size()));
  for (const auto& h : report.heavy_hitters) {
    const net::PackedFlowKey key(h.flow);
    w.u64be(key.k1);
    w.u64be(key.k2);
    w.u64be(h.bytes);
    w.u64be(h.packets);
    w.u64be(h.error_bytes);
  }
  w.u32be(report.max_overload_level);
  capture::encode_offload_report(report.offload, w);
}

bool decode_epoch_report(util::ByteReader& r, EpochReport& report) {
  report.seq = r.u64be();
  report.first_packet = r.u64be();
  report.packets = r.u64be();
  report.first_ts =
      util::Timestamp::from_micros(static_cast<std::int64_t>(r.u64be()));
  report.last_ts =
      util::Timestamp::from_micros(static_cast<std::int64_t>(r.u64be()));
  if (!decode_counters(r, report.counters)) return false;
  if (!decode_health(r, report.health)) return false;
  report.stream_count = r.u64be();
  report.media_count = r.u64be();
  report.meeting_count = r.u64be();
  report.zoom_flow_count = r.u64be();
  report.tier_stats.absorbed_packets = r.u64be();
  report.tier_stats.absorbed_bytes = r.u64be();
  report.tier_stats.promotions = r.u64be();
  report.tier_stats.demotions = r.u64be();
  report.tier_stats.evictions = r.u64be();
  const std::uint32_t hitters = r.u32be();
  if (!r.can_read(std::size_t{hitters} * 40)) return false;
  report.heavy_hitters.clear();
  report.heavy_hitters.reserve(hitters);
  for (std::uint32_t i = 0; i < hitters; ++i) {
    net::PackedFlowKey key;
    key.k1 = r.u64be();
    key.k2 = r.u64be();
    sketch::HeavyHitter h;
    h.flow = key.unpack();
    h.bytes = r.u64be();
    h.packets = r.u64be();
    h.error_bytes = r.u64be();
    report.heavy_hitters.push_back(h);
  }
  report.max_overload_level = r.u32be();
  auto offload = capture::decode_offload_report(r);
  if (!offload) return false;
  report.offload = *offload;
  return r.ok();
}

// ---------------------------------------------------------------------------
// EpochEngine

EpochEngine::EpochEngine(EpochEngineConfig config)
    : config_(std::move(config)) {
  if (config_.overload.enabled) {
    if (config_.overload.window_packets == 0)
      config_.overload.window_packets = 2048;
    governor_.emplace(config_.overload.governor);
    shedder_ = overload::LoadShedder(config_.overload.shed);
    if (!config_.overload.inject.empty())
      schedule_.parse(config_.overload.inject);
    next_observe_ = config_.overload.window_packets;
  }
  open_epoch();
}

EpochEngine::~EpochEngine() = default;

void EpochEngine::open_epoch() {
  if (staged_) {
    // Limits changes were applied live (set_limits); carry the current
    // values over the staged engine swap.
    staged_->limits = config_.limits;
    staged_->heavy_hitter_limit = config_.heavy_hitter_limit;
    config_ = std::move(*staged_);
    staged_.reset();
  }
  serial_.reset();
  parallel_.reset();
  filter_.reset();
  if (config_.shards > 1) {
    pipeline::ParallelAnalyzerConfig pc;
    pc.analyzer = config_.analyzer;
    pc.shards = config_.shards;
    pc.bounded_push = config_.bounded_dispatch;
    pc.fault_slow_shard = config_.fault_slow_shard;
    pc.fault_slow_us = config_.fault_slow_us;
    parallel_.emplace(std::move(pc));
  } else {
    serial_.emplace(config_.analyzer);
  }
  if (config_.frontend) {
    capture::BatchFilterConfig fc;
    fc.server_db = config_.analyzer.server_db;
    fc.shards = config_.shards;
    fc.flow_memory_budget = config_.flow_memory_budget;
    fc.dataplane_offload = config_.dataplane_offload;
    fc.offload = config_.offload;
    filter_.emplace(std::move(fc));
  }
  // Overload bookkeeping: the governor's level/EWMA carry across the
  // rotation (sustained pressure is the whole point), but the per-flow
  // sampling counters restart with the fresh front end's slot ids, the
  // shed baseline re-anchors so each epoch records its own deltas, and
  // the producer-spin baseline resets with the fresh pipeline.
  shedder_.reset_flow_state();
  shed_base_ = shedder_.stats();
  spins_base_ = 0;
  epoch_max_level_ = governor_ ? governor_->level() : 0;
  packets_ = 0;
  first_ts_ = util::Timestamp{};
  last_ts_ = util::Timestamp{};
}

bool EpochEngine::rotate_before(util::Timestamp ts) const {
  if (packets_ == 0) return false;  // an epoch never closes empty
  if (config_.limits.max_packets > 0 && packets_ >= config_.limits.max_packets)
    return true;
  return config_.limits.max_span > util::Duration::micros(0) &&
         ts - first_ts_ >= config_.limits.max_span;
}

void EpochEngine::feed(std::span<const net::RawPacketView> run,
                       pipeline::BatchLifetime lifetime) {
  if (run.empty()) return;
  const int level = governor_ ? governor_->level() : 0;
  // Feed latency is a real pressure signal only when the governor runs
  // on live signals; injected runs skip the clock so their decisions
  // stay a pure function of the packet sequence.
  const bool timed = governor_ && schedule_.empty();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};

  if (level >= overload::kMaxLevel) {
    // L4: head-drop the whole run before any classification work.
    shedder_.apply(level, run, nullptr, shed_run_, shed_verdicts_);
  } else if (filter_) {
    filter_->classify(run, verdicts_);
    std::span<const net::RawPacketView> dispatch = run;
    const capture::BatchVerdicts* verdicts = &verdicts_;
    if (level > 0 &&
        shedder_.apply(level, run, &verdicts_, shed_run_, shed_verdicts_)) {
      dispatch = shed_run_;
      verdicts = &shed_verdicts_;
    }
    if (parallel_) {
      parallel_->offer_batch(dispatch, lifetime, *verdicts);
    } else {
      for (std::size_t i = 0; i < dispatch.size(); ++i) {
        if (verdicts->verdicts[i] == capture::Verdict::Reject)
          serial_->account_frontend_rejected(dispatch[i]);
        else
          serial_->offer(dispatch[i],
                         verdicts->verdicts[i] == capture::Verdict::Admit &&
                             (verdicts->flags[i] & capture::kFlagOffloadCovered) != 0);
      }
    }
  } else if (parallel_) {
    parallel_->offer_batch(run, lifetime);
  } else {
    for (const auto& view : run) serial_->offer(view);
  }

  if (timed) {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      static_cast<double>(run.size());
    feed_latency_ewma_us_ += 0.3 * (us - feed_latency_ewma_us_);
  }
}

void EpochEngine::observe_window() {
  if (!governor_) return;
  int level;
  if (!schedule_.empty()) {
    level = governor_->observe_pressure(schedule_.pressure_at(global_packets_));
  } else {
    overload::PressureSignals signals;
    if (parallel_) {
      signals.ring_occupancy = parallel_->max_ring_occupancy();
      const std::uint64_t spins = parallel_->producer_wait_spins();
      signals.spins_delta = spins - spins_base_;
      spins_base_ = spins;
    }
    signals.latency_us = feed_latency_ewma_us_;
    signals.kernel_drops_delta = pending_kernel_drops_;
    pending_kernel_drops_ = 0;
    level = governor_->observe(signals);
  }
  epoch_max_level_ = std::max(epoch_max_level_, level);
}

void EpochEngine::set_overload_thresholds(
    const overload::GovernorConfig& config) {
  if (!governor_) return;
  config_.overload.governor = config;
  governor_->set_config(config);
}

void EpochEngine::set_global_packets(std::uint64_t n) {
  global_packets_ = n;
  if (governor_) {
    const std::uint64_t w = config_.overload.window_packets;
    next_observe_ = (n / w + 1) * w;
  }
}

void EpochEngine::offer(std::span<const net::RawPacketView> batch,
                        pipeline::BatchLifetime lifetime,
                        std::vector<EpochReport>& completed,
                        std::vector<query::EpochSliceSet>* slices) {
  // Packet-exact splitting: rotation falls between exactly the same two
  // packets no matter how the source batched them, so epoch content is
  // independent of batch alignment (the crash-recovery contract).
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (rotate_before(batch[i].ts)) {
      feed(batch.subspan(run_start, i - run_start), lifetime);
      run_start = i;
      if (slices != nullptr && config_.collect_journal) {
        slices->emplace_back();
        completed.push_back(close_epoch(&slices->back()));
      } else {
        completed.push_back(close_epoch());
      }
      open_epoch();
    }
    // Observation boundaries are absolute global-index multiples of the
    // window, split packet-exactly like rotations — so governor
    // decisions (and therefore shed decisions) are independent of how
    // the source batched the stream.
    if (governor_ && global_packets_ >= next_observe_) {
      feed(batch.subspan(run_start, i - run_start), lifetime);
      run_start = i;
      observe_window();
      next_observe_ += config_.overload.window_packets;
    }
    if (packets_ == 0) first_ts_ = batch[i].ts;
    last_ts_ = batch[i].ts;
    ++packets_;
    ++global_packets_;
  }
  feed(batch.subspan(run_start), lifetime);
}

EpochReport EpochEngine::close_epoch(query::EpochSliceSet* slices) {
  EpochReport rep;
  rep.seq = next_seq_++;
  rep.first_packet = global_packets_ - packets_;
  rep.packets = packets_;
  rep.first_ts = first_ts_;
  rep.last_ts = last_ts_;
  finish_analyzer();
  const auto stream_list = streams();
  rep.counters = parallel_ ? parallel_->counters() : serial_->counters();
  rep.health = parallel_ ? parallel_->health() : serial_->health();
  rep.stream_count = stream_list.size();
  rep.media_count =
      parallel_ ? parallel_->media_count() : serial_->streams().media_count();
  rep.meeting_count = meetings().meeting_count();
  rep.zoom_flow_count =
      parallel_ ? parallel_->zoom_flow_count() : serial_->zoom_flow_count();
  if (filter_) {
    rep.health.sketch_evicted = filter_->sketch_evicted();
    auto tier = filter_->sketch_report(config_.heavy_hitter_limit);
    rep.tier_stats = tier.stats;
    rep.heavy_hitters = std::move(tier.heavy_hitters);
    if (filter_->offload_enabled()) {
      // Fold the merged per-shard offload registers into the durable
      // record; the health counters mirror the report's accounting so
      // coverage shows up in the standard health table.
      rep.offload = filter_->offload_report();
      rep.health.offload_covered_packets = rep.offload.covered_packets;
      rep.health.offload_collisions = rep.offload.collisions();
      rep.health.offload_evictions = rep.offload.flow_evictions;
    }
  }
  // Rotation retires the window's flow/meeting state — that is the
  // memory bound, and it is accounted here so it is never silent.
  rep.health.epoch_evicted_flows = rep.zoom_flow_count;
  rep.health.epoch_evicted_meetings = rep.meeting_count;
  // Ladder sheds: this epoch's deltas of the shedder's lifetime totals
  // (+= — bounded-dispatch L4 ring sheds already live in the pipeline's
  // health and must not be overwritten).
  const overload::ShedStats& shed = shedder_.stats();
  rep.health.overload_shed_l1 += shed.l1_packets - shed_base_.l1_packets;
  rep.health.overload_shed_l2 += shed.l2_packets - shed_base_.l2_packets;
  rep.health.overload_shed_l3 += shed.l3_packets - shed_base_.l3_packets;
  rep.health.overload_shed_l4 += shed.l4_packets - shed_base_.l4_packets;
  rep.max_overload_level = static_cast<std::uint32_t>(epoch_max_level_);
  // Durable records carry only sequence-deterministic values.
  rep.health.ring_wait_spins = 0;
  rep.health.source_stalls = 0;
  rep.health.kernel_packets = 0;
  rep.health.kernel_drops = 0;
  // Journal slices are built from the retiring analyzer state *after*
  // the gauge zeroing above, so the report bytes shard 0 carries equal
  // the durable epoch record byte-for-byte.
  if (slices != nullptr && config_.collect_journal) {
    query::SliceSource src;
    src.seq = rep.seq;
    src.first_packet = rep.first_packet;
    src.packets = rep.packets;
    src.first_us = rep.first_ts.us();
    src.last_us = rep.last_ts.us();
    src.shard_count = static_cast<std::uint32_t>(
        config_.shards > 0 ? config_.shards : 1);
    util::ByteWriter report_bytes(1024);
    encode_epoch_report(rep, report_bytes);
    src.report = report_bytes.view();
    src.streams = stream_list;
    src.grouper = &meetings();
    query::build_epoch_slices(src, *slices);
  }
  return rep;
}

std::optional<EpochReport> EpochEngine::flush(query::EpochSliceSet* slices) {
  if (packets_ == 0) return std::nullopt;
  EpochReport rep = close_epoch(slices);
  open_epoch();
  return rep;
}

std::optional<EpochReport> EpochEngine::finish(query::EpochSliceSet* slices) {
  if (packets_ > 0) return close_epoch(slices);
  finish_analyzer();
  return std::nullopt;
}

void EpochEngine::finish_analyzer() {
  if (parallel_)
    parallel_->finish();
  else
    serial_->finish();
}

std::span<const core::StreamInfo* const> EpochEngine::streams() const {
  if (parallel_) {
    const auto& list = parallel_->streams();
    return {list.data(), list.size()};
  }
  stream_list_.clear();
  for (const auto& s : serial_->streams().streams()) stream_list_.push_back(s.get());
  return stream_list_;
}

const core::MeetingGrouper& EpochEngine::meetings() const {
  return parallel_ ? parallel_->meetings() : serial_->meetings();
}

std::optional<core::StrictViolation> EpochEngine::strict_violation() const {
  return parallel_ ? parallel_->strict_violation() : serial_->strict_violation();
}

void EpochEngine::stage_config(const core::AnalyzerConfig& analyzer,
                               bool frontend,
                               std::size_t flow_memory_budget) {
  EpochEngineConfig next = config_;
  next.analyzer = analyzer;
  next.frontend = frontend;
  next.flow_memory_budget = flow_memory_budget;
  staged_ = std::move(next);
}

void EpochEngine::set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

}  // namespace zpm::analysis
