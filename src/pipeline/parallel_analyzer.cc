#include "pipeline/parallel_analyzer.h"

#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "proto/stun.h"
#include "util/serial.h"
#include "zoom/constants.h"

namespace zpm::pipeline {

namespace {
/// How many items a shard drains per ring operation. Large enough to
/// amortise the atomics, small enough to keep per-shard latency and the
/// reusable batch buffer modest.
constexpr std::size_t kConsumeBatch = 256;
}  // namespace

/// One unit of work shipped to a shard.
///
/// Full items carry a decoded view whose spans point into, in order of
/// preference: the caller's pinned bytes (mapped trace — `owned` empty,
/// `block` null), a refcounted per-batch block shared by every item of
/// the batch (`block`), or this item's own `owned.data` (the per-packet
/// offer() path). StunCandidate items carry only the already-resolved
/// candidate endpoint — broadcasting a P2P candidate to the non-owner
/// shards does not copy packet bytes.
struct ParallelAnalyzer::Item {
  enum class Kind : std::uint8_t {
    Full,           ///< full analysis on the owner shard
    StunCandidate,  ///< broadcast: register the P2P candidate endpoint
  };
  std::uint64_t seq = 0;
  Kind kind = Kind::Full;
  /// Data-plane offload coverage (capture::kFlagOffloadCovered): the
  /// shard's analyzer skips the per-packet metric updates for this item.
  bool covered = false;
  net::PacketView view;
  net::RawPacket owned;
  std::shared_ptr<const std::vector<std::uint8_t>> block;
  // StunCandidate payload (§4.1): when/where the campus endpoint spoke.
  util::Timestamp ts;
  net::Ipv4Addr ip;
  std::uint16_t port = 0;
};

struct ParallelAnalyzer::Shard {
  Shard(const core::AnalyzerConfig& cfg, std::size_t ring_capacity)
      : analyzer(cfg), ring(ring_capacity) {
    analyzer.set_shard_journal(&journal);
  }

  void run() {
    std::vector<Item> batch;
    batch.reserve(kConsumeBatch);
    while (ring.pop_batch(batch, kConsumeBatch) > 0) {
      if (slow_us > 0) {
        // Fault injection (config.fault_slow_shard): a deterministic
        // stand-in for a wedged consumer, used by the overload tests to
        // manufacture ring backpressure on demand.
        std::this_thread::sleep_for(std::chrono::microseconds(slow_us));
      }
      for (Item& item : batch) {
        journal.seq = item.seq;
        if (item.kind == Item::Kind::Full) {
          analyzer.process(item.view, item.covered);
        } else {
          analyzer.register_stun_candidate(item.ts, item.ip, item.port);
        }
      }
      // Destroys the items (releasing block refcounts) but keeps the
      // buffer's capacity for the next drain.
      batch.clear();
    }
  }

  core::Analyzer analyzer;
  core::ShardJournal journal;
  util::SpscRing<Item> ring;
  std::thread thread;
  std::uint32_t slow_us = 0;  // fault injection, see run()
};

ParallelAnalyzer::ParallelAnalyzer(ParallelAnalyzerConfig config)
    : config_(std::move(config)) {
  std::size_t n = config_.shards > 0 ? config_.shards : 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(config_.analyzer, config_.ring_capacity));
    if (i == config_.fault_slow_shard) shards_[i]->slow_us = config_.fault_slow_us;
  }
  for (auto& shard : shards_)
    shard->thread = std::thread([s = shard.get()] { s->run(); });
}

ParallelAnalyzer::~ParallelAnalyzer() {
  if (!finished_) {
    for (auto& shard : shards_) shard->ring.close();
    for (auto& shard : shards_)
      if (shard->thread.joinable()) shard->thread.join();
  }
}

std::optional<net::PacketView> ParallelAnalyzer::ingest(
    std::uint64_t seq, const net::RawPacketView& pkt,
    std::span<const std::uint8_t> bytes) {
  // Global-order observations happen here, exactly as the serial
  // Analyzer does them in offer(): shards only ever see their own flow
  // subsequence, which would count differently.
  if (last_offer_ts_ && pkt.ts < *last_offer_ts_) ++health_.non_monotonic_ts;
  last_offer_ts_ = pkt.ts;
  if (pkt.is_truncated()) ++health_.snaplen_truncated;

  net::DecodeFailure df = net::DecodeFailure::None;
  auto view = net::decode_packet(pkt.ts, bytes, &df);
  if (!view) {
    // The serial offer() counts every raw packet before decoding.
    ++undecoded_packets_;
    undecoded_bytes_ += pkt.data.size();
    const core::HealthCounter mangled = core::apply_decode_failure(health_, df);
    if (mangled != nullptr && config_.analyzer.strict && !violation_)
      violation_ = core::StrictViolation{core::health_name(mangled), seq + 1, pkt.ts};
    return std::nullopt;
  }
  return view;
}

bool ParallelAnalyzer::stun_candidate(const net::PacketView& view,
                                      net::Ipv4Addr* ip,
                                      std::uint16_t* port) const {
  if (view.l4 != net::L4Proto::Udp) return false;
  const auto& db = config_.analyzer.server_db;
  // STUN pre-flight exchanges announce P2P candidate endpoints that a
  // later flow on *any* shard may need (§4.1). The predicate mirrors
  // Analyzer::process_decoded's STUN branch, and the validates() check
  // mirrors handle_stun's parse — a shard registering the candidate
  // itself would reach the same verdict on the same bytes.
  bool src_is_server = db.contains(view.ip.src);
  bool dst_is_server = db.contains(view.ip.dst);
  bool stun_exchange =
      (dst_is_server && view.udp.dst_port == zoom::kStunServerPort) ||
      (src_is_server && view.udp.src_port == zoom::kStunServerPort);
  if (!stun_exchange) return false;
  if (!proto::StunMessage::validates(view.l4_payload)) return false;
  // The campus endpoint that will later carry the P2P flow is the
  // non-server side (§4.1).
  if (src_is_server) {
    *ip = view.ip.dst;
    *port = view.udp.dst_port;
  } else {
    *ip = view.ip.src;
    *port = view.udp.src_port;
  }
  return true;
}

void ParallelAnalyzer::offer(net::RawPacket pkt) {
  const std::uint64_t seq = next_seq_++;
  auto view = ingest(seq, net::as_view(pkt), pkt.data);
  if (!view) return;

  std::size_t owner = net::canonical_flow_hash(view->five_tuple().canonical()) %
                      shards_.size();

  net::Ipv4Addr cand_ip;
  std::uint16_t cand_port = 0;
  if (stun_candidate(*view, &cand_ip, &cand_port)) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (i == owner) continue;
      Item cand;
      cand.seq = seq;
      cand.kind = Item::Kind::StunCandidate;
      cand.ts = pkt.ts;
      cand.ip = cand_ip;
      cand.port = cand_port;
      shards_[i]->ring.push(std::move(cand));
    }
  }

  Item item;
  item.seq = seq;
  item.kind = Item::Kind::Full;
  item.owned = std::move(pkt);  // the vector move keeps the view's spans valid
  item.view = *view;
  shards_[owner]->ring.push(std::move(item));
}

void ParallelAnalyzer::offer_batch(std::span<const net::RawPacketView> batch,
                                   BatchLifetime lifetime) {
  offer_batch_impl(batch, lifetime, nullptr);
}

void ParallelAnalyzer::offer_batch(std::span<const net::RawPacketView> batch,
                                   BatchLifetime lifetime,
                                   const capture::BatchVerdicts& verdicts) {
  offer_batch_impl(batch, lifetime, &verdicts);
}

void ParallelAnalyzer::offer_batch_impl(std::span<const net::RawPacketView> batch,
                                        BatchLifetime lifetime,
                                        const capture::BatchVerdicts* verdicts) {
  if (batch.empty()) return;
  if (staging_.size() != shards_.size()) staging_.resize(shards_.size());
  for (auto& stage : staging_) stage.clear();

  if (verdicts != nullptr && !verdicts->promotions.empty())
    promotions_.insert(promotions_.end(), verdicts->promotions.begin(),
                       verdicts->promotions.end());

  // Transient sources reuse their buffer after we return, so the batch
  // is copied once into a refcounted block all its items share. Pinned
  // sources (mapped traces) are analyzed in place.
  std::shared_ptr<const std::vector<std::uint8_t>> block;
  const std::uint8_t* base = nullptr;
  if (lifetime == BatchLifetime::Transient) {
    std::size_t total = 0;
    for (const auto& pkt : batch) total += pkt.data.size();
    auto buf = std::make_shared<std::vector<std::uint8_t>>();
    buf->reserve(total);
    block_offsets_.clear();
    for (const auto& pkt : batch) {
      block_offsets_.push_back(buf->size());
      buf->insert(buf->end(), pkt.data.begin(), pkt.data.end());
    }
    base = buf->data();
    block = std::move(buf);
  }

  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    const net::RawPacketView& pkt = batch[idx];
    const std::uint64_t seq = next_seq_++;

    const capture::Verdict verdict =
        verdicts ? verdicts->verdicts[idx] : capture::Verdict::FullParse;
    if (verdict == capture::Verdict::Reject) {
      // The front end proved this packet cannot affect analysis; replay
      // only the global-order accounting ingest() would have done before
      // decode (the seq above is still consumed, keeping strict-mode
      // sequence numbers identical with the front end on or off).
      if (last_offer_ts_ && pkt.ts < *last_offer_ts_) ++health_.non_monotonic_ts;
      last_offer_ts_ = pkt.ts;
      if (pkt.is_truncated()) ++health_.snaplen_truncated;
      ++health_.frontend_rejected;
      ++frontend_rejected_packets_;
      frontend_rejected_bytes_ += pkt.data.size();
      continue;
    }

    std::span<const std::uint8_t> bytes =
        lifetime == BatchLifetime::Transient
            ? std::span<const std::uint8_t>(base + block_offsets_[idx],
                                            pkt.data.size())
            : pkt.data;
    auto view = ingest(seq, pkt, bytes);
    if (!view) continue;

    // Admits carry the owner shard stage 2 precomputed (bit-compatible
    // with the hash below by the FlowDispatchTable contract).
    std::size_t owner =
        verdict == capture::Verdict::Admit
            ? verdicts->shard[idx]
            : net::canonical_flow_hash(view->five_tuple().canonical()) %
                  shards_.size();

    // The STUN-candidate predicate can only pass for UDP packets
    // touching port 3478; admitted packets tell us that bit for free.
    const bool stun_possible =
        verdict != capture::Verdict::Admit ||
        (verdicts->flags[idx] & capture::kFlagStunPort) != 0;

    net::Ipv4Addr cand_ip;
    std::uint16_t cand_port = 0;
    if (stun_possible && stun_candidate(*view, &cand_ip, &cand_port)) {
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (i == owner) continue;
        Item cand;
        cand.seq = seq;
        cand.kind = Item::Kind::StunCandidate;
        cand.ts = pkt.ts;
        cand.ip = cand_ip;
        cand.port = cand_port;
        staging_[i].push_back(std::move(cand));
      }
    }

    Item item;
    item.seq = seq;
    item.kind = Item::Kind::Full;
    item.covered = verdict == capture::Verdict::Admit &&
                   (verdicts->flags[idx] & capture::kFlagOffloadCovered) != 0;
    item.view = *view;
    item.block = block;  // null on the pinned path
    staging_[owner].push_back(std::move(item));
  }

  // One publish per shard per batch: a single release-store amortised
  // over every item staged for that shard.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (staging_[i].empty()) continue;
    if (!config_.bounded_push) {
      shards_[i]->ring.push_batch(std::span<Item>(staging_[i]));
      continue;
    }
    // Bounded dispatch (live mode): never block the poll loop on a full
    // ring. Retry with yields for a bounded number of rounds, then shed
    // the remainder — every shed Full item is accounted (a StunCandidate
    // is a broadcast duplicate, not a packet, so it is not counted; the
    // owner shard's Full item carries the packet).
    std::span<Item> items(staging_[i]);
    std::uint32_t rounds = 0;
    while (!items.empty()) {
      const std::size_t n = shards_[i]->ring.try_push_batch(items);
      items = items.subspan(n);
      if (items.empty()) break;
      ++health_.ring_wait_spins;
      if (++rounds > config_.push_retry_rounds) {
        std::uint64_t shed = 0;
        for (const Item& item : items)
          if (item.kind == Item::Kind::Full) ++shed;
        ring_shed_packets_ += shed;
        health_.overload_shed_l4 += shed;
        break;
      }
      std::this_thread::yield();
    }
  }
}

double ParallelAnalyzer::max_ring_occupancy() const {
  double occ = 0.0;
  for (const auto& shard : shards_) {
    const double cap = static_cast<double>(shard->ring.capacity());
    occ = std::max(occ, static_cast<double>(shard->ring.size()) / cap);
  }
  return occ;
}

std::uint64_t ParallelAnalyzer::producer_wait_spins() const {
  std::uint64_t spins = 0;
  for (const auto& shard : shards_) spins += shard->ring.push_wait_spins();
  return spins;
}

void ParallelAnalyzer::finish() {
  if (finished_) return;
  for (auto& shard : shards_) shard->ring.close();
  for (auto& shard : shards_) shard->thread.join();

  counters_ = core::AnalyzerCounters{};
  counters_.total_packets = undecoded_packets_ + frontend_rejected_packets_;
  counters_.total_bytes = undecoded_bytes_ + frontend_rejected_bytes_;
  zoom_flow_count_ = 0;
  for (auto& shard : shards_) {
    counters_.merge(shard->analyzer.counters());
    zoom_flow_count_ += shard->analyzer.zoom_flow_count();
    // Health merging is plain u64 sums, so shard order cannot matter;
    // ring spins ride along as the (nondeterministic) backpressure gauge.
    health_.merge(shard->analyzer.health());
    health_.ring_wait_spins += shard->ring.push_wait_spins();
    if (const auto& v = shard->analyzer.strict_violation();
        v && (!violation_ || v->sequence < violation_->sequence)) {
      violation_ = *v;
    }
  }

  replay_journals();

  // Metrics finish after the replay so deferred RTT samples fold into
  // their per-second bins.
  for (auto& shard : shards_) shard->analyzer.finish();

  for (auto& shard : shards_)
    for (const auto& [flow, estimator] : shard->analyzer.tcp_rtt())
      tcp_rtt_.emplace(flow, estimator);

  finished_ = true;
}

void ParallelAnalyzer::replay_journals() {
  // Per-stream state the duplicate-media match reads (§4.3 step 1),
  // rebuilt across shards in global creation order.
  struct MergedStream {
    core::StreamInfo* info = nullptr;
    std::int64_t last_ext_rtp_ts = 0;
    util::Timestamp last_seen;
  };
  std::vector<MergedStream> merged;
  std::vector<std::vector<std::size_t>> local_to_merged(shards_.size());
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_ssrc;
  metrics::RtpCopyMatcher matcher;
  const core::DuplicateMatchConfig& dup = config_.analyzer.duplicate_match;

  std::vector<std::size_t> pos(shards_.size(), 0);
  for (;;) {
    // Pick the shard holding the globally-next event; per-shard journals
    // are already in ascending packet order, so this is a k-way merge.
    std::size_t best = shards_.size();
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const auto& events = shards_[i]->journal.events;
      if (pos[i] < events.size() && events[pos[i]].seq < best_seq) {
        best = i;
        best_seq = events[pos[i]].seq;
      }
    }
    if (best == shards_.size()) break;

    const core::ShardJournal::Event& ev = shards_[best]->journal.events[pos[best]++];
    auto& shard_streams = shards_[best]->analyzer.streams().streams();

    if (const auto* create = std::get_if<core::ShardJournal::StreamCreate>(&ev.data)) {
      core::StreamInfo* info = shard_streams[ev.stream].get();
      // Same match rules as StreamTable::get_or_create, now against the
      // merged cross-shard state.
      std::optional<std::uint64_t> matched_media_id;
      if (auto it = by_ssrc.find(info->key.ssrc); it != by_ssrc.end()) {
        for (std::size_t idx : it->second) {
          const MergedStream& other = merged[idx];
          if (other.info->key.flow == create->flow) continue;
          if (other.info->kind != create->kind) continue;
          if (ev.ts - other.last_seen > dup.max_wall_gap) continue;
          if (dup.require_timestamp_match) {
            std::int64_t delta = std::llabs(util::serial_diff(
                static_cast<std::uint32_t>(other.last_ext_rtp_ts),
                create->first_rtp_ts));
            if (delta > dup.max_rtp_ts_delta) continue;
          }
          matched_media_id = other.info->media_id;
          break;
        }
      }
      info->media_id = matched_media_id ? *matched_media_id : next_media_id_++;
      info->meeting_id =
          grouper_.assign(info->media_id, create->client_ip, create->client_port,
                          ev.ts, create->is_p2p, create->peer);
      info->index = merged.size();
      by_ssrc[info->key.ssrc].push_back(merged.size());
      local_to_merged[best].push_back(merged.size());
      merged.push_back(MergedStream{info, create->ext_rtp_ts, ev.ts});
      streams_.push_back(info);
    } else if (const auto* touch =
                   std::get_if<core::ShardJournal::StreamTouch>(&ev.data)) {
      MergedStream& ms = merged[local_to_merged[best][ev.stream]];
      ms.last_ext_rtp_ts = touch->ext_rtp_ts;
      ms.last_seen = touch->last_seen;
      grouper_.touch(ms.info->meeting_id, ev.ts);
    } else if (const auto* egress =
                   std::get_if<core::ShardJournal::RtpEgress>(&ev.data)) {
      matcher.on_egress(ev.ts, egress->ssrc, egress->rtp_seq, egress->rtp_ts);
    } else if (const auto* ingress =
                   std::get_if<core::ShardJournal::RtpIngress>(&ev.data)) {
      if (auto sample = matcher.on_ingress(ev.ts, ingress->ssrc, ingress->rtp_seq,
                                           ingress->rtp_ts)) {
        MergedStream& ms = merged[local_to_merged[best][ev.stream]];
        ms.info->metrics->on_rtt_sample(*sample);
        grouper_.add_rtt_sample(ms.info->meeting_id, *sample);
      }
    }
  }

  sfu_rtt_samples_ = matcher.samples();
}

}  // namespace zpm::pipeline
