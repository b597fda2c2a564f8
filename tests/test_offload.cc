// Data-plane metric offload (capture/offload.h):
//
//  * switch-primitive unit behavior — power-of-two bucket boundaries,
//    histogram add/merge, the jitter EWMA + spin-bit probe against the
//    exact-sample OffloadReference, collision/eviction accounting under
//    register pressure;
//  * the report codec (sentinel, per-histogram sample-sum invariant,
//    truncation rejection);
//  * the host contract — analyzer output identical with the offload on
//    or off for uncovered traffic (serial and 4-shard, clean and
//    hostile traces, down to the encoded epoch record), and for covered
//    media flows the counting path unchanged while the per-packet
//    estimator work (copy-matcher RTT sampling) is actually skipped;
//  * bucketed histograms vs the exact per-packet CDF on a meeting
//    trace: bit-identical to the reference, quantiles within one
//    bucket width;
//  * epoch + snapshot round trips with the offload fields populated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/epoch.h"
#include "analysis/snapshot.h"
#include "capture/batch_filter.h"
#include "capture/offload.h"
#include "core/analyzer.h"
#include "net/packet.h"
#include "pipeline/parallel_analyzer.h"
#include "sim/campus.h"
#include "sim/corruptor.h"
#include "sim/meeting.h"
#include "util/bytes.h"
#include "zoom/constants.h"

namespace zpm::capture {
namespace {

using util::Timestamp;

constexpr std::size_t kBatch = 256;

std::vector<net::RawPacketView> views_of(const std::vector<net::RawPacket>& trace,
                                         std::size_t begin, std::size_t end) {
  std::vector<net::RawPacketView> batch;
  batch.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) batch.push_back(net::as_view(trace[i]));
  return batch;
}

/// Campus background only: the 30 s window clamps every scheduled
/// meeting below the 2-minute floor, so the trace carries STUN,
/// look-alikes and bulk background but no server-port SFU media —
/// nothing the offload can cover.
std::vector<net::RawPacket> uncovered_trace(bool hostile) {
  sim::CampusConfig cc;
  cc.seed = 99;
  cc.duration = util::Duration::seconds(30);
  cc.meetings_per_peak_hour = 30.0;
  cc.background_ratio = 1.0;
  if (hostile) cc.corruption = sim::CorruptorConfig::hostile(0xBEEF);
  sim::CampusSimulation campus(cc);
  std::vector<net::RawPacket> trace;
  while (auto pkt = campus.next_packet()) trace.push_back(std::move(*pkt));
  return trace;
}

std::vector<net::RawPacket> meeting_trace() {
  sim::MeetingConfig mc;
  mc.seed = 31;
  mc.duration = util::Duration::seconds(40);
  sim::ParticipantConfig a, b, c;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  c.ip = net::Ipv4Addr(98, 0, 0, 3);
  c.on_campus = false;
  b.send_screen_share = true;
  mc.participants = {a, b, c};
  return sim::run_meeting(mc);
}

OffloadFields media_fields(std::uint32_t ssrc, std::uint8_t direction,
                           std::uint16_t seq, std::uint32_t rtp_ts) {
  OffloadFields f;
  f.direction = direction;
  f.media_type = static_cast<std::uint8_t>(zoom::MediaEncapType::Video);
  f.seq = seq;
  f.rtp_ts = rtp_ts;
  f.ssrc = ssrc;
  f.clock_hz = zoom::kVideoClockHz;
  f.payload_bytes = 900;
  return f;
}

// ---------------------------------------------------------------------------
// Switch primitives

TEST(OffloadBucket, PowerOfTwoBoundaries) {
  EXPECT_EQ(offload_bucket(0), 0u);
  EXPECT_EQ(offload_bucket(1), 0u);
  EXPECT_EQ(offload_bucket(2), 1u);
  EXPECT_EQ(offload_bucket(3), 1u);
  EXPECT_EQ(offload_bucket(4), 2u);
  EXPECT_EQ(offload_bucket(7), 2u);
  EXPECT_EQ(offload_bucket(8), 3u);
  EXPECT_EQ(offload_bucket(1023), 9u);
  EXPECT_EQ(offload_bucket(1024), 10u);
  // Top bucket is open-ended: everything >= 2^15 us.
  EXPECT_EQ(offload_bucket((std::uint64_t{1} << 15) - 1), 14u);
  EXPECT_EQ(offload_bucket(std::uint64_t{1} << 15), 15u);
  EXPECT_EQ(offload_bucket(std::uint64_t{1} << 40), 15u);
  // Every value lands in the bucket whose [2^b, 2^(b+1)) range holds it.
  for (std::uint64_t us = 0; us < 70'000; us += 7) {
    const std::size_t b = offload_bucket(us);
    if (b < kOffloadBuckets - 1)
      EXPECT_LT(us, std::uint64_t{1} << (b + 1)) << us;
    if (b > 0) EXPECT_GE(us, std::uint64_t{1} << b) << us;
  }
}

TEST(OffloadHistogram, AddMergeAndEquality) {
  OffloadHistogram a, b;
  a.add(3);
  a.add(3);
  a.add(100);
  b.add(40'000);
  EXPECT_EQ(a.buckets[1], 2u);
  EXPECT_EQ(a.buckets[6], 1u);
  EXPECT_EQ(a.samples, 3u);
  a.merge(b);
  EXPECT_EQ(a.buckets[15], 1u);
  EXPECT_EQ(a.samples, 4u);
  OffloadHistogram c = a;
  EXPECT_TRUE(c == a);
  c.add(1);
  EXPECT_FALSE(c == a);
}

TEST(DataPlaneOffload, JitterPathMatchesExactReference) {
  DataPlaneOffload offload;
  OffloadReference reference{};
  // One stream, deterministic delta pattern wobbling around 33 ms; the
  // first packet seeds the slot, the second seeds the EWMA, samples
  // exist from the third on.
  std::int64_t t = 1'000'000;
  for (int i = 0; i < 200; ++i) {
    const auto f = media_fields(7, zoom::kSfuDirToSfu,
                                static_cast<std::uint16_t>(i),
                                static_cast<std::uint32_t>(i) * 3000);
    offload.on_media_packet(Timestamp::from_micros(t), f);
    reference.on_media_packet(Timestamp::from_micros(t), f);
    t += 33'000 + (i % 7) * 900 - 2'700;
  }
  const auto got = offload.report();
  EXPECT_TRUE(got == reference.report());
  EXPECT_EQ(got.jitter.samples, 198u);
  EXPECT_EQ(got.covered_packets, 200u);
}

TEST(DataPlaneOffload, ProbeMeasuresSfuForwardingRtt) {
  DataPlaneOffload offload;
  // Upstream copy arms the probe; the SFU's forwarded copy (same
  // (ssrc, seq, ts) triple, opposite direction) reads it 8 ms later.
  offload.on_media_packet(Timestamp::from_micros(10'000),
                          media_fields(7, zoom::kSfuDirToSfu, 42, 99));
  offload.on_media_packet(Timestamp::from_micros(18'000),
                          media_fields(7, zoom::kSfuDirFromSfu, 42, 99));
  auto rep = offload.report();
  EXPECT_EQ(rep.probe_arms, 1u);
  EXPECT_EQ(rep.rtt.samples, 1u);
  EXPECT_EQ(rep.rtt.buckets[offload_bucket(8'000)], 1u);

  // A forwarded copy whose triple was never armed reads nothing; the
  // match also invalidated the slot, so a duplicate copy reads nothing.
  offload.on_media_packet(Timestamp::from_micros(20'000),
                          media_fields(7, zoom::kSfuDirFromSfu, 43, 99));
  offload.on_media_packet(Timestamp::from_micros(21'000),
                          media_fields(7, zoom::kSfuDirFromSfu, 42, 99));
  EXPECT_EQ(offload.report().rtt.samples, 1u);
}

TEST(DataPlaneOffload, RegisterPressureIsAccountedAndMatchesReference) {
  // Minimum register sizing (16 slots each): hundreds of distinct
  // streams force collision-overwrite churn in every array. The exact
  // counts are hash-dependent; the contract is that they are counted,
  // and identically so by the reference.
  OffloadConfig small;
  small.flow_slots = 1;
  small.probe_slots = 1;
  DataPlaneOffload offload(small);
  OffloadReference reference(small);
  std::int64_t t = 0;
  for (std::uint32_t s = 0; s < 400; ++s) {
    for (int i = 0; i < 3; ++i) {
      const auto f = media_fields(1000 + s, zoom::kSfuDirToSfu,
                                  static_cast<std::uint16_t>(i),
                                  static_cast<std::uint32_t>(i) * 3000);
      offload.on_media_packet(Timestamp::from_micros(t), f);
      reference.on_media_packet(Timestamp::from_micros(t), f);
      t += 500;
    }
  }
  const auto rep = offload.report();
  EXPECT_TRUE(rep == reference.report());
  EXPECT_GT(rep.flow_evictions, 0u);
  EXPECT_GT(rep.probe_collisions, 0u);
  EXPECT_GT(rep.collisions(), rep.probe_collisions);  // SSRC tags add their own
}

TEST(DataPlaneOffload, SsrcTagRegisterCountsTelemetryCollisions) {
  // The SSRC-tag registers (flow_slots entries, SSRC hash): a packet
  // whose slot is valid but holds another SSRC overwrites it and counts
  // one telemetry collision. 48 streams (SSRC 0 among them, a valid
  // SSRC, not an empty slot) interleave over 16 slots, then one stream
  // repeats; the count was taken from the embedded per-SSRC telemetry
  // model these registers replace.
  OffloadConfig small;
  small.flow_slots = 16;
  DataPlaneOffload offload(small);
  OffloadReference reference(small);
  std::uint64_t per_packet = 0;
  std::int64_t t = 0;
  const auto feed = [&](std::uint32_t ssrc, int i) {
    const auto f = media_fields(ssrc, zoom::kSfuDirToSfu,
                                static_cast<std::uint16_t>(i),
                                static_cast<std::uint32_t>(i) * 3000);
    per_packet += offload.on_media_packet(Timestamp::from_micros(t), f)
                      .telemetry_collisions;
    reference.on_media_packet(Timestamp::from_micros(t), f);
    t += 250;
  };
  for (int i = 0; i < 4; ++i)
    for (std::uint32_t s = 0; s < 48; ++s) feed(s * 2654435761u, i);
  for (int i = 4; i < 20; ++i) feed(0, i);
  const auto rep = offload.report();
  EXPECT_EQ(rep.telemetry_collisions, 179u);
  EXPECT_EQ(per_packet, rep.telemetry_collisions);
  EXPECT_TRUE(rep == reference.report());
}

// ---------------------------------------------------------------------------
// Report codec

TEST(OffloadCodec, RoundTripsAndRejectsMalformedFraming) {
  OffloadReport rep;
  rep.jitter.add(5);
  rep.jitter.add(700);
  rep.rtt.add(12'000);
  rep.covered_packets = 3;
  rep.probe_arms = 2;
  rep.probe_collisions = 1;
  rep.flow_evictions = 4;
  rep.telemetry_collisions = 5;

  util::ByteWriter w;
  encode_offload_report(rep, w);
  const auto bytes = w.take();
  {
    util::ByteReader r(bytes);
    const auto decoded = decode_offload_report(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(*decoded == rep);
    EXPECT_EQ(r.remaining(), 0u);
  }
  // Truncation at any prefix fails cleanly.
  for (std::size_t len = 0; len < bytes.size(); len += 9) {
    util::ByteReader r(std::span(bytes.data(), len));
    EXPECT_FALSE(decode_offload_report(r).has_value()) << "len " << len;
  }
  // Wrong bucket-count sentinel.
  auto bad = bytes;
  bad[3] = 17;
  util::ByteReader r1(bad);
  EXPECT_FALSE(decode_offload_report(r1).has_value());
  // Histogram sample counter disagreeing with its bucket sum.
  bad = bytes;
  bad[4 + 16 * 8 + 7] ^= 1;  // jitter.samples low byte
  util::ByteReader r2(bad);
  EXPECT_FALSE(decode_offload_report(r2).has_value());
}

// ---------------------------------------------------------------------------
// Host contract: identity for uncovered traffic, skipped work for covered

/// Serial pass through a front end, honoring the covered flag exactly
/// like the zpm_analyze dispatch loop.
void run_serial(const std::vector<net::RawPacket>& trace, core::Analyzer& analyzer,
                BatchFilter& filter) {
  BatchVerdicts verdicts;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    filter.classify(batch, verdicts);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (verdicts.verdicts[j] == Verdict::Reject)
        analyzer.account_frontend_rejected(batch[j]);
      else
        analyzer.offer(batch[j], verdicts.verdicts[j] == Verdict::Admit &&
                                     (verdicts.flags[j] & kFlagOffloadCovered) != 0);
    }
  }
  analyzer.finish();
}

/// Single-epoch encoded record for a trace (limits disabled, flush).
std::vector<std::uint8_t> encoded_epoch(const std::vector<net::RawPacket>& trace,
                                        std::size_t shards, bool offload) {
  analysis::EpochEngineConfig ec;
  ec.shards = shards;
  ec.frontend = true;
  ec.flow_memory_budget = 0;
  ec.dataplane_offload = offload;
  ec.limits.max_packets = 0;
  ec.limits.max_span = util::Duration::micros(0);
  analysis::EpochEngine engine(std::move(ec));
  std::vector<analysis::EpochReport> completed;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    engine.offer(batch, pipeline::BatchLifetime::Pinned, completed);
  }
  EXPECT_TRUE(completed.empty());
  auto rep = engine.flush();
  util::ByteWriter w;
  if (rep) analysis::encode_epoch_report(*rep, w);
  return w.take();
}

TEST(OffloadIdentity, UncoveredTrafficIsByteIdenticalOnOrOff) {
  for (const bool hostile : {false, true}) {
    SCOPED_TRACE(hostile ? "hostile" : "clean");
    const auto trace = uncovered_trace(hostile);
    ASSERT_GT(trace.size(), 1000u);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const auto off = encoded_epoch(trace, shards, false);
      const auto on = encoded_epoch(trace, shards, true);
      ASSERT_FALSE(off.empty());
      EXPECT_EQ(off, on);
    }
    // Nothing in this trace is coverable, so the flag never fired.
    BatchFilterConfig fc;
    fc.dataplane_offload = true;
    BatchFilter filter(fc);
    core::Analyzer analyzer{core::AnalyzerConfig{}};
    run_serial(trace, analyzer, filter);
    EXPECT_EQ(filter.stats().offload_covered, 0u);
    EXPECT_EQ(filter.offload_report().covered_packets, 0u);
  }
}

TEST(OffloadCovered, CountingPathUnchangedEstimatorWorkSkipped) {
  const auto trace = meeting_trace();
  core::AnalyzerConfig cfg;

  auto run = [&](bool offload_on) {
    BatchFilterConfig fc;
    fc.server_db = cfg.server_db;
    fc.dataplane_offload = offload_on;
    BatchFilter filter(fc);
    core::Analyzer analyzer(cfg);
    run_serial(trace, analyzer, filter);
    return std::pair<core::Analyzer, FrontEndStats>{std::move(analyzer),
                                                    filter.stats()};
  };
  auto [off, off_stats] = run(false);
  auto [on, on_stats] = run(true);

  // The counting path (packet/frame/loss/stream/meeting bookkeeping) is
  // untouched by coverage.
  EXPECT_EQ(off.counters(), on.counters());
  EXPECT_EQ(off.zoom_flow_count(), on.zoom_flow_count());
  EXPECT_EQ(off.streams().size(), on.streams().size());
  EXPECT_EQ(off.streams().media_count(), on.streams().media_count());
  EXPECT_EQ(off.meetings().meeting_count(), on.meetings().meeting_count());

  // Every server-leg media packet in a meeting trace is coverable, and
  // the copy-matcher work those packets used to feed is actually gone.
  EXPECT_GT(on_stats.offload_covered, 0u);
  EXPECT_EQ(off_stats.offload_covered, 0u);
  EXPECT_GT(off.sfu_rtt_samples().size(), 0u);
  EXPECT_EQ(on.sfu_rtt_samples().size(), 0u);
}

TEST(OffloadCovered, ShardedHistogramMergeCoversEveryPacket) {
  const auto trace = meeting_trace();
  auto covered_at = [&](std::size_t shards) {
    BatchFilterConfig fc;
    fc.shards = shards;
    fc.dataplane_offload = true;
    BatchFilter filter(fc);
    pipeline::ParallelAnalyzerConfig pc;
    pc.shards = shards;
    pipeline::ParallelAnalyzer par(pc);
    BatchVerdicts verdicts;
    for (std::size_t i = 0; i < trace.size(); i += kBatch) {
      auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
      filter.classify(batch, verdicts);
      par.offer_batch(batch, pipeline::BatchLifetime::Pinned, verdicts);
    }
    par.finish();
    return filter.offload_report();
  };
  const auto serial = covered_at(1);
  const auto sharded = covered_at(4);
  // Coverage is a pure per-packet predicate: shard-count invariant.
  EXPECT_EQ(serial.covered_packets, sharded.covered_packets);
  EXPECT_GT(serial.covered_packets, 0u);
  // The merged per-shard registers account every covered packet's
  // probe arm (stream-to-shard routing keeps a stream's packets on one
  // instance; only slot-collision churn may differ across counts).
  EXPECT_EQ(serial.probe_arms, sharded.probe_arms);
}

// ---------------------------------------------------------------------------
// Bucketed CDF vs exact per-packet CDF

TEST(OffloadCdf, BucketedHistogramsMatchExactReferenceOnMeetingTrace) {
  const auto trace = meeting_trace();
  BatchFilterConfig fc;
  fc.shards = 1;
  fc.dataplane_offload = true;
  BatchFilter filter(fc);
  OffloadReference reference{};
  BatchVerdicts verdicts;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    filter.classify(batch, verdicts);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (verdicts.verdicts[j] != Verdict::Admit ||
          (verdicts.flags[j] & kFlagOffloadCovered) == 0)
        continue;
      const auto f = extract_offload_fields(batch[j].data);
      ASSERT_TRUE(f.has_value());  // coverage implies extractable fields
      reference.on_media_packet(batch[j].ts, *f);
    }
  }
  const auto hist = filter.offload_report();
  EXPECT_TRUE(hist == reference.report());
  ASSERT_GT(hist.jitter.samples, 100u);
  ASSERT_GT(hist.rtt.samples, 100u);

  // Quantile estimates from the bucketed histogram sit within one
  // bucket width of the exact per-packet CDF.
  auto check_quantiles = [](const OffloadHistogram& h,
                            std::vector<std::uint64_t> exact) {
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.5, 0.9, 0.99}) {
      const auto idx =
          static_cast<std::size_t>(q * static_cast<double>(exact.size() - 1));
      std::uint64_t cum = 0;
      std::size_t bucket = kOffloadBuckets - 1;
      for (std::size_t b = 0; b < kOffloadBuckets; ++b) {
        cum += h.buckets[b];
        if (cum >= idx + 1) {
          bucket = b;
          break;
        }
      }
      EXPECT_EQ(offload_bucket(exact[idx]), bucket) << "q=" << q;
    }
  };
  check_quantiles(hist.jitter, reference.jitter_samples_us());
  check_quantiles(hist.rtt, reference.rtt_samples_us());
}

// ---------------------------------------------------------------------------
// Epoch + snapshot round trips with offload fields populated

TEST(OffloadEpoch, RecordCarriesHistogramsAndRoundTrips) {
  const auto trace = meeting_trace();
  analysis::EpochEngineConfig ec;
  ec.frontend = true;
  ec.flow_memory_budget = 0;
  ec.dataplane_offload = true;
  ec.limits.max_packets = 0;
  ec.limits.max_span = util::Duration::micros(0);
  analysis::EpochEngine engine(std::move(ec));
  std::vector<analysis::EpochReport> completed;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    auto batch = views_of(trace, i, std::min(trace.size(), i + kBatch));
    engine.offer(batch, pipeline::BatchLifetime::Pinned, completed);
  }
  auto rep = engine.flush();
  ASSERT_TRUE(rep.has_value());

  // The record's offload section is the filter's merged report, and the
  // health accounting mirrors it.
  EXPECT_GT(rep->offload.covered_packets, 0u);
  EXPECT_GT(rep->offload.jitter.samples, 0u);
  EXPECT_GT(rep->offload.rtt.samples, 0u);
  EXPECT_EQ(rep->health.offload_covered_packets, rep->offload.covered_packets);
  EXPECT_EQ(rep->health.offload_collisions, rep->offload.collisions());
  EXPECT_EQ(rep->health.offload_evictions, rep->offload.flow_evictions);

  util::ByteWriter w;
  analysis::encode_epoch_report(*rep, w);
  const auto bytes = w.take();
  util::ByteReader r(bytes);
  analysis::EpochReport decoded;
  ASSERT_TRUE(analysis::decode_epoch_report(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(decoded == *rep);
  EXPECT_TRUE(decoded.offload == rep->offload);
  util::ByteWriter w2;
  analysis::encode_epoch_report(decoded, w2);
  EXPECT_EQ(w2.take(), bytes);

  // Snapshot wrapper (version 3): the offload-bearing record and the
  // offload health counters survive the full save-format round trip.
  analysis::SnapshotData snap;
  snap.next_epoch_seq = 1;
  snap.packets_consumed = trace.size();
  snap.cumulative_health = rep->health;
  snap.recent_epochs.push_back(*rep);
  analysis::SnapshotData restored;
  ASSERT_TRUE(analysis::parse_snapshot(analysis::encode_snapshot(snap), restored));
  EXPECT_EQ(restored, snap);

  analysis::EpochReport from_file;
  ASSERT_TRUE(
      analysis::parse_epoch_file(analysis::encode_epoch_file(*rep), from_file));
  EXPECT_TRUE(from_file == *rep);
}

}  // namespace
}  // namespace zpm::capture
