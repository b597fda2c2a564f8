// The epoch engine's determinism contract: rotation is packet-exact —
// epoch records are pure functions of (packet stream, configuration),
// independent of how the stream is chopped into batches — eviction at
// rotation is health-accounted, and the record codec round-trips
// byte-identically and rejects truncation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "analysis/epoch.h"
#include "net/pcap.h"
#include "net/trace_source.h"
#include "sim/meeting.h"

namespace zpm::analysis {
namespace {

/// One short meeting, loaded once as owned packets (pinned storage).
const std::vector<net::RawPacket>& meeting_packets() {
  static const std::vector<net::RawPacket> packets = [] {
    // PID-unique: parallel ctest workers share /tmp.
    const std::string path = ::testing::TempDir() + "/epoch_meeting." +
                             std::to_string(::getpid()) + ".pcap";
    sim::MeetingConfig mc;
    mc.seed = 23;
    mc.start = util::Timestamp::from_seconds(1'700'000'000);
    mc.duration = util::Duration::seconds(20);
    sim::ParticipantConfig a, b, c;
    a.ip = net::Ipv4Addr(10, 8, 1, 20);
    b.ip = net::Ipv4Addr(10, 8, 2, 31);
    c.ip = net::Ipv4Addr(98, 0, 0, 3);
    c.on_campus = false;
    mc.participants = {a, b, c};
    sim::MeetingSim sim(mc);
    net::PcapWriter writer(path);
    while (auto pkt = sim.next_packet()) writer.write(*pkt);
    EXPECT_TRUE(writer.ok());

    std::vector<net::RawPacket> out;
    net::TraceSource source(path);
    EXPECT_TRUE(source.ok());
    while (auto view = source.next()) out.push_back(view->to_owned());
    EXPECT_GT(out.size(), 2000u);
    return out;
  }();
  return packets;
}

std::vector<net::RawPacketView> views_of(const std::vector<net::RawPacket>& pkts) {
  std::vector<net::RawPacketView> views;
  views.reserve(pkts.size());
  for (const auto& p : pkts)
    views.push_back(net::RawPacketView{p.ts, p.data, p.orig_len});
  return views;
}

/// Runs the whole stream through an engine in `batch`-sized chunks and
/// returns every completed epoch (flush included).
std::vector<EpochReport> run_epochs(const EpochEngineConfig& config,
                                    std::size_t batch) {
  const auto views = views_of(meeting_packets());
  EpochEngine engine(config);
  std::vector<EpochReport> completed;
  for (std::size_t off = 0; off < views.size(); off += batch) {
    const std::size_t n = std::min(batch, views.size() - off);
    engine.offer(std::span<const net::RawPacketView>(views).subspan(off, n),
                 pipeline::BatchLifetime::Pinned, completed);
  }
  if (auto last = engine.flush()) completed.push_back(std::move(*last));
  return completed;
}

std::vector<std::uint8_t> encode(const EpochReport& report) {
  util::ByteWriter w;
  encode_epoch_report(report, w);
  return w.take();
}

TEST(EpochEngine, RotationIsPacketExactAcrossBatchSizes) {
  EpochEngineConfig config;
  config.limits.max_packets = 700;
  config.limits.max_span = util::Duration::micros(0);

  const auto baseline = run_epochs(config, 4096);
  ASSERT_GT(baseline.size(), 3u);
  for (std::size_t i = 0; i + 1 < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].packets, 700u) << "epoch " << i;
    EXPECT_EQ(baseline[i].seq, i);
  }
  // Global packet indices tile the stream with no gaps or overlaps.
  std::uint64_t expect_first = 0;
  for (const auto& rep : baseline) {
    EXPECT_EQ(rep.first_packet, expect_first);
    expect_first += rep.packets;
  }
  EXPECT_EQ(expect_first, meeting_packets().size());

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{3}, std::size_t{257}, std::size_t{701}}) {
    const auto got = run_epochs(config, batch);
    ASSERT_EQ(got.size(), baseline.size()) << "batch " << batch;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == baseline[i]) << "batch " << batch << " epoch " << i;
      EXPECT_EQ(encode(got[i]), encode(baseline[i]))
          << "batch " << batch << " epoch " << i;
    }
  }
}

TEST(EpochEngine, ShardedRecordsMatchSerialWithoutSketchTier) {
  // With the sketch tier disabled the records are shard-invariant
  // end-to-end (the tier's eviction pattern is the one legitimately
  // shard-dependent piece — see epoch.h).
  EpochEngineConfig config;
  config.limits.max_packets = 900;
  config.limits.max_span = util::Duration::micros(0);
  config.flow_memory_budget = 0;

  const auto serial = run_epochs(config, 512);
  config.shards = 4;
  const auto sharded = run_epochs(config, 512);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(encode(serial[i]), encode(sharded[i])) << "epoch " << i;
}

TEST(EpochEngine, ShardedAnalyzerFieldsMatchSerialWithSketchTier) {
  EpochEngineConfig config;
  config.limits.max_packets = 900;
  config.limits.max_span = util::Duration::micros(0);

  const auto serial = run_epochs(config, 512);
  config.shards = 4;
  const auto sharded = run_epochs(config, 512);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].counters.zoom_packets, sharded[i].counters.zoom_packets);
    EXPECT_EQ(serial[i].stream_count, sharded[i].stream_count);
    EXPECT_EQ(serial[i].media_count, sharded[i].media_count);
    EXPECT_EQ(serial[i].meeting_count, sharded[i].meeting_count);
    EXPECT_EQ(serial[i].zoom_flow_count, sharded[i].zoom_flow_count);
    EXPECT_EQ(serial[i].packets, sharded[i].packets);
  }
}

TEST(EpochEngine, SpanTriggerRotatesOnCaptureTime) {
  EpochEngineConfig config;
  config.limits.max_packets = 0;
  config.limits.max_span = util::Duration::seconds(5.0);

  const auto epochs = run_epochs(config, 512);
  ASSERT_GE(epochs.size(), 3u);  // 20 s meeting, 5 s windows
  for (std::size_t i = 0; i + 1 < epochs.size(); ++i) {
    // Completed epochs stay within the span; the packet that would
    // stretch past it opens the next epoch instead.
    EXPECT_LT((epochs[i].last_ts - epochs[i].first_ts).us(),
              config.limits.max_span.us())
        << "epoch " << i;
    EXPECT_GE((epochs[i + 1].first_ts - epochs[i].first_ts).us(),
              config.limits.max_span.us())
        << "epoch " << i;
  }
}

TEST(EpochEngine, EvictionIsHealthAccounted) {
  EpochEngineConfig config;
  config.limits.max_packets = 1500;
  config.limits.max_span = util::Duration::micros(0);

  bool saw_flows = false;
  for (const auto& rep : run_epochs(config, 512)) {
    EXPECT_EQ(rep.health.epoch_evicted_flows, rep.zoom_flow_count);
    EXPECT_EQ(rep.health.epoch_evicted_meetings, rep.meeting_count);
    // Nondeterministic gauges are zeroed in the durable record.
    EXPECT_EQ(rep.health.ring_wait_spins, 0u);
    EXPECT_EQ(rep.health.source_stalls, 0u);
    saw_flows = saw_flows || rep.zoom_flow_count > 0;
  }
  EXPECT_TRUE(saw_flows) << "trace produced no Zoom flow state to evict";
}

TEST(EpochEngine, LimitChangeIsImmediateStagedConfigWaits) {
  EpochEngineConfig config;
  config.limits.max_packets = 1'000'000;
  config.limits.max_span = util::Duration::micros(0);
  const auto views = views_of(meeting_packets());
  EpochEngine engine(config);
  std::vector<EpochReport> completed;

  engine.offer(std::span<const net::RawPacketView>(views).subspan(0, 100),
               pipeline::BatchLifetime::Pinned, completed);
  EXPECT_TRUE(completed.empty());

  // Shrinking the packet limit below what's already buffered rotates on
  // the very next packet (SIGHUP responsiveness).
  EpochLimits limits = config.limits;
  limits.max_packets = 50;
  engine.set_limits(limits);
  auto staged = engine.config().analyzer;
  engine.stage_config(staged, /*frontend=*/false, /*flow_memory_budget=*/0);
  EXPECT_TRUE(engine.config().frontend) << "staged change must not pre-empt";

  engine.offer(std::span<const net::RawPacketView>(views).subspan(100, 100),
               pipeline::BatchLifetime::Pinned, completed);
  ASSERT_FALSE(completed.empty());
  EXPECT_EQ(completed[0].packets, 100u);  // closed at the boundary, intact
  // The staged engine change took effect when epoch 1 opened.
  EXPECT_FALSE(engine.config().frontend);
  EXPECT_EQ(engine.config().flow_memory_budget, 0u);
  // Live limits survive the staged swap.
  EXPECT_EQ(engine.config().limits.max_packets, 50u);
}

TEST(EpochEngine, FlushOnEmptyEpochIsNullopt) {
  EpochEngineConfig config;
  EpochEngine engine(config);
  EXPECT_FALSE(engine.flush().has_value());

  const auto views = views_of(meeting_packets());
  std::vector<EpochReport> completed;
  engine.offer(std::span<const net::RawPacketView>(views).subspan(0, 10),
               pipeline::BatchLifetime::Pinned, completed);
  auto rep = engine.flush();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->packets, 10u);
  EXPECT_FALSE(engine.flush().has_value());
  EXPECT_EQ(engine.next_seq(), 1u);
}

TEST(EpochEngine, FinishWritesFlushBytesAndKeepsWindowReadable) {
  // finish() is flush() without opening a next window: same record and
  // journal slices, and the closed window stays readable afterwards.
  const auto views = views_of(meeting_packets());
  for (const std::size_t shards : {1u, 3u}) {
    EpochEngineConfig config;
    config.shards = shards;
    config.collect_journal = true;
    config.limits = {0, util::Duration::micros(0)};
    EpochEngine flushed(config);
    EpochEngine finished(config);
    std::vector<EpochReport> completed;
    flushed.offer(views, pipeline::BatchLifetime::Pinned, completed);
    finished.offer(views, pipeline::BatchLifetime::Pinned, completed);
    EXPECT_TRUE(completed.empty());
    query::EpochSliceSet flush_slices, finish_slices;
    const auto a = flushed.flush(&flush_slices);
    const auto b = finished.finish(&finish_slices);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(encode(*a), encode(*b)) << shards;
    EXPECT_EQ(flush_slices, finish_slices) << shards;
    EXPECT_EQ(finished.next_seq(), 1u);

    EXPECT_EQ(finished.streams().size(), b->stream_count);
    EXPECT_GT(b->stream_count, 0u);
    EXPECT_EQ(finished.meetings().meeting_count(), b->meeting_count);
    EXPECT_FALSE(finished.strict_violation().has_value());
    ASSERT_NE(finished.frontend(), nullptr);
    EXPECT_EQ(finished.frontend()->stats().packets, views.size());
  }
  // An empty window finishes to nullopt and still reads as empty.
  EpochEngine empty{EpochEngineConfig{}};
  EXPECT_FALSE(empty.finish().has_value());
  EXPECT_TRUE(empty.streams().empty());
}

TEST(EpochReportCodec, RoundTripsAndRejectsTruncation) {
  EpochEngineConfig config;
  config.limits.max_packets = 1200;
  config.limits.max_span = util::Duration::micros(0);
  const auto epochs = run_epochs(config, 512);
  ASSERT_FALSE(epochs.empty());

  for (const auto& rep : epochs) {
    const auto bytes = encode(rep);
    util::ByteReader r(bytes);
    EpochReport decoded;
    ASSERT_TRUE(decode_epoch_report(r, decoded));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(decoded == rep);
    EXPECT_EQ(encode(decoded), bytes);
  }

  // Every truncation must fail cleanly, never crash or accept.
  const auto bytes = encode(epochs[0]);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    util::ByteReader r(std::span<const std::uint8_t>(bytes).subspan(0, len));
    EpochReport decoded;
    EXPECT_FALSE(decode_epoch_report(r, decoded) && r.remaining() == 0)
        << "accepted truncation at " << len;
  }
}

}  // namespace
}  // namespace zpm::analysis
