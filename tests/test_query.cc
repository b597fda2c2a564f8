// The metric-journal/query contract: codecs round-trip and reject
// corruption, the footer index selects exactly the window's records
// (and a journal that lost its index scans to the same answer), window
// boundaries are exact, corrupt/truncated journals are skipped *and
// accounted*, and the headline exactness property — a windowed query
// over journals is bit-identical to a monolithic recompute, whether
// the journals came from a serial run, a 4-shard run, a crashed-and-
// restarted daemon, or several per-site daemons merged.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "analysis/daemon.h"
#include "analysis/recompute.h"
#include "net/live_source.h"
#include "net/pcap.h"
#include "net/trace_source.h"
#include "query/query.h"
#include "sim/meeting.h"
#include "util/crc32.h"
#include "util/fsio.h"

namespace zpm::query {
namespace {

namespace fs = std::filesystem;

std::vector<net::RawPacket> sim_meeting(std::uint32_t seed,
                                        std::int64_t start_seconds) {
  sim::MeetingConfig mc;
  mc.seed = seed;
  mc.start = util::Timestamp::from_seconds(static_cast<double>(start_seconds));
  mc.duration = util::Duration::seconds(20);
  sim::ParticipantConfig a, b, c;
  a.ip = net::Ipv4Addr(10, 8, 1, 20);
  b.ip = net::Ipv4Addr(10, 8, 2, 31);
  c.ip = net::Ipv4Addr(98, 0, 0, 3);
  c.on_campus = false;
  mc.participants = {a, b, c};
  sim::MeetingSim sim(mc);
  std::vector<net::RawPacket> out;
  while (auto pkt = sim.next_packet()) out.push_back(std::move(*pkt));
  EXPECT_GT(out.size(), 2000u);
  return out;
}

/// Site A: seed 31 at t=1.7e9 s. Site B: seed 47, 1000 s later — far
/// beyond any epoch span, so a merged run must rotate at the seam.
const std::vector<net::RawPacket>& site_a_packets() {
  static const auto packets = sim_meeting(31, 1'700'000'000);
  return packets;
}
const std::vector<net::RawPacket>& site_b_packets() {
  static const auto packets = sim_meeting(47, 1'700'001'000);
  return packets;
}

std::vector<net::RawPacketView> views_of(
    const std::vector<net::RawPacket>& pkts) {
  std::vector<net::RawPacketView> views;
  views.reserve(pkts.size());
  for (const auto& p : pkts)
    views.push_back(net::RawPacketView{p.ts, p.data, p.orig_len});
  return views;
}

analysis::EpochEngineConfig engine_config(std::size_t shards = 1) {
  analysis::EpochEngineConfig config;
  config.shards = shards;
  config.limits.max_packets = 900;
  // Span limit far above one trace's 20 s extent: rotations inside a
  // trace are packet-count-driven (identical solo vs merged), and only
  // the 1000 s inter-site seam triggers a span rotation.
  config.limits.max_span = util::Duration::seconds(120.0);
  config.collect_journal = true;
  return config;
}

/// Runs `packets` through a fresh engine; returns one slice set per
/// completed epoch (flush included).
std::vector<EpochSliceSet> run_slices(const analysis::EpochEngineConfig& config,
                                      const std::vector<net::RawPacketView>& views) {
  analysis::EpochEngine engine(config);
  std::vector<analysis::EpochReport> completed;
  std::vector<EpochSliceSet> sets;
  engine.offer(views, pipeline::BatchLifetime::Pinned, completed, &sets);
  EXPECT_EQ(sets.size(), completed.size());
  EpochSliceSet last;
  if (engine.flush(&last)) sets.push_back(std::move(last));
  EXPECT_GE(sets.size(), 3u);
  return sets;
}

fs::path state_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::to_string(::getpid()) + "_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string write_journal(const fs::path& path,
                          const std::vector<EpochSliceSet>& sets,
                          const std::string& site, bool finalize) {
  JournalWriter writer;
  std::string error;
  EXPECT_TRUE(writer.open(path.string(), site, sets.empty() ? 1u
                              : sets.front().front().shard_count, &error))
      << error;
  for (const auto& set : sets)
    for (const auto& slice : set)
      EXPECT_TRUE(writer.append(slice, &error)) << error;
  if (finalize) {
    EXPECT_TRUE(writer.finalize(&error)) << error;
  } else {
    writer.abandon();
  }
  return path.string();
}

std::vector<std::uint8_t> encode_result(const QueryResult& result) {
  util::ByteWriter w;
  encode_query_result(result, w);
  return w.take();
}

QueryResult query_journals(const QueryRequest& request,
                           const std::vector<std::string>& paths,
                           const std::vector<std::string>& sites) {
  std::vector<std::unique_ptr<JournalReader>> owned;
  std::vector<JournalReader*> readers;
  std::vector<std::uint32_t> site_of;
  std::vector<std::string> site_names;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    auto reader = std::make_unique<JournalReader>();
    std::string error;
    EXPECT_TRUE(reader->open(paths[i], &error)) << paths[i] << ": " << error;
    std::uint32_t idx = 0;
    for (; idx < site_names.size(); ++idx)
      if (site_names[idx] == sites[i]) break;
    if (idx == site_names.size()) site_names.push_back(sites[i]);
    site_of.push_back(idx);
    readers.push_back(reader.get());
    owned.push_back(std::move(reader));
  }
  QueryResult result;
  std::string error;
  EXPECT_TRUE(run_query(request, readers, site_of, site_names, result, &error))
      << error;
  return result;
}

// ---------------------------------------------------------------------------
// Request / manifest codecs

TEST(QueryRequest, CodecIsAFixpoint) {
  QueryRequest req;
  req.from_us = -5;
  req.to_us = 123456789;
  req.metric = QueryMetric::SfuRtt;
  req.group = QueryGroupBy::Meeting;
  req.has_meeting = true;
  req.meeting_key = 0xdeadbeefULL;
  const std::string text = format_query_request(req);
  QueryRequest back;
  ASSERT_TRUE(parse_query_request(text, back));
  EXPECT_EQ(back, req);
  EXPECT_EQ(format_query_request(back), text);

  QueryRequest defaults;
  ASSERT_TRUE(parse_query_request(format_query_request(QueryRequest{}),
                                  defaults));
  EXPECT_EQ(defaults, QueryRequest{});
}

TEST(QueryRequest, RejectsMalformed) {
  QueryRequest out;
  EXPECT_FALSE(parse_query_request("from=abc", out));
  EXPECT_FALSE(parse_query_request("metric=tcp", out));
  EXPECT_FALSE(parse_query_request("group=", out));
  EXPECT_FALSE(parse_query_request("unknown=1", out));
  EXPECT_FALSE(parse_query_request("from", out));
  EXPECT_FALSE(parse_query_request("from=9;to=3", out));  // empty window
  EXPECT_FALSE(parse_query_request("meeting=-1", out));
  EXPECT_TRUE(parse_query_request("", out));  // all defaults
}

TEST(Manifest, CodecIsAFixpointAndLastPathWins) {
  Manifest m;
  m.entries.push_back({"journal-a-000000000000.zpmj", "a", 100, 200, 3, 3});
  m.entries.push_back({"journal-b-000000000000.zpmj", "b", 300, 400, 2, 8});
  const std::string text = format_manifest(m);
  Manifest back;
  ASSERT_TRUE(parse_manifest(text, back));
  EXPECT_EQ(back, m);
  EXPECT_EQ(format_manifest(back), text);

  // Unknown lines are ignored; a re-listed path replaces in place (a
  // restarted daemon re-announces its live segment every rotation).
  const std::string evolved = "zpm-manifest v1\nfuture-key x y z\n"
                              "journal j.zpmj site=s first_us=1 last_us=2 "
                              "epochs=1 records=1\n"
                              "journal j.zpmj site=s first_us=1 last_us=9 "
                              "epochs=4 records=4\n";
  ASSERT_TRUE(parse_manifest(evolved, back));
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].last_us, 9);
  EXPECT_EQ(back.entries[0].records, 4u);

  EXPECT_FALSE(parse_manifest("not a manifest\n", back));
}

// ---------------------------------------------------------------------------
// Journal files

TEST(Journal, IndexedRoundtripPreservesEveryRecord) {
  const auto dir = state_dir("q_roundtrip");
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));
  const auto path = write_journal(dir / "j.zpmj", sets, "lab", true);

  JournalReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  EXPECT_TRUE(reader.scan_stats().used_index);
  EXPECT_EQ(reader.scan_stats().corrupt_records, 0u);
  EXPECT_EQ(reader.site(), "lab");
  ASSERT_EQ(reader.records().size(), sets.size());  // 1 shard => 1 rec/epoch

  EpochSlice slice;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_TRUE(reader.read(i, slice));
    EXPECT_EQ(slice, sets[i][0]);
  }
  // Shard-0 records carry the encoded epoch report.
  ASSERT_TRUE(reader.read(0, slice));
  EXPECT_FALSE(slice.report.empty());
  util::ByteReader r(slice.report);
  analysis::EpochReport rep;
  EXPECT_TRUE(analysis::decode_epoch_report(r, rep));
  EXPECT_EQ(rep.seq, 0u);
  EXPECT_EQ(rep.packets, slice.packets);
}

TEST(Journal, DecodeOverwritesReusedRowsAndClearsOnFailure) {
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));
  const EpochSlice& big = sets[sets.size() / 2][0];
  ASSERT_GT(big.streams.size(), 2u);
  EpochSlice small = sets[1][0];
  small.streams.resize(2);
  const auto encode = [](const EpochSlice& slice) {
    util::ByteWriter w;
    encode_epoch_slice(slice, w);
    return w.take();
  };
  const auto big_bytes = encode(big);
  const auto small_bytes = encode(small);

  // Decoding into a slice that already holds more rows leaves exactly
  // the new record's rows, every field rewritten.
  EpochSlice out;
  util::ByteReader r1(big_bytes);
  ASSERT_TRUE(decode_epoch_slice(r1, out));
  EXPECT_EQ(out, big);
  util::ByteReader r2(small_bytes);
  ASSERT_TRUE(decode_epoch_slice(r2, out));
  EXPECT_EQ(out, small);

  // A record cut inside its last stream row fails and leaves no rows.
  util::ByteReader r3(std::span<const std::uint8_t>(big_bytes).first(
      big_bytes.size() - 1));
  EXPECT_FALSE(decode_epoch_slice(r3, out));
  EXPECT_TRUE(out.meetings.empty());
  EXPECT_TRUE(out.streams.empty());
  EXPECT_TRUE(out.report.empty());
}

TEST(Journal, ScanFallbackMatchesIndexedSelection) {
  const auto dir = state_dir("q_scan");
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));
  const auto indexed = write_journal(dir / "indexed.zpmj", sets, "lab", true);
  const auto crashed = write_journal(dir / "crashed.zpmj", sets, "lab", false);

  JournalReader a, b;
  std::string error;
  ASSERT_TRUE(a.open(indexed, &error)) << error;
  ASSERT_TRUE(b.open(crashed, &error)) << error;
  EXPECT_TRUE(a.scan_stats().used_index);
  EXPECT_FALSE(b.scan_stats().used_index);
  EXPECT_EQ(b.scan_stats().corrupt_records, 0u);
  EXPECT_EQ(b.scan_stats().skipped_bytes, 0u);
  ASSERT_EQ(a.records().size(), b.records().size());

  const std::int64_t from = a.records()[1].first_us;
  const std::int64_t to = a.records()[1].last_us;
  EXPECT_EQ(a.select(from, to), b.select(from, to));
  EpochSlice sa, sb;
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    ASSERT_TRUE(a.read(i, sa));
    ASSERT_TRUE(b.read(i, sb));
    EXPECT_EQ(sa, sb);
  }
}

TEST(Journal, SelectIsWindowExact) {
  const auto dir = state_dir("q_window");
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));
  const auto path = write_journal(dir / "j.zpmj", sets, "lab", true);
  JournalReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  const auto& recs = reader.records();
  ASSERT_GE(recs.size(), 3u);

  // Exactly epoch k: the window [first_us, last_us] of record k must
  // select k, and k alone when neighbors don't touch the boundary.
  const std::size_t k = 1;
  auto [begin, end] = reader.select(recs[k].first_us, recs[k].last_us);
  EXPECT_LE(begin, k);
  EXPECT_GT(end, k);
  for (std::size_t i = begin; i < end; ++i) {
    EXPECT_LE(recs[i].first_us, recs[k].last_us);
    EXPECT_GE(recs[i].last_us, recs[k].first_us);
  }
  // One µs past the end of the last record: nothing.
  const auto after = reader.select(recs.back().last_us + 1,
                                   recs.back().last_us + 1'000'000);
  EXPECT_EQ(after.first, after.second);
  // One µs before the first record: nothing.
  const auto before = reader.select(recs.front().first_us - 1'000'000,
                                    recs.front().first_us - 1);
  EXPECT_EQ(before.first, before.second);
  // Boundary µs inclusive on both edges.
  const auto last_edge = reader.select(recs.back().last_us, recs.back().last_us);
  EXPECT_GT(last_edge.second, last_edge.first);
  // Everything.
  const auto all = reader.select(std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.second, recs.size());
}

TEST(Journal, CorruptAndTruncatedRecordsAreSkippedAndAccounted) {
  const auto dir = state_dir("q_corrupt");
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));

  // Flip one payload byte mid-file in an *indexed* journal: the index
  // still loads, select works, and only the poisoned record fails its
  // CRC at read() time.
  {
    const auto path = write_journal(dir / "flip.zpmj", sets, "lab", true);
    JournalReader probe;
    std::string error;
    ASSERT_TRUE(probe.open(path, &error)) << error;
    const auto victim = probe.records()[1];
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(victim.offset + victim.frame_len / 2),
               SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);

    JournalReader reader;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_TRUE(reader.scan_stats().used_index);
    EpochSlice slice;
    EXPECT_TRUE(reader.read(0, slice));
    EXPECT_FALSE(reader.read(1, slice));  // poisoned
    EXPECT_TRUE(reader.read(2, slice));

    // And through run_query: counted, not fatal.
    JournalReader* readers[] = {&reader};
    const std::uint32_t site_of[] = {0};
    const std::vector<std::string> names{"lab"};
    QueryResult result;
    ASSERT_TRUE(run_query(QueryRequest{}, readers, site_of, names, result,
                          &error));
    EXPECT_EQ(result.records_corrupt, 1u);
    EXPECT_EQ(result.records_read, reader.records().size() - 1);
  }

  // Truncate an unindexed journal mid-record: the torn tail is skipped
  // and accounted; every complete record before it still reads.
  {
    const auto path = write_journal(dir / "torn.zpmj", sets, "lab", false);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size - 11);

    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_FALSE(reader.scan_stats().used_index);
    EXPECT_EQ(reader.scan_stats().corrupt_records, 1u);
    EXPECT_GT(reader.scan_stats().skipped_bytes, 0u);
    std::size_t total_records = 0;
    for (const auto& set : sets) total_records += set.size();
    ASSERT_EQ(reader.records().size(), total_records - 1);
    EpochSlice slice;
    for (std::size_t i = 0; i < reader.records().size(); ++i)
      EXPECT_TRUE(reader.read(i, slice));
  }

  // Garbage between records (simulated splice damage): resync finds the
  // next marker; the bad run counts once.
  {
    const auto path = write_journal(dir / "splice.zpmj", sets, "lab", false);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);  // inside record 0's payload
    for (int i = 0; i < 8; ++i) std::fputc(0xff, f);
    std::fclose(f);
    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_FALSE(reader.scan_stats().used_index);
    EXPECT_GE(reader.scan_stats().corrupt_records, 1u);
    EXPECT_GT(reader.scan_stats().skipped_bytes, 0u);
    std::size_t total_records = 0;
    for (const auto& set : sets) total_records += set.size();
    EXPECT_EQ(reader.records().size(), total_records - 1);
  }
}

// A hostile trailer or index can be CRC-valid (both checksums cover
// attacker-controlled bytes), so the only defence against u64 offsets
// chosen to wrap `a + b` containment checks is wrap-proof bounds math.
// Each tampered image below passed the old additive checks (offset +
// len ≡ limit mod 2^64) and must now be rejected, dropping the reader
// to the scan fallback — never an out-of-range subspan.
TEST(Journal, WrappingTrailerAndIndexOffsetsAreRejected) {
  const auto dir = state_dir("q_wrap");
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));
  const auto path = write_journal(dir / "wrap.zpmj", sets, "lab", true);
  std::vector<std::uint8_t> bytes;
  bool missing = false;
  ASSERT_TRUE(util::read_file_all(path, bytes, missing));
  std::size_t total_records = 0;
  for (const auto& set : sets) total_records += set.size();

  const auto store64 = [](std::uint8_t* p, std::uint64_t v) {
    for (int i = 7; i >= 0; --i) {
      p[i] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
  };
  const auto store32 = [](std::uint8_t* p, std::uint32_t v) {
    for (int i = 3; i >= 0; --i) {
      p[i] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
  };
  const auto load64 = [](const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
    return v;
  };
  constexpr std::size_t kTrailerLen = 24;
  constexpr std::size_t kFrameOverhead = 17;

  // Trailer with index_offset = body_end - huge_len (mod 2^64): the sum
  // lands exactly on body_end, so an additive equality check passes
  // while the offset itself points far past EOF.
  {
    auto img = bytes;
    std::uint8_t* trailer = img.data() + img.size() - kTrailerLen;
    const std::uint64_t body_end = img.size() - kTrailerLen;
    const std::uint64_t frame_len = std::uint64_t{1} << 63;
    store64(trailer, body_end - frame_len);  // wraps
    store64(trailer + 8, frame_len);
    store32(trailer + 16, util::crc32(std::span(trailer, 16)));
    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.open_bytes(img, &error)) << error;
    EXPECT_FALSE(reader.scan_stats().used_index);
    EXPECT_EQ(reader.records().size(), total_records);
    EpochSlice slice;
    for (std::size_t i = 0; i < reader.records().size(); ++i)
      EXPECT_TRUE(reader.read(i, slice));
  }

  // Valid trailer, but the first index entry claims offset + frame_len
  // ≡ 0 (mod 2^64); the payload CRC is recomputed so the frame itself
  // checks out.
  {
    auto img = bytes;
    const std::uint8_t* trailer = img.data() + img.size() - kTrailerLen;
    const std::uint64_t index_offset = load64(trailer);
    std::uint8_t* frame = img.data() + index_offset;
    std::uint8_t* payload = frame + kFrameOverhead;
    const std::uint64_t payload_len = load64(frame + 5);
    ASSERT_GE(payload_len, 4u + 52u);  // record count + one entry
    std::uint8_t* entry = payload + 4;  // seq@0 shard@8 offset@12 len@20
    store64(entry + 12, std::uint64_t{0} - index_offset);
    store64(entry + 20, index_offset);
    store32(frame + 13, util::crc32(std::span(payload, payload_len)));
    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.open_bytes(img, &error)) << error;
    EXPECT_FALSE(reader.scan_stats().used_index);
    EXPECT_EQ(reader.records().size(), total_records);
  }
}

// ---------------------------------------------------------------------------
// Exactness: journal query == monolithic recompute

std::vector<QueryRequest> probe_requests(std::int64_t from, std::int64_t to) {
  std::vector<QueryRequest> reqs;
  for (const auto metric : {QueryMetric::Rtt, QueryMetric::Jitter,
                            QueryMetric::Bitrate, QueryMetric::SfuRtt}) {
    for (const auto group : {QueryGroupBy::All, QueryGroupBy::Meeting}) {
      QueryRequest r;
      r.from_us = from;
      r.to_us = to;
      r.metric = metric;
      r.group = group;
      reqs.push_back(r);
    }
  }
  return reqs;
}

TEST(QueryExactness, JournalEqualsRecomputeSerialAndSharded) {
  const auto dir = state_dir("q_exact");
  const auto views = views_of(site_a_packets());
  const auto serial_sets = run_slices(engine_config(1), views);
  const auto shard_sets = run_slices(engine_config(4), views);
  const auto serial_path =
      write_journal(dir / "serial.zpmj", serial_sets, "lab", true);
  const auto shard_path =
      write_journal(dir / "shard4.zpmj", shard_sets, "lab", true);

  // Window: epochs 1..2 only (mid-trace), plus the full range.
  const std::int64_t mid_from = serial_sets[1][0].first_us;
  const std::int64_t mid_to = serial_sets[2][0].last_us;
  for (const std::pair<std::int64_t, std::int64_t>& window :
       {std::pair<std::int64_t, std::int64_t>{mid_from, mid_to},
        {std::numeric_limits<std::int64_t>::min(),
         std::numeric_limits<std::int64_t>::max()}}) {
    for (const auto& req : probe_requests(window.first, window.second)) {
      QueryResult reference;
      analysis::recompute_query_result(req, views, engine_config(1), "lab",
                                       reference);
      const auto ref_bytes = encode_result(reference);
      EXPECT_FALSE(reference.groups.empty()) << format_query_request(req);

      const auto from_serial = query_journals(req, {serial_path}, {"lab"});
      const auto from_shards = query_journals(req, {shard_path}, {"lab"});
      EXPECT_EQ(encode_result(from_serial), ref_bytes)
          << format_query_request(req);
      EXPECT_EQ(encode_result(from_shards), ref_bytes)
          << "4-shard journal diverged: " << format_query_request(req);
    }
  }
}

TEST(QueryExactness, MeetingFilterMatchesUnfilteredGroup) {
  const auto dir = state_dir("q_filter");
  const auto views = views_of(site_a_packets());
  const auto sets = run_slices(engine_config(1), views);
  const auto path = write_journal(dir / "j.zpmj", sets, "lab", true);

  QueryRequest all;
  all.group = QueryGroupBy::Meeting;
  const auto grouped = query_journals(all, {path}, {"lab"});
  ASSERT_FALSE(grouped.groups.empty());

  for (const auto& g : grouped.groups) {
    QueryRequest one = all;
    one.has_meeting = true;
    one.meeting_key = g.key;
    const auto filtered = query_journals(one, {path}, {"lab"});
    ASSERT_EQ(filtered.groups.size(), 1u) << g.key;
    // The filtered group must carry the identical aggregate.
    EXPECT_EQ(filtered.groups[0], g);
    // Dictionary pruning must not read more records than the group
    // appears in.
    EXPECT_LE(filtered.records_read, grouped.records_read);
  }
}

TEST(QueryExactness, MultiSiteMergeEqualsMonolithicRecompute) {
  const auto dir = state_dir("q_multisite");
  const auto views_a = views_of(site_a_packets());
  const auto views_b = views_of(site_b_packets());

  // Per-site journals, produced independently.
  const auto sets_a = run_slices(engine_config(1), views_a);
  const auto sets_b = run_slices(engine_config(1), views_b);
  const auto path_a = write_journal(dir / "a.zpmj", sets_a, "site-a", true);
  const auto path_b = write_journal(dir / "b.zpmj", sets_b, "site-b", true);

  // The monolithic reference: both traces through ONE engine. The
  // 1000 s seam exceeds max_span, so the merged run rotates exactly at
  // the site boundary and every epoch's content matches a solo run's.
  std::vector<net::RawPacket> merged = site_a_packets();
  merged.insert(merged.end(), site_b_packets().begin(),
                site_b_packets().end());
  const auto merged_views = views_of(merged);

  const std::int64_t b_from = sets_b[0][0].first_us;
  const std::int64_t b_to = sets_b[1][0].last_us;
  for (const std::pair<std::int64_t, std::int64_t>& window :
       {std::pair<std::int64_t, std::int64_t>{
            std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()},
        {b_from, b_to}}) {  // window inside site B only
    for (const auto& req : probe_requests(window.first, window.second)) {
      QueryResult reference;
      analysis::recompute_query_result(req, merged_views, engine_config(1),
                                       "merged", reference);
      const auto merged_result = query_journals(req, {path_a, path_b},
                                                {"site-a", "site-b"});
      EXPECT_EQ(encode_result(merged_result), encode_result(reference))
          << format_query_request(req);
    }
  }
}

TEST(JournalSet, SameFileUnderTwoNamesIsCountedOnce) {
  const auto dir = state_dir("q_duplicate");
  const auto sets = run_slices(engine_config(), views_of(site_a_packets()));
  const auto path = write_journal(dir / "j.zpmj", sets, "lab", true);
  fs::create_symlink(dir / "j.zpmj", dir / "link.zpmj");
  fs::copy_file(dir / "j.zpmj", dir / "copy.zpmj");
  QueryRequest request;
  request.metric = QueryMetric::Rtt;
  request.group = QueryGroupBy::Meeting;

  JournalSet once;
  std::string error;
  bool duplicate = true;
  ASSERT_TRUE(once.open(path, "", &error, &duplicate)) << error;
  EXPECT_FALSE(duplicate);
  QueryResult want;
  ASSERT_TRUE(once.query(request, want, &error)) << error;

  // The same inode by its path, a `./` spelling and a symlink.
  JournalSet named_thrice;
  ASSERT_TRUE(named_thrice.open(path, "", &error, &duplicate)) << error;
  EXPECT_FALSE(duplicate);
  for (const fs::path& alias :
       {fs::path(path), dir / "." / "j.zpmj", dir / "link.zpmj"}) {
    ASSERT_TRUE(named_thrice.open(alias.string(), "", &error, &duplicate))
        << error;
    EXPECT_TRUE(duplicate) << alias;
  }
  QueryResult got;
  ASSERT_TRUE(named_thrice.query(request, got, &error)) << error;
  EXPECT_EQ(encode_result(got), encode_result(want));
  EXPECT_EQ(named_thrice.render_stats(), once.render_stats());

  // A byte-identical copy is a different file: both are counted.
  JournalSet with_copy;
  ASSERT_TRUE(with_copy.open(path, "", &error, &duplicate)) << error;
  ASSERT_TRUE(with_copy.open((dir / "copy.zpmj").string(), "", &error,
                             &duplicate))
      << error;
  EXPECT_FALSE(duplicate);
  QueryResult doubled;
  ASSERT_TRUE(with_copy.query(request, doubled, &error)) << error;
  EXPECT_EQ(doubled.records_read, 2 * want.records_read);
}

// ---------------------------------------------------------------------------
// Daemon integration

const std::string& site_a_trace() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/query_site_a." +
                          std::to_string(::getpid()) + ".pcap";
    net::PcapWriter writer(p);
    for (const auto& pkt : site_a_packets()) writer.write(pkt);
    EXPECT_TRUE(writer.ok());
    return p;
  }();
  return path;
}

analysis::DaemonConfig daemon_config(const fs::path& dir,
                                     std::size_t shards = 1) {
  analysis::DaemonConfig config;
  config.engine = engine_config(shards);
  config.snapshot_path = (dir / "snapshot.bin").string();
  config.report_dir = dir.string();
  config.site = "lab";
  config.watchdog = util::Duration::micros(0);
  config.verbose = false;
  return config;
}

net::ReplayLiveSource replay_site_a() {
  net::ReplayLiveSourceConfig cfg;
  cfg.path = site_a_trace();
  cfg.loops = 1;
  return net::ReplayLiveSource(cfg);
}

QueryResult query_manifest_dir(const QueryRequest& req, const fs::path& dir) {
  Manifest manifest;
  std::string error;
  EXPECT_TRUE(load_manifest(dir.string(), manifest, &error)) << error;
  EXPECT_FALSE(manifest.entries.empty());
  QueryResult result;
  std::size_t skipped = 0;
  EXPECT_TRUE(run_query_on_manifest(req, manifest, dir.string(), result,
                                    &skipped, &error))
      << error;
  EXPECT_EQ(skipped, 0u);
  return result;
}

TEST(DaemonJournal, ManifestListsSealedSegmentAndQueriesMatchRecompute) {
  const auto dir = state_dir("q_daemon");
  analysis::MonitorDaemon daemon(daemon_config(dir));
  auto source = replay_site_a();
  ASSERT_TRUE(source.ok()) << source.error();
  ASSERT_EQ(daemon.run(source), 0);
  EXPECT_GT(daemon.stats().journal_records_written, 0u);

  Manifest manifest;
  std::string error;
  ASSERT_TRUE(load_manifest(dir.string(), manifest, &error)) << error;
  ASSERT_EQ(manifest.entries.size(), 1u);
  EXPECT_EQ(manifest.entries[0].site, "lab");
  EXPECT_EQ(manifest.entries[0].records,
            daemon.stats().journal_records_written);
  EXPECT_EQ(manifest.entries[0].epochs, daemon.stats().epochs_rotated);
  EXPECT_LT(manifest.entries[0].first_us, manifest.entries[0].last_us);

  // The daemon's sealed journal answers exactly like a recompute.
  const auto views = views_of(site_a_packets());
  for (const auto& req : probe_requests(
           std::numeric_limits<std::int64_t>::min(),
           std::numeric_limits<std::int64_t>::max())) {
    QueryResult reference;
    analysis::recompute_query_result(req, views, engine_config(1), "lab",
                                     reference);
    EXPECT_EQ(encode_result(query_manifest_dir(req, dir)),
              encode_result(reference))
        << format_query_request(req);
  }
}

TEST(DaemonJournal, CrashAndRestartSegmentsQueryIdenticallyToOneRun) {
  // Uninterrupted run -> one sealed segment.
  const auto clean_dir = state_dir("q_clean");
  {
    analysis::MonitorDaemon daemon(daemon_config(clean_dir));
    auto source = replay_site_a();
    ASSERT_TRUE(source.ok());
    ASSERT_EQ(daemon.run(source), 0);
  }
  // Crash after 2 epochs (no finalize — the segment keeps no index),
  // then restart to completion -> two segments, one MANIFEST.
  const auto crash_dir = state_dir("q_crash");
  {
    auto config = daemon_config(crash_dir);
    config.halt_after_epochs = 2;
    analysis::MonitorDaemon daemon(config);
    auto source = replay_site_a();
    ASSERT_TRUE(source.ok());
    ASSERT_EQ(daemon.run(source), 0);
  }
  {
    analysis::MonitorDaemon daemon(daemon_config(crash_dir));
    auto source = replay_site_a();
    ASSERT_TRUE(source.ok());
    ASSERT_EQ(daemon.run(source), 0);
    EXPECT_EQ(daemon.restore_status(), analysis::RestoreStatus::Ok);
  }
  Manifest manifest;
  std::string error;
  ASSERT_TRUE(load_manifest(crash_dir.string(), manifest, &error)) << error;
  ASSERT_EQ(manifest.entries.size(), 2u);  // crashed + resumed segments

  // The crashed segment reads via scan fallback; the resumed one via
  // its index — and together they answer exactly like the clean run.
  for (const auto& req : probe_requests(
           std::numeric_limits<std::int64_t>::min(),
           std::numeric_limits<std::int64_t>::max())) {
    EXPECT_EQ(encode_result(query_manifest_dir(req, crash_dir)),
              encode_result(query_manifest_dir(req, clean_dir)))
        << format_query_request(req);
  }
}

// ---------------------------------------------------------------------------
// CDF helpers

TEST(QueryCdf, QuantileUpperBounds) {
  capture::OffloadHistogram h;
  EXPECT_EQ(histogram_quantile_upper(h, 0.5), 0u);
  for (int i = 0; i < 90; ++i) h.add(3);     // bucket 1: [2,4)
  for (int i = 0; i < 10; ++i) h.add(1000);  // bucket 9: [512,1024)
  EXPECT_EQ(histogram_quantile_upper(h, 0.50), 4u);
  EXPECT_EQ(histogram_quantile_upper(h, 0.90), 4u);
  EXPECT_EQ(histogram_quantile_upper(h, 0.99), 1024u);
}

}  // namespace
}  // namespace zpm::query
