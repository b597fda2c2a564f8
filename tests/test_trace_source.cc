// The zero-copy ingest contract: the mapped pcap/pcapng readers behind
// TraceSource must be observably identical to the streaming readers —
// same packets, same timestamps, same error strings, same analyzer
// output — on clean, byte-swapped, nanosecond, corrupted and truncated
// captures.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "net/build.h"
#include "net/pcap.h"
#include "net/pcapng.h"
#include "net/trace_source.h"
#include "pipeline/parallel_analyzer.h"
#include "sim/campus.h"
#include "sim/meeting.h"

namespace zpm::net {
namespace {

using util::Timestamp;

std::string temp_path(const char* name) {
  // PID-unique: parallel ctest workers share /tmp, and a half-written
  // trace under another worker's mmap is a SIGBUS.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

RawPacket sample_packet(double t, std::uint8_t fill, std::size_t payload = 40) {
  std::vector<std::uint8_t> data(payload, fill);
  return build_udp(Timestamp::from_seconds(t), Ipv4Addr(10, 0, 0, 1), 1111,
                   Ipv4Addr(20, 0, 0, 2), 2222, data);
}

/// Little-endian / big-endian byte emitter for hand-built captures.
struct Emitter {
  std::string buf;
  bool big = false;
  void u16(std::uint16_t v) {
    if (big) {
      buf.push_back(static_cast<char>(v >> 8));
      buf.push_back(static_cast<char>(v));
    } else {
      buf.push_back(static_cast<char>(v));
      buf.push_back(static_cast<char>(v >> 8));
    }
  }
  void u32(std::uint32_t v) {
    if (big) {
      u16(static_cast<std::uint16_t>(v >> 16));
      u16(static_cast<std::uint16_t>(v));
    } else {
      u16(static_cast<std::uint16_t>(v));
      u16(static_cast<std::uint16_t>(v >> 16));
    }
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    for (auto x : b) buf.push_back(static_cast<char>(x));
  }
  void pcap_header(std::uint32_t magic) {
    u32(magic);
    u16(2);
    u16(4);
    u32(0);      // thiszone
    u32(0);      // sigfigs
    u32(65535);  // snaplen
    u32(1);      // LINKTYPE_ETHERNET
  }
  void record(std::uint32_t sec, std::uint32_t frac,
              const std::vector<std::uint8_t>& frame,
              std::optional<std::uint32_t> orig = {}) {
    u32(sec);
    u32(frac);
    u32(static_cast<std::uint32_t>(frame.size()));
    u32(orig ? *orig : static_cast<std::uint32_t>(frame.size()));
    bytes(frame);
  }
};

/// Drains every packet of a streaming reader plus its final state.
struct Drained {
  std::vector<RawPacket> packets;
  bool ok = false;
  std::string error;
};

Drained drain_streaming(const std::string& path) {
  Drained d;
  // The format sniffer mirrors TraceSource's: pcapng magic first.
  auto source = open_capture(path);
  if (source == nullptr) {
    // Classic reader still reports its header error when sniffing fails.
    PcapReader r(path);
    d.ok = r.ok();
    d.error = r.error();
    return d;
  }
  while (auto pkt = source->next()) d.packets.push_back(std::move(*pkt));
  d.ok = source->ok();
  d.error = source->error();
  return d;
}

Drained drain_mapped(const std::string& path, bool use_batch) {
  Drained d;
  TraceSource source(path);
  if (!source.ok()) {
    d.error = source.error();
    return d;
  }
  EXPECT_TRUE(source.mapped()) << path;
  if (use_batch) {
    std::vector<RawPacketView> batch;
    while (source.next_batch(batch, 7) > 0)
      for (const auto& v : batch) d.packets.push_back(v.to_owned());
  } else {
    while (auto v = source.next()) d.packets.push_back(v->to_owned());
  }
  d.ok = source.ok();
  d.error = source.error();
  return d;
}

void expect_same(const std::string& path) {
  Drained streaming = drain_streaming(path);
  for (bool use_batch : {false, true}) {
    SCOPED_TRACE(use_batch ? "next_batch" : "next");
    Drained mapped = drain_mapped(path, use_batch);
    EXPECT_EQ(streaming.ok, mapped.ok);
    EXPECT_EQ(streaming.error, mapped.error);
    ASSERT_EQ(streaming.packets.size(), mapped.packets.size());
    for (std::size_t i = 0; i < streaming.packets.size(); ++i) {
      EXPECT_EQ(streaming.packets[i].ts, mapped.packets[i].ts) << "packet " << i;
      EXPECT_EQ(streaming.packets[i].data, mapped.packets[i].data)
          << "packet " << i;
      EXPECT_EQ(streaming.packets[i].orig_len, mapped.packets[i].orig_len)
          << "packet " << i;
    }
  }
}

TEST(TraceSource, MappedPcapMatchesStreaming) {
  std::string path = temp_path("zpm_ts_clean.pcap");
  {
    PcapWriter writer(path);
    for (int i = 0; i < 50; ++i)
      writer.write(sample_packet(i * 0.25, static_cast<std::uint8_t>(i),
                                 20 + static_cast<std::size_t>(i) * 7));
  }
  expect_same(path);
  std::remove(path.c_str());
}

TEST(TraceSource, MappedPcapMatchesStreamingOnSwappedEndian) {
  std::string path = temp_path("zpm_ts_be.pcap");
  Emitter e;
  e.big = true;
  e.pcap_header(0xa1b2c3d4);
  e.record(100, 250'000, sample_packet(100.25, 0x5a).data);
  e.record(101, 750'000, sample_packet(101.75, 0x5b).data);
  write_file(path, e.buf);
  expect_same(path);
  std::remove(path.c_str());
}

TEST(TraceSource, MappedPcapMatchesStreamingOnNanosecondMagic) {
  std::string path = temp_path("zpm_ts_ns.pcap");
  Emitter e;
  e.pcap_header(0xa1b23c4d);  // nanosecond-resolution magic
  e.record(10, 123'456'789, sample_packet(10.0, 0x11).data);  // → 123457 µs
  e.record(10, 123'456'499, sample_packet(10.0, 0x12).data);  // → 123456 µs
  write_file(path, e.buf);
  expect_same(path);

  // Both readers round to *nearest* microsecond, not truncate.
  TraceSource source(path);
  auto p1 = source.next();
  auto p2 = source.next();
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(p1->ts.us(), 10'123'457);
  EXPECT_EQ(p2->ts.us(), 10'123'456);
  std::remove(path.c_str());
}

TEST(TraceSource, MappedPcapMatchesStreamingOnSnaplenTruncation) {
  std::string path = temp_path("zpm_ts_snap.pcap");
  {
    PcapWriter writer(path, /*snaplen=*/60);
    writer.write(sample_packet(1.0, 0xcc, 500));
  }
  expect_same(path);
  TraceSource source(path);
  auto pkt = source.next();
  ASSERT_TRUE(pkt);
  EXPECT_TRUE(pkt->is_truncated());
  EXPECT_EQ(pkt->data.size(), 60u);
  std::remove(path.c_str());
}

TEST(TraceSource, MappedPcapMatchesStreamingOnTruncatedTail) {
  // Chop the last record at every byte offset: header cut, body cut and
  // clean boundary must all agree with the streaming reader (same
  // packet count, same ok(), same error string).
  Emitter e;
  e.pcap_header(0xa1b2c3d4);
  e.record(1, 0, sample_packet(1.0, 0xaa).data);
  e.record(2, 0, sample_packet(2.0, 0xbb).data);
  const std::string full = e.buf;
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, std::size_t{15},
                          std::size_t{17}, std::size_t{40}}) {
    ASSERT_LT(cut, full.size());
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::string path = temp_path("zpm_ts_cut.pcap");
    write_file(path, full.substr(0, full.size() - cut));
    expect_same(path);
    std::remove(path.c_str());
  }
}

TEST(TraceSource, MappedPcapMatchesStreamingOnImplausibleRecord) {
  Emitter e;
  e.pcap_header(0xa1b2c3d4);
  e.record(1, 0, sample_packet(1.0, 0xaa).data);
  e.u32(2);
  e.u32(0);
  e.u32(10 * 1024 * 1024);  // 10 MB record: rejected by both readers
  e.u32(10 * 1024 * 1024);
  std::string path = temp_path("zpm_ts_implausible.pcap");
  write_file(path, e.buf);
  expect_same(path);
  std::remove(path.c_str());
}

TEST(TraceSource, MappedPcapMatchesStreamingOnBadHeader) {
  const std::string cases[] = {std::string("NOTPCAPNOTPCAPNOTPCAPNOT"),
                               std::string("\xd4\xc3", 2)};
  for (const std::string& bytes : cases) {
    std::string path = temp_path("zpm_ts_bad.pcap");
    write_file(path, bytes);
    // Too-short files don't sniff as any format; the full-header case
    // must fail with the same pcap-reader story on both paths.
    TraceSource source(path);
    EXPECT_FALSE(source.ok());
    EXPECT_FALSE(source.next().has_value());
    std::remove(path.c_str());
  }
}

/// Builds a minimal pcapng section: SHB + Ethernet IDB + one EPB per
/// frame (little-endian, microsecond ticks).
std::string build_pcapng(const std::vector<RawPacket>& packets) {
  Emitter e;
  e.u32(0x0a0d0d0a);  // SHB
  e.u32(28);
  e.u32(0x1a2b3c4d);
  e.u16(1);
  e.u16(0);
  e.u32(0xffffffff);
  e.u32(0xffffffff);
  e.u32(28);
  e.u32(0x00000001);  // IDB, Ethernet
  e.u32(20);
  e.u16(1);
  e.u16(0);
  e.u32(65535);
  e.u32(20);
  for (const auto& pkt : packets) {
    auto ticks = static_cast<std::uint64_t>(pkt.ts.us());
    std::uint32_t padded = (static_cast<std::uint32_t>(pkt.data.size()) + 3u) & ~3u;
    std::uint32_t len = 32 + padded;
    e.u32(0x00000006);  // EPB
    e.u32(len);
    e.u32(0);
    e.u32(static_cast<std::uint32_t>(ticks >> 32));
    e.u32(static_cast<std::uint32_t>(ticks));
    e.u32(static_cast<std::uint32_t>(pkt.data.size()));
    e.u32(static_cast<std::uint32_t>(pkt.data.size()));
    e.bytes(pkt.data);
    while (e.buf.size() % 4 != 0) e.buf.push_back(0);
    e.u32(len);
  }
  return e.buf;
}

TEST(TraceSource, MappedPcapngMatchesStreaming) {
  std::vector<RawPacket> packets;
  for (int i = 0; i < 20; ++i)
    packets.push_back(sample_packet(i * 0.5, static_cast<std::uint8_t>(i),
                                    30 + static_cast<std::size_t>(i)));
  std::string path = temp_path("zpm_ts_clean.pcapng");
  write_file(path, build_pcapng(packets));
  expect_same(path);

  TraceSource source(path);
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(source.mapped());
  std::size_t n = 0;
  while (auto v = source.next()) {
    EXPECT_EQ(v->ts, packets[n].ts);
    ++n;
  }
  EXPECT_EQ(n, packets.size());
  std::remove(path.c_str());
}

TEST(TraceSource, MappedPcapngMatchesStreamingOnTruncatedTail) {
  std::vector<RawPacket> packets = {sample_packet(1.0, 0xaa),
                                    sample_packet(2.0, 0xbb)};
  const std::string full = build_pcapng(packets);
  for (std::size_t cut : {std::size_t{1}, std::size_t{6}, std::size_t{20},
                          std::size_t{39}}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::string path = temp_path("zpm_ts_cut.pcapng");
    write_file(path, full.substr(0, full.size() - cut));
    expect_same(path);
    std::remove(path.c_str());
  }
}

TEST(TraceSource, ShortFinalPacketReportsSameErrorAcrossFormats) {
  // Regression: a capture whose last packet body is cut short used to
  // read "truncated record body" from the pcap readers but "truncated
  // block body" from pcapng. Operators diffing runs across container
  // formats should see one story: "truncated packet", from every reader
  // (streaming and mapped, next() and next_batch()).
  const std::vector<RawPacket> packets = {sample_packet(1.0, 0xaa),
                                          sample_packet(2.0, 0xbb)};
  Emitter pcap;
  pcap.pcap_header(0xa1b2c3d4);
  pcap.record(1, 0, packets[0].data);
  pcap.record(2, 0, packets[1].data);
  const struct {
    const char* name;
    std::string full;
  } cases[] = {{"zpm_ts_short.pcap", pcap.buf},
               {"zpm_ts_short.pcapng", build_pcapng(packets)}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = temp_path(c.name);
    // Cut inside the final packet's body (the trailing 4 bytes of a
    // pcapng EPB are its trailer; 10 lands inside the frame for both).
    write_file(path, c.full.substr(0, c.full.size() - 10));
    Drained streaming = drain_streaming(path);
    EXPECT_FALSE(streaming.ok);
    EXPECT_EQ(streaming.error, "truncated packet");
    EXPECT_EQ(streaming.packets.size(), 1u);
    for (bool use_batch : {false, true}) {
      SCOPED_TRACE(use_batch ? "next_batch" : "next");
      Drained mapped = drain_mapped(path, use_batch);
      EXPECT_FALSE(mapped.ok);
      EXPECT_EQ(mapped.error, "truncated packet");
      EXPECT_EQ(mapped.packets.size(), 1u);
    }
    std::remove(path.c_str());
  }
}

TEST(TraceSource, UnrecognizedAndMissingFiles) {
  std::string path = temp_path("zpm_ts.junk");
  write_file(path, "this is not a capture at all");
  TraceSource junk(path);
  EXPECT_FALSE(junk.ok());
  EXPECT_EQ(junk.error(), "unrecognized capture format");
  EXPECT_FALSE(junk.next().has_value());
  std::remove(path.c_str());

  TraceSource missing("/nonexistent/zpm.pcap");
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.next().has_value());

  std::string empty = temp_path("zpm_ts.empty");
  write_file(empty, "");
  TraceSource e(empty);
  EXPECT_FALSE(e.ok());
  std::remove(empty.c_str());
}

/// Serves `bytes` through a FIFO at `path` from a writer thread, a few
/// bytes per write so records straddle the reader's refills.
class FifoFeed {
 public:
  FifoFeed(std::string path, std::string bytes) : path_(std::move(path)) {
    EXPECT_EQ(::mkfifo(path_.c_str(), 0600), 0) << path_;
    writer_ = std::thread([this, bytes = std::move(bytes)] {
      std::FILE* out = std::fopen(path_.c_str(), "wb");  // waits for a reader
      if (out == nullptr) return;
      for (std::size_t at = 0; at < bytes.size(); at += 7) {
        std::fwrite(bytes.data() + at, 1, std::min<std::size_t>(7, bytes.size() - at),
                    out);
        std::fflush(out);
      }
      std::fclose(out);
    });
  }
  FifoFeed(const FifoFeed&) = delete;
  FifoFeed& operator=(const FifoFeed&) = delete;
  ~FifoFeed() {
    // Releases a writer still waiting for a reader that never came.
    int fd = ::open(path_.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd >= 0) ::close(fd);
    writer_.join();
    std::remove(path_.c_str());
  }

 private:
  std::string path_;
  std::thread writer_;
};

/// Drains `bytes` through TraceSource's streaming fallback (a FIFO
/// cannot be mapped). Batched views are copied only once the whole
/// batch is back, so a view the reader moved mid-batch would show.
Drained drain_fifo(const std::string& bytes, bool use_batch) {
  std::signal(SIGPIPE, SIG_IGN);  // a reader that stops early must not kill the writer
  Drained d;
  FifoFeed feed(temp_path("zpm_ts.fifo"), bytes);
  TraceSource source(temp_path("zpm_ts.fifo"));
  EXPECT_FALSE(source.mapped());
  if (use_batch) {
    std::vector<RawPacketView> batch;
    while (source.next_batch(batch, 7) > 0)
      for (const auto& v : batch) d.packets.push_back(v.to_owned());
  } else {
    while (auto v = source.next()) d.packets.push_back(v->to_owned());
  }
  d.ok = source.ok();
  d.error = source.error();
  return d;
}

TEST(TraceSource, StreamingFallbackOverFifoMatchesMapped) {
  Emitter pcap;
  pcap.pcap_header(0xa1b2c3d4);
  std::vector<RawPacket> packets;
  for (int i = 0; i < 30; ++i) {
    packets.push_back(sample_packet(i * 0.5, static_cast<std::uint8_t>(i),
                                    20 + static_cast<std::size_t>(i) * 9));
    pcap.record(static_cast<std::uint32_t>(i), 0, packets.back().data);
  }
  const std::string ng = build_pcapng(packets);
  const std::size_t last_record = 16 + packets.back().data.size();
  const struct {
    const char* name;
    std::string bytes;
    bool clean;
  } cases[] = {
      {"zpm_ts_fifo.pcap", pcap.buf, true},
      {"zpm_ts_fifo_body.pcap", pcap.buf.substr(0, pcap.buf.size() - 10), false},
      {"zpm_ts_fifo_header.pcap",
       pcap.buf.substr(0, pcap.buf.size() - last_record + 11), false},
      {"zpm_ts_fifo.pcapng", ng, true},
      {"zpm_ts_fifo_body.pcapng", ng.substr(0, ng.size() - 10), false},
      {"zpm_ts_fifo_trailer.pcapng", ng.substr(0, ng.size() - 2), false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = temp_path(c.name);
    write_file(path, c.bytes);
    Drained mapped = drain_mapped(path, /*use_batch=*/true);
    std::remove(path.c_str());
    EXPECT_EQ(mapped.ok, c.clean) << mapped.error;
    EXPECT_EQ(mapped.packets.size(), c.clean ? packets.size() : packets.size() - 1);
    for (bool use_batch : {false, true}) {
      SCOPED_TRACE(use_batch ? "next_batch" : "next");
      Drained streamed = drain_fifo(c.bytes, use_batch);
      EXPECT_EQ(streamed.ok, mapped.ok);
      EXPECT_EQ(streamed.error, mapped.error);
      ASSERT_EQ(streamed.packets.size(), mapped.packets.size());
      for (std::size_t i = 0; i < mapped.packets.size(); ++i) {
        EXPECT_EQ(streamed.packets[i].ts, mapped.packets[i].ts) << "packet " << i;
        EXPECT_EQ(streamed.packets[i].data, mapped.packets[i].data)
            << "packet " << i;
        EXPECT_EQ(streamed.packets[i].orig_len, mapped.packets[i].orig_len)
            << "packet " << i;
      }
    }
  }
}

/// Resident size of the mapping starting at `addr`, from
/// /proc/self/smaps; nullopt where that file is unavailable.
std::optional<std::size_t> resident_kb(const void* addr) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return std::nullopt;
  char start[32];
  std::snprintf(start, sizeof(start), "%lx-",
                static_cast<unsigned long>(reinterpret_cast<std::uintptr_t>(addr)));
  std::string line;
  bool in_mapping = false;
  while (std::getline(smaps, line)) {
    if (line.rfind(start, 0) == 0)
      in_mapping = true;
    else if (in_mapping && line.rfind("Rss:", 0) == 0)
      return std::stoul(line.substr(4));
  }
  return std::nullopt;
}

TEST(MappedFile, OnlyASweepPrefaultsTheFile) {
  // A trace sweep reads every byte, so its mapping is populated up
  // front; a sparse reader (a journal query) faults in only what it
  // touches.
  const std::string path = temp_path("zpm_mf_pattern.bin");
  std::vector<char> bytes(std::size_t{1} << 20);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<char>(i * 131 + 7);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const MappedFile sweep = MappedFile::open(path, ReadPattern::Sweep);
  const MappedFile sparse = MappedFile::open(path, ReadPattern::Sparse);
  ASSERT_TRUE(sweep.valid());
  ASSERT_TRUE(sparse.valid());
  const auto sweep_kb = resident_kb(sweep.data());
  const auto sparse_kb = resident_kb(sparse.data());
  if (!sweep_kb || !sparse_kb) GTEST_SKIP() << "no /proc/self/smaps";
  EXPECT_EQ(*sweep_kb, bytes.size() / 1024);
  EXPECT_EQ(*sparse_kb, 0u);
  // Both map the same bytes.
  ASSERT_EQ(sparse.size(), bytes.size());
  EXPECT_EQ(std::memcmp(sparse.data(), bytes.data(), bytes.size()), 0);
  EXPECT_EQ(std::memcmp(sweep.data(), bytes.data(), bytes.size()), 0);
  std::remove(path.c_str());
}

TEST(MappedFile, ProbingAFifoDoesNotWakeAWaitingWriter) {
  // A writer started first (`cat trace > fifo & zpm_analyze fifo`) sits
  // in open() until a reader opens. The mapping probe must not be that
  // reader: it would close again at once and leave the writer facing a
  // reader-less pipe before the streaming fallback reopens the FIFO.
  const std::string path = temp_path("zpm_ts_probe.fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::atomic<bool> opened{false};
  std::thread writer([&] {
    const int fd = ::open(path.c_str(), O_WRONLY);  // waits for a reader
    opened = true;
    if (fd >= 0) ::close(fd);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(MappedFile::open(path, ReadPattern::Sweep).valid());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(opened.load());
  // Release the writer.
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  writer.join();
  if (fd >= 0) ::close(fd);
  std::remove(path.c_str());
}

/// Runs a serial analyzer over a capture file via the given drain and
/// returns it for comparison.
void analyze_file(const std::string& path, bool mapped, core::Analyzer& out) {
  if (mapped) {
    TraceSource source(path);
    ASSERT_TRUE(source.ok()) << source.error();
    ASSERT_TRUE(source.mapped());
    std::vector<RawPacketView> batch;
    while (source.next_batch(batch, 256) > 0)
      for (const auto& v : batch) out.offer(v);
  } else {
    PcapReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    while (auto pkt = reader.next()) out.offer(*pkt);
  }
  out.finish();
}

void expect_analyzer_equivalent(const std::string& path) {
  core::AnalyzerConfig cfg;
  core::Analyzer streaming(cfg);
  analyze_file(path, /*mapped=*/false, streaming);
  core::Analyzer mapped(cfg);
  analyze_file(path, /*mapped=*/true, mapped);

  EXPECT_EQ(streaming.counters(), mapped.counters());
  EXPECT_EQ(streaming.health(), mapped.health());
  EXPECT_EQ(streaming.zoom_flow_count(), mapped.zoom_flow_count());
  EXPECT_EQ(streaming.streams().size(), mapped.streams().size());
  EXPECT_EQ(streaming.streams().media_count(), mapped.streams().media_count());
  EXPECT_EQ(streaming.meetings().meeting_count(),
            mapped.meetings().meeting_count());
  EXPECT_EQ(streaming.sfu_rtt_samples().size(), mapped.sfu_rtt_samples().size());
}

TEST(TraceSource, AnalyzerOutputIdenticalAcrossReadersOnMeetingTrace) {
  sim::MeetingConfig mc;
  mc.seed = 11;
  mc.duration = util::Duration::seconds(30);
  sim::ParticipantConfig a, b;
  a.ip = Ipv4Addr(10, 8, 0, 1);
  b.ip = Ipv4Addr(98, 0, 0, 3);
  b.on_campus = false;
  mc.participants = {a, b};
  auto trace = sim::run_meeting(mc);
  ASSERT_FALSE(trace.empty());

  std::string path = temp_path("zpm_ts_meeting.pcap");
  {
    PcapWriter writer(path);
    for (const auto& pkt : trace) writer.write(pkt);
  }
  expect_same(path);
  expect_analyzer_equivalent(path);
  std::remove(path.c_str());
}

TEST(TraceSource, PinnedBatchesIntoParallelAnalyzerMatchSerial) {
  // The zpm_analyze --threads flow: mapped TraceSource batches offered
  // with Pinned lifetime, the mapping kept alive past finish().
  // Regression test for a use-after-munmap where the source was scoped
  // tighter than the analyzer drain.
  sim::MeetingConfig mc;
  mc.seed = 13;
  mc.duration = util::Duration::seconds(20);
  sim::ParticipantConfig a, b;
  a.ip = Ipv4Addr(10, 8, 0, 1);
  b.ip = Ipv4Addr(10, 8, 0, 2);
  mc.participants = {a, b};
  auto trace = sim::run_meeting(mc);
  std::string path = temp_path("zpm_ts_pinned.pcap");
  {
    PcapWriter writer(path);
    for (const auto& pkt : trace) writer.write(pkt);
  }

  core::AnalyzerConfig cfg;
  core::Analyzer serial(cfg);
  analyze_file(path, /*mapped=*/true, serial);

  pipeline::ParallelAnalyzerConfig par_cfg;
  par_cfg.analyzer = cfg;
  par_cfg.shards = 2;
  pipeline::ParallelAnalyzer par(par_cfg);
  {
    TraceSource source(path);
    ASSERT_TRUE(source.ok()) << source.error();
    ASSERT_TRUE(source.mapped());
    std::vector<RawPacketView> batch;
    while (source.next_batch(batch, 256) > 0)
      par.offer_batch(batch, pipeline::BatchLifetime::Pinned);
    par.finish();  // must complete while the mapping is still alive
  }

  EXPECT_EQ(serial.counters(), par.counters());
  EXPECT_EQ(serial.streams().size(), par.streams().size());
  EXPECT_EQ(serial.meetings().meeting_count(), par.meetings().meeting_count());
  std::remove(path.c_str());
}

TEST(TraceSource, AnalyzerOutputIdenticalAcrossReadersOnCorruptedTrace) {
  // A hostile campus slice (truncations, bit flips, look-alikes): both
  // readers must deliver byte-identical packets, so analyzer health
  // accounting matches category for category.
  sim::CampusConfig cc;
  cc.seed = 77;
  cc.duration = util::Duration::seconds(60);
  cc.meetings_per_peak_hour = 40.0;
  cc.corruption = sim::CorruptorConfig::hostile(0xF00D);
  sim::CampusSimulation campus(cc);
  std::string path = temp_path("zpm_ts_corrupt.pcap");
  {
    PcapWriter writer(path);
    while (auto pkt = campus.next_packet()) writer.write(*pkt);
  }
  expect_same(path);
  expect_analyzer_equivalent(path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zpm::net
