// pcapng reading and capture-format sniffing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "net/build.h"
#include "net/pcapng.h"

namespace zpm::net {
namespace {

/// Little-endian pcapng block writer for test fixtures.
class NgBuilder {
 public:
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<char>(v));
    buf_.push_back(static_cast<char>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    for (auto x : b) buf_.push_back(static_cast<char>(x));
  }
  void pad4() {
    while (buf_.size() % 4 != 0) buf_.push_back(0);
  }

  void shb() {
    u32(0x0a0d0d0a);
    u32(28);
    u32(0x1a2b3c4d);
    u16(1);  // major
    u16(0);  // minor
    u32(0xffffffff);  // section length (unknown)
    u32(0xffffffff);
    u32(28);
  }

  void idb(std::uint16_t link_type, std::optional<std::uint8_t> tsresol = {}) {
    std::uint32_t len = tsresol ? 20u + 8u + 4u : 20u;
    u32(0x00000001);
    u32(len);
    u16(link_type);
    u16(0);           // reserved
    u32(65535);       // snaplen
    if (tsresol) {
      u16(9);  // if_tsresol
      u16(1);
      buf_.push_back(static_cast<char>(*tsresol));
      buf_.push_back(0);
      buf_.push_back(0);
      buf_.push_back(0);
      u16(0);  // opt_endofopt
      u16(0);
    }
    u32(len);
  }

  void epb(std::uint32_t iface, std::uint64_t ts_ticks,
           const std::vector<std::uint8_t>& frame) {
    std::uint32_t padded = (static_cast<std::uint32_t>(frame.size()) + 3u) & ~3u;
    std::uint32_t len = 32 + padded;
    u32(0x00000006);
    u32(len);
    u32(iface);
    u32(static_cast<std::uint32_t>(ts_ticks >> 32));
    u32(static_cast<std::uint32_t>(ts_ticks));
    u32(static_cast<std::uint32_t>(frame.size()));
    u32(static_cast<std::uint32_t>(frame.size()));
    bytes(frame);
    pad4();
    u32(len);
  }

  void unknown_block() {
    u32(0x0bad0bad);
    u32(16);
    u32(0xdeadbeef);
    u32(16);
  }

  [[nodiscard]] std::string str() const { return buf_; }

 private:
  std::string buf_;
};

std::vector<std::uint8_t> sample_frame(std::uint8_t fill) {
  std::vector<std::uint8_t> payload(21, fill);
  auto pkt = build_udp(util::Timestamp::from_seconds(0), Ipv4Addr(1, 1, 1, 1), 10,
                       Ipv4Addr(2, 2, 2, 2), 20, payload);
  return pkt.data;
}

TEST(PcapNg, ReadsEnhancedPacketsWithMicrosecondDefault) {
  NgBuilder b;
  b.shb();
  b.idb(1);  // Ethernet, default 1 µs resolution
  b.epb(0, 1'650'000'123'456ull, sample_frame(0xaa));
  b.epb(0, 1'650'000'223'456ull, sample_frame(0xbb));
  std::istringstream in(b.str());
  PcapNgReader reader(in);
  auto p1 = reader.next();
  ASSERT_TRUE(p1);
  EXPECT_EQ(p1->ts.us(), 1'650'000'123'456);
  EXPECT_EQ(p1->data, sample_frame(0xaa));
  auto p2 = reader.next();
  ASSERT_TRUE(p2);
  EXPECT_EQ(p2->ts.us(), 1'650'000'223'456);
  EXPECT_FALSE(reader.next());
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.packets_read(), 2u);
}

TEST(PcapNg, HonoursTsResolOption) {
  NgBuilder b;
  b.shb();
  b.idb(1, std::uint8_t{9});  // 10^-9: nanosecond ticks
  b.epb(0, 2'000'000'000ull, sample_frame(0x11));  // 2 s in ns
  std::istringstream in(b.str());
  PcapNgReader reader(in);
  auto pkt = reader.next();
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->ts.us(), 2'000'000);
}

TEST(PcapNg, SkipsUnknownBlocksAndNonEthernetInterfaces) {
  NgBuilder b;
  b.shb();
  b.idb(1);
  b.idb(101);  // LINKTYPE_RAW: not Ethernet
  b.unknown_block();
  b.epb(1, 500, sample_frame(0x22));  // on the raw interface: skipped
  b.epb(0, 1000, sample_frame(0x33));
  std::istringstream in(b.str());
  PcapNgReader reader(in);
  auto pkt = reader.next();
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->data, sample_frame(0x33));
  EXPECT_FALSE(reader.next());
  EXPECT_TRUE(reader.ok());
}

TEST(PcapNg, SkipsSimplePacketOnNonEthernetInterface) {
  // A Simple Packet Block is captured on interface 0. When that
  // interface is not Ethernet (101 = LINKTYPE_RAW), its bytes are not
  // an Ethernet frame and must be skipped, as an EPB on it would be.
  auto with_spb_on = [](std::uint16_t link_type) {
    NgBuilder b;
    b.shb();
    b.idb(link_type);
    const auto frame = sample_frame(0x77);
    const std::uint32_t len =
        16 + ((static_cast<std::uint32_t>(frame.size()) + 3u) & ~3u);
    b.u32(0x00000003);  // SPB
    b.u32(len);
    b.u32(static_cast<std::uint32_t>(frame.size()));  // original length
    b.bytes(frame);
    b.pad4();
    b.u32(len);
    return b.str();
  };

  std::istringstream raw(with_spb_on(101));
  PcapNgReader skipped(raw);
  EXPECT_FALSE(skipped.next());
  EXPECT_TRUE(skipped.ok()) << skipped.error();
  EXPECT_EQ(skipped.packets_read(), 0u);

  // Control: the same block on an Ethernet interface is a packet.
  std::istringstream eth(with_spb_on(1));
  PcapNgReader read(eth);
  auto pkt = read.next();
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->data, sample_frame(0x77));
  EXPECT_TRUE(read.ok()) << read.error();
}

TEST(PcapNg, RejectsNonPcapngStream) {
  std::istringstream in(std::string(64, 'x'));
  PcapNgReader reader(in);
  EXPECT_FALSE(reader.next());
  EXPECT_FALSE(reader.ok());
}

TEST(PcapNg, RejectsTruncatedBlock) {
  NgBuilder b;
  b.shb();
  b.idb(1);
  std::string data = b.str();
  NgBuilder e;
  e.epb(0, 1000, sample_frame(0x44));
  std::string epb = e.str();
  data += epb.substr(0, epb.size() - 6);
  std::istringstream in(data);
  PcapNgReader reader(in);
  EXPECT_FALSE(reader.next());
  EXPECT_FALSE(reader.ok());
}

TEST(OpenCapture, SniffsBothFormats) {
  // PID-unique: parallel ctest workers share /tmp.
  const std::string pid = std::to_string(::getpid());
  std::string ng_path = ::testing::TempDir() + "/zpm_test." + pid + ".pcapng";
  {
    NgBuilder b;
    b.shb();
    b.idb(1);
    b.epb(0, 1000, sample_frame(0x55));
    std::ofstream out(ng_path, std::ios::binary);
    out << b.str();
  }
  auto ng = open_capture(ng_path);
  ASSERT_NE(ng, nullptr);
  EXPECT_TRUE(ng->next().has_value());

  std::string pcap_path = ::testing::TempDir() + "/zpm_test." + pid + ".pcap";
  {
    PcapWriter writer(pcap_path);
    RawPacket pkt;
    pkt.ts = util::Timestamp::from_seconds(1);
    pkt.data = sample_frame(0x66);
    writer.write(pkt);
  }
  auto classic = open_capture(pcap_path);
  ASSERT_NE(classic, nullptr);
  auto pkt = classic->next();
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->data, sample_frame(0x66));

  std::string junk_path = ::testing::TempDir() + "/zpm_test." + pid + ".junk";
  {
    std::ofstream out(junk_path, std::ios::binary);
    out << "this is not a capture";
  }
  EXPECT_EQ(open_capture(junk_path), nullptr);
  EXPECT_EQ(open_capture("/nonexistent/x.pcap"), nullptr);

  std::remove(ng_path.c_str());
  std::remove(pcap_path.c_str());
  std::remove(junk_path.c_str());
}

}  // namespace
}  // namespace zpm::net
