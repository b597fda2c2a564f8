// DSCP annotation (§8 extension).
#include <gtest/gtest.h>

#include "capture/inline_telemetry.h"
#include "net/build.h"

namespace zpm::capture {
namespace {

using util::Timestamp;

TEST(Dscp, CodepointsByImportance) {
  EXPECT_EQ(dscp_for(zoom::MediaKind::Audio, false), 46);        // EF
  EXPECT_EQ(dscp_for(zoom::MediaKind::Video, false), 34);        // AF41
  EXPECT_EQ(dscp_for(zoom::MediaKind::ScreenShare, false), 18);  // AF21
  EXPECT_EQ(dscp_for(zoom::MediaKind::Video, true), 8);          // FEC -> CS1
}

TEST(Dscp, AnnotateRewritesAndKeepsFrameValid) {
  std::vector<std::uint8_t> payload(40, 0xab);
  auto pkt = net::build_udp(Timestamp::from_seconds(1), net::Ipv4Addr(10, 0, 0, 1),
                            1000, net::Ipv4Addr(10, 0, 0, 2), 2000, payload);
  ASSERT_TRUE(annotate_dscp(pkt, 46));
  auto dscp = read_dscp(pkt);
  ASSERT_TRUE(dscp);
  EXPECT_EQ(*dscp, 46);
  // Frame still parses (checksum fixed).
  auto view = net::decode_packet(pkt);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->ip.dscp_ecn >> 2, 46);
  EXPECT_EQ(view->l4_payload.size(), 40u);
}

TEST(Dscp, RejectsNonIpv4) {
  net::RawPacket junk;
  junk.data.assign(60, 0);
  EXPECT_FALSE(annotate_dscp(junk, 46));
  EXPECT_FALSE(read_dscp(junk));
}

}  // namespace
}  // namespace zpm::capture
