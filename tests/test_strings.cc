// Formatting helpers.
#include <gtest/gtest.h>

#include "util/strings.h"
#include "util/time.h"

namespace zpm::util {
namespace {

TEST(HumanBytes, Units) {
  EXPECT_EQ(human_bytes(0), "0 B");
  EXPECT_EQ(human_bytes(999), "999 B");
  EXPECT_EQ(human_bytes(1500), "1.5 KB");
  EXPECT_EQ(human_bytes(1'203'000'000'000ull), "1.2 TB");
}

TEST(HumanBitrate, Units) {
  EXPECT_EQ(human_bitrate(500), "500.0 bit/s");
  EXPECT_EQ(human_bitrate(222'900'000), "222.9 Mbit/s");
  EXPECT_EQ(human_bitrate(1.5e9), "1.5 Gbit/s");
}

TEST(Fixed, Decimals) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Percent, Formatting) {
  EXPECT_EQ(percent(0.62), "62.00%");
  EXPECT_EQ(percent(0.9003, 2), "90.03%");
  EXPECT_EQ(percent(1.0, 1), "100.0%");
}

TEST(WithCommas, GroupsOfThree) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1'846'000'000ull), "1,846,000,000");
}

TEST(ClockLabel, WrapsAroundMidnight) {
  EXPECT_EQ(clock_label(0), "00:00");
  EXPECT_EQ(clock_label(9 * 3600 + 30 * 60), "09:30");
  EXPECT_EQ(clock_label(25 * 3600), "01:00");
}

TEST(Split, KeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(split("x,", ',').size(), 2u);
}

TEST(ParseByteSize, BinarySuffixesAndCap) {
  EXPECT_EQ(parse_byte_size("4M"), std::size_t{4} << 20);
  EXPECT_EQ(parse_byte_size("262144"), 262144u);
  EXPECT_EQ(parse_byte_size("0"), 0u);
  EXPECT_EQ(parse_byte_size("1T"), 0u);     // unknown suffix
  EXPECT_EQ(parse_byte_size(""), 0u);       // no digits
  EXPECT_EQ(parse_byte_size("2048G"), 0u);  // 2 TiB, over the 1 TiB cap
  EXPECT_EQ(parse_byte_size("1024G"), std::size_t{1} << 40);
}

TEST(TimeTypes, DurationArithmetic) {
  auto d = Duration::millis(1500);
  EXPECT_EQ(d.us(), 1'500'000);
  EXPECT_DOUBLE_EQ(d.ms(), 1500.0);
  EXPECT_DOUBLE_EQ(d.sec(), 1.5);
  EXPECT_EQ((d + Duration::millis(500)).sec(), 2.0);
  EXPECT_EQ((d * 2).us(), 3'000'000);
  EXPECT_LT(Duration::millis(10), Duration::millis(20));
}

TEST(TimeTypes, TimestampPcapRoundTrip) {
  auto t = Timestamp::from_pcap(1651752000, 123456);
  EXPECT_EQ(t.pcap_sec(), 1651752000u);
  EXPECT_EQ(t.pcap_usec(), 123456u);
  auto later = t + Duration::seconds(2.5);
  EXPECT_EQ((later - t).ms(), 2500.0);
}

}  // namespace
}  // namespace zpm::util
