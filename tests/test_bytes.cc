// ByteReader / ByteWriter: bounds safety, byte order, round-trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace zpm::util {
namespace {

TEST(ByteReader, ReadsBigEndianScalars) {
  auto data = from_hex("01 0203 040506 0708090a 0102030405060708");
  ByteReader r(data);
  EXPECT_EQ(r.u8(), 0x01u);
  EXPECT_EQ(r.u16be(), 0x0203u);
  EXPECT_EQ(r.u24be(), 0x040506u);
  EXPECT_EQ(r.u32be(), 0x0708090au);
  EXPECT_EQ(r.u64be(), 0x0102030405060708ull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, OverrunFlipsToFailedStateAndStaysThere) {
  std::uint8_t data[] = {0xaa, 0xbb};
  ByteReader r(data);
  EXPECT_EQ(r.u16be(), 0xaabbu);
  EXPECT_EQ(r.u8(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  // Sticky: even reads that would fit now fail.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.bytes(1).empty());
}

TEST(ByteReader, PartialMultibyteReadDoesNotReadOutOfBounds) {
  std::uint8_t data[] = {0x01, 0x02, 0x03};
  ByteReader r(data);
  EXPECT_EQ(r.u32be(), 0u);  // only 3 bytes available
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, BytesAndRestViews) {
  auto data = from_hex("deadbeefcafe");
  ByteReader r(data);
  auto head = r.bytes(2);
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[0], 0xde);
  auto rest = r.rest();
  EXPECT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[3], 0xfe);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, PeekDoesNotAdvance) {
  auto data = from_hex("1122");
  ByteReader r(data);
  EXPECT_EQ(r.peek_u8(), 0x11u);
  EXPECT_EQ(r.peek_u8(1), 0x22u);
  EXPECT_EQ(r.peek_u8(2), 0u);  // out of range: 0, state unchanged
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.position(), 0u);
}

TEST(ByteReader, SkipPastEndFails) {
  std::uint8_t data[] = {1, 2, 3};
  ByteReader r(data);
  r.skip(4);
  EXPECT_FALSE(r.ok());
}

/// Big-endian value of `width` bytes at `p`, one byte at a time — the
/// reference the word-at-a-time reads must match.
std::uint64_t bytewise_be(const std::uint8_t* p, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t read_width(ByteReader& r, std::size_t width) {
  switch (width) {
    case 2: return r.u16be();
    case 3: return r.u24be();
    case 4: return r.u32be();
    default: return r.u64be();
  }
}

TEST(ByteReader, EveryWidthAtEveryOffsetMatchesBytewise) {
  // Distinct, high-bit-heavy bytes so a swapped or shifted byte shows.
  std::vector<std::uint8_t> data(32);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(0x81 + 37 * i);
  for (const std::size_t width : {2u, 3u, 4u, 8u}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      ByteReader r(data);
      r.skip(offset);
      // Three back-to-back reads: the later ones start misaligned by a
      // multiple of the width as well as by `offset`.
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t at = offset + k * width;
        EXPECT_EQ(read_width(r, width), bytewise_be(&data[at], width))
            << "width " << width << " offset " << at;
        EXPECT_EQ(r.position(), at + width);
      }
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.remaining(), data.size() - offset - 3 * width);
    }
  }
}

TEST(ByteReader, ShortReadOfEveryWidthFailsAndStaysFailed) {
  const std::uint8_t data[8] = {0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8};
  for (const std::size_t width : {2u, 3u, 4u, 8u}) {
    for (std::size_t left = 1; left < width; ++left) {
      ByteReader r(std::span<const std::uint8_t>(data, left));
      EXPECT_EQ(read_width(r, width), 0u) << "width " << width << " left " << left;
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
      // Sticky: a read that would have fit before the failure fails too.
      EXPECT_EQ(r.u8(), 0u);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_FALSE(r.can_read(0));
    }
  }
}

TEST(ByteWriter, RoundTripsThroughReader) {
  ByteWriter w;
  w.u8(0x7f);
  w.u16be(0xbeef);
  w.u24be(0x010203);
  w.u32be(0xdeadbeef);
  w.u64be(0x1122334455667788ull);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0x7fu);
  EXPECT_EQ(r.u16be(), 0xbeefu);
  EXPECT_EQ(r.u24be(), 0x010203u);
  EXPECT_EQ(r.u32be(), 0xdeadbeefu);
  EXPECT_EQ(r.u64be(), 0x1122334455667788ull);
  EXPECT_TRUE(r.ok());
}

TEST(ByteWriter, PatchU16OverwritesInPlace) {
  ByteWriter w;
  w.u16be(0);
  w.u8(0xff);
  w.patch_u16be(0, 0x1234);
  EXPECT_EQ(to_hex(w.view()), "1234ff");
}

TEST(ByteWriter, PatchOutOfRangeIsIgnored) {
  ByteWriter w;
  w.u8(1);
  w.patch_u16be(0, 0xffff);  // needs 2 bytes, only 1 present
  EXPECT_EQ(to_hex(w.view()), "01");
}

TEST(ByteWriter, FillAppendsRepeatedByte) {
  ByteWriter w;
  w.fill(3, 0xab);
  EXPECT_EQ(to_hex(w.view()), "ababab");
}

TEST(HexCodec, RoundTrip) {
  auto bytes = from_hex("00ff10a5");
  EXPECT_EQ(to_hex(bytes), "00ff10a5");
}

TEST(HexCodec, AcceptsWhitespaceAndUppercase) {
  auto bytes = from_hex("DE AD be ef");
  EXPECT_EQ(to_hex(bytes), "deadbeef");
}

TEST(HexCodec, RejectsOddLengthAndGarbage) {
  EXPECT_TRUE(from_hex("abc").empty());
  EXPECT_TRUE(from_hex("zz").empty());
}

}  // namespace
}  // namespace zpm::util
