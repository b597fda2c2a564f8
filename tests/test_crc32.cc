// CRC-32 kernels: known answers, each fast kernel against the bytewise
// reference over every short length and alignment, chaining, and the
// on-disk pin — images committed before the fast kernels existed (the
// fuzz seeds) must still validate, so a kernel that agrees with itself
// but not with the polynomial cannot pass by round-tripping its own
// bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/snapshot.h"
#include "query/query.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace zpm::util {
namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

/// Every length 0..1100 at every start offset 0..15, with a random seed
/// per case: covers the under-64-byte path, the 16-byte-multiple bulk
/// and every tail length of the folding kernel.
void expect_matches_reference(Kernel kernel) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kMaxOffset = 16;
  const auto buf = random_bytes(kMaxLen + kMaxOffset, 7);
  Rng rng(11);
  for (std::size_t offset = 0; offset < kMaxOffset; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> bytes(buf.data() + offset, len);
      const std::uint32_t seed = rng.next_u32();
      ASSERT_EQ(kernel(bytes, seed), detail::crc32_reference(bytes, seed))
          << "len " << len << " offset " << offset << " seed " << seed;
    }
  }
}

TEST(Crc32, KnownAnswers) {
  static_assert(detail::crc32_reference(std::span<const std::uint8_t>{}) == 0);
  static_assert(crc32(std::span<const std::uint8_t>{}) == 0);
  EXPECT_EQ(detail::crc32_reference(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
  EXPECT_EQ(detail::crc32_portable(std::span<const std::uint8_t>{}), 0u);
  // A constant-evaluated crc32 runs the reference loop.
  static constexpr std::uint8_t kCheck[] = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
  static_assert(crc32(kCheck) == 0xCBF43926u);
}

TEST(Crc32, PortableMatchesReference) {
  expect_matches_reference(detail::crc32_portable);
}

TEST(Crc32, PclmulMatchesReference) {
  if (!detail::crc32_pclmul_supported())
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  EXPECT_EQ(detail::crc32_pclmul(as_bytes("123456789")), 0xCBF43926u);
  expect_matches_reference(detail::crc32_pclmul);
}

TEST(Crc32, DispatchMatchesReferenceOnLargeRecords) {
  // Journal records run to hundreds of KiB; check sizes around the
  // 64-byte folding stride there too.
  const auto buf = random_bytes((std::size_t{1} << 18) + 64, 3);
  for (const std::size_t len :
       {std::size_t{4096}, std::size_t{65'535}, std::size_t{182'321},
        std::size_t{1} << 18}) {
    for (std::size_t offset = 0; offset < 64; offset += 13) {
      const std::span<const std::uint8_t> bytes(buf.data() + offset, len);
      EXPECT_EQ(crc32(bytes), detail::crc32_reference(bytes)) << len;
    }
  }
}

TEST(Crc32, ChainingEqualsOneShot) {
  const auto buf = random_bytes(3000, 5);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = detail::crc32_reference(all);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{2999},
                                  std::size_t{3000}}) {
    const auto a = all.first(split);
    const auto b = all.subspan(split);
    EXPECT_EQ(crc32(b, crc32(a)), whole) << split;
    EXPECT_EQ(detail::crc32_portable(b, detail::crc32_portable(a)), whole);
    if (detail::crc32_pclmul_supported()) {
      EXPECT_EQ(detail::crc32_pclmul(b, detail::crc32_pclmul(a)), whole);
    }
  }
}

// ---------------------------------------------------------------------------
// On-disk compatibility: images written by the bytewise kernel.

/// A committed fuzz seed with its leading selector byte removed.
std::vector<std::uint8_t> corpus_image(const std::string& name) {
  std::ifstream in(std::string(ZPM_FUZZ_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (!bytes.empty()) bytes.erase(bytes.begin());
  return bytes;
}

void expect_journal_reads(const std::string& name, bool indexed) {
  const auto image = corpus_image(name);
  ASSERT_FALSE(image.empty()) << name;
  query::JournalReader reader;
  std::string error;
  ASSERT_TRUE(reader.open_bytes(image, &error)) << name << ": " << error;
  EXPECT_EQ(reader.scan_stats().used_index, indexed) << name;
  EXPECT_EQ(reader.scan_stats().corrupt_records, 0u) << name;
  ASSERT_EQ(reader.records().size(), 2u) << name;
  query::EpochSlice slice;
  for (std::size_t i = 0; i < reader.records().size(); ++i)
    EXPECT_TRUE(reader.read(i, slice)) << name << " record " << i;
}

TEST(Crc32Compat, CommittedSealedJournalOpensIndexed) {
  expect_journal_reads("fuzz_query/journal_sealed.bin", true);
}

TEST(Crc32Compat, CommittedUnsealedJournalScansClean) {
  expect_journal_reads("fuzz_query/journal_unsealed.bin", false);
}

TEST(Crc32Compat, CommittedSnapshotAndEpochFileLoad) {
  const auto snapshot = corpus_image("fuzz_snapshot/snapshot.bin");
  analysis::SnapshotData data;
  EXPECT_TRUE(analysis::parse_snapshot(snapshot, data));
  EXPECT_EQ(data.next_epoch_seq, 3u);

  const auto epoch = corpus_image("fuzz_snapshot/epoch.bin");
  analysis::EpochReport report;
  EXPECT_TRUE(analysis::parse_epoch_file(epoch, report));
  EXPECT_EQ(report.seq, 2u);
}

}  // namespace
}  // namespace zpm::util
