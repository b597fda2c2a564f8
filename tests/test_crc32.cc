// CRC-32 kernels: known answers, each fast kernel against the bytewise
// reference over every short length and alignment, chaining, and the
// on-disk pin — images committed before the fast kernels existed (the
// fuzz seeds) must still validate, so a kernel that agrees with itself
// but not with the polynomial cannot pass by round-tripping its own
// bytes. The same seeds pin the wire order of the counter field tables.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/snapshot.h"
#include "capture/offload.h"
#include "query/query.h"
#include "sketch/sketch.h"
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

// ---------------------------------------------------------------------------
// Wire order: the committed seeds re-encode to their own bytes, and the
// payload seeds — written with a distinct value in every counter of the
// four field-table structs, in declaration order — decode to those
// values in those fields. Re-encoding alone cannot catch a reordered
// table row (decode and encode would permute alike); the field values
// do.

/// The snapshot wrapper (analysis/snapshot.h) around a bare payload.
std::vector<std::uint8_t> framed(std::string_view magic,
                                 std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.bytes(as_bytes(magic));
  w.u32be(analysis::kSnapshotVersion);
  w.u64be(payload.size());
  w.u32be(crc32(payload));
  w.bytes(payload);
  return w.take();
}

/// The u64 counters in `bytes` bytes from `first`, in declaration order.
std::vector<std::uint64_t> counter_words(const void* first, std::size_t bytes) {
  std::vector<std::uint64_t> out(bytes / sizeof(std::uint64_t));
  std::memcpy(out.data(), first, out.size() * sizeof(std::uint64_t));
  return out;
}

std::vector<std::uint64_t> numbered(std::uint64_t first, std::size_t count) {
  std::vector<std::uint64_t> out(count);
  for (auto& v : out) v = first++;
  return out;
}

/// The values make_fuzz_corpus stores in the payload seeds' counters.
void expect_numbered_counters(const core::AnalyzerCounters& c,
                              const core::AnalyzerHealth& h) {
  EXPECT_EQ(counter_words(&c, offsetof(core::AnalyzerCounters, encap_tally)),
            numbered(1, 13));
  EXPECT_EQ(counter_words(&h, sizeof h), numbered(14, 31));
}

void expect_numbered_report(const analysis::EpochReport& r) {
  expect_numbered_counters(r.counters, r.health);
  EXPECT_EQ(counter_words(&r.tier_stats, sizeof r.tier_stats), numbered(45, 5));
  EXPECT_EQ(counter_words(&r.offload.covered_packets,
                          sizeof r.offload -
                              offsetof(capture::OffloadReport, covered_packets)),
            numbered(50, 5));
}

void expect_snapshot_reencodes(const std::vector<std::uint8_t>& image,
                               bool numbered_counters) {
  analysis::SnapshotData data;
  ASSERT_TRUE(analysis::parse_snapshot(image, data));
  EXPECT_EQ(analysis::encode_snapshot(data), image);
  if (!numbered_counters) return;
  expect_numbered_counters(data.cumulative_counters, data.cumulative_health);
  ASSERT_EQ(data.recent_epochs.size(), 1u);
  expect_numbered_report(data.recent_epochs.front());
}

void expect_epoch_file_reencodes(const std::vector<std::uint8_t>& image,
                                 bool numbered_counters) {
  analysis::EpochReport report;
  ASSERT_TRUE(analysis::parse_epoch_file(image, report));
  EXPECT_EQ(analysis::encode_epoch_file(report), image);
  if (numbered_counters) expect_numbered_report(report);
}

TEST(WireOrder, CommittedSnapshotReencodesByteForByte) {
  expect_snapshot_reencodes(corpus_image("fuzz_snapshot/snapshot.bin"), false);
  expect_snapshot_reencodes(
      framed("ZPMS", corpus_image("fuzz_snapshot/snapshot_payload.bin")), true);
}

TEST(WireOrder, CommittedEpochFileReencodesByteForByte) {
  expect_epoch_file_reencodes(corpus_image("fuzz_snapshot/epoch.bin"), false);
  expect_epoch_file_reencodes(
      framed("ZPME", corpus_image("fuzz_snapshot/epoch_payload.bin")), true);
}

TEST(WireOrder, CommittedTierImageReencodesByteForByte) {
  auto image = corpus_image("fuzz_snapshot/tier.bin");
  ASSERT_FALSE(image.empty());
  const std::size_t budget = std::size_t{1} << image.front();  // exponent
  image.erase(image.begin());
  sketch::FlowTier tier(budget);
  ByteReader r(image);
  ASSERT_TRUE(tier.deserialize(r));
  EXPECT_EQ(r.remaining(), 0u);
  ByteWriter w;
  tier.serialize(w);
  EXPECT_EQ(w.take(), image);
}

TEST(WireOrder, CommittedOffloadReportReencodesByteForByte) {
  const auto image = corpus_image("fuzz_offload/report.bin");
  ByteReader r(image);
  const auto report = capture::decode_offload_report(r);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(r.remaining(), 0u);
  ByteWriter w;
  capture::encode_offload_report(*report, w);
  EXPECT_EQ(w.take(), image);
}

TEST(WireOrder, CommittedSliceReencodesByteForByte) {
  const auto image = corpus_image("fuzz_query/slice.bin");
  ByteReader r(image);
  query::EpochSlice slice;
  ASSERT_TRUE(query::decode_epoch_slice(r, slice));
  EXPECT_EQ(r.remaining(), 0u);
  ByteWriter w;
  query::encode_epoch_slice(slice, w);
  EXPECT_EQ(w.take(), image);
}

}  // namespace
}  // namespace zpm::util
