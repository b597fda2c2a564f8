// Fuzz target for the query layer's untrusted inputs: journal file
// images, record payloads, query-request specs, and MANIFEST text. All
// four face bytes from disk or from the CLI, so they must never crash,
// never read out of bounds (ASan/UBSan), skip-and-account rather than
// abort on corruption, and be round-trip stable where a codec exists:
//   decode(input) = d  =>  decode(encode(d)) = d  and encode is
//   deterministic. Text codecs check the same fixpoint on the
//   canonical form (parse(format(parse(x))) == parse(x)).
//
// Input layout: [selector u8][payload...]:
//   0 -> JournalReader::open_bytes over the payload as a file image
//        (index validation, scan resync, per-record CRC + decode)
//   1 -> decode_epoch_slice over the payload as one record payload
//   2 -> parse_query_request over the payload as text
//   3 -> parse_manifest over the payload as text
//   4 -> as 0, after re-framing the payload: every ZJRC frame's payload
//        CRC and the trailer's seek CRC are recomputed, so mutations
//        reach index and offset validation instead of dying at the
//        checksum
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "query/query.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_query invariant violated: %s\n", what);
  std::abort();
}

void check_journal_image(std::span<const std::uint8_t> payload) {
  zpm::query::JournalReader reader;
  std::string error;
  if (!reader.open_bytes(payload, &error)) return;

  // Whatever survived validation must be internally consistent: spans
  // ordered, select() over everything covering every record, and each
  // accepted record decoding deterministically to a re-encodable slice.
  const auto& records = reader.records();
  for (std::size_t i = 1; i < records.size(); ++i)
    if (records[i].first_us < records[i - 1].first_us)
      die("records not ordered by first_us");
  const auto all =
      reader.select(std::numeric_limits<std::int64_t>::min(),
                    std::numeric_limits<std::int64_t>::max());
  if (all.first != 0 || all.second != records.size())
    die("full-range select does not cover all records");

  zpm::query::EpochSlice slice;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!reader.read(i, slice)) continue;  // corrupt payload: skip
    if (slice.first_us != records[i].first_us ||
        slice.last_us != records[i].last_us || slice.seq != records[i].seq)
      die("index entry disagrees with decoded record");
    zpm::util::ByteWriter w;
    zpm::query::encode_epoch_slice(slice, w);
    const auto encoded = w.take();
    zpm::util::ByteReader r(encoded);
    zpm::query::EpochSlice reparsed;
    if (!zpm::query::decode_epoch_slice(r, reparsed))
      die("re-encoded record does not decode");
    if (!(reparsed == slice)) die("record round trip changed the data");
    // The meeting dictionary may only point at records that exist.
    for (const auto& meeting : slice.meetings) {
      const auto refs = reader.records_for_meeting(meeting.meeting_key);
      for (const auto ref : refs)
        if (ref >= records.size()) die("dictionary ref out of range");
    }
  }
}

void store_u32be(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 24);
  at[1] = static_cast<std::uint8_t>(v >> 16);
  at[2] = static_cast<std::uint8_t>(v >> 8);
  at[3] = static_cast<std::uint8_t>(v);
}

/// Rewrites the checksums of a journal image in place so they match
/// whatever bytes the mutator left: walks the body from the header end
/// (magic 4, version 4, site_len 1, site, shard_count 4), fixing the
/// CRC of each ZJRC frame whose length fits (marker 4, kind 1, len 8,
/// crc 4) and resyncing byte by byte like the reader's scan, then the
/// trailer's seek CRC over its first 16 bytes.
void reframe_journal(std::vector<std::uint8_t>& image) {
  constexpr std::size_t kFrameOverhead = 17;
  constexpr std::size_t kTrailerLen = 24;
  if (image.size() < 9) return;
  const std::size_t body = std::size_t{9} + image[8] + 4;
  std::size_t pos = body;
  while (pos < image.size() && image.size() - pos >= kFrameOverhead) {
    const std::uint8_t* at = image.data() + pos;
    if (at[0] != 'Z' || at[1] != 'J' || at[2] != 'R' || at[3] != 'C') {
      ++pos;
      continue;
    }
    const std::uint64_t len = zpm::util::ByteReader({at + 5, 8}).u64be();
    if (len > image.size() - pos - kFrameOverhead) {
      ++pos;
      continue;
    }
    store_u32be(image.data() + pos + 13,
                zpm::util::crc32({at + kFrameOverhead, len}));
    pos += kFrameOverhead + len;
  }
  if (image.size() >= body + kTrailerLen) {
    std::uint8_t* trailer = image.data() + image.size() - kTrailerLen;
    store_u32be(trailer + 16, zpm::util::crc32({trailer, 16}));
  }
}

void check_reframed_journal(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> image(payload.begin(), payload.end());
  reframe_journal(image);
  check_journal_image(image);
}

void check_slice_payload(std::span<const std::uint8_t> payload) {
  zpm::util::ByteReader r(payload);
  zpm::query::EpochSlice slice;
  if (!zpm::query::decode_epoch_slice(r, slice)) return;
  zpm::util::ByteWriter w;
  zpm::query::encode_epoch_slice(slice, w);
  const auto encoded = w.take();
  zpm::util::ByteWriter w2;
  zpm::query::encode_epoch_slice(slice, w2);
  if (w2.take() != encoded) die("slice encode is nondeterministic");
  zpm::util::ByteReader r2(encoded);
  zpm::query::EpochSlice reparsed;
  if (!zpm::query::decode_epoch_slice(r2, reparsed))
    die("encoded slice does not decode");
  if (r2.remaining() != 0) die("slice decode left trailing bytes");
  if (!(reparsed == slice)) die("slice round trip changed the data");
}

void check_request_text(std::span<const std::uint8_t> payload) {
  const std::string_view text(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  zpm::query::QueryRequest request;
  if (!zpm::query::parse_query_request(text, request)) return;
  if (request.from_us > request.to_us) die("accepted an empty window");
  const std::string canonical = zpm::query::format_query_request(request);
  zpm::query::QueryRequest reparsed;
  if (!zpm::query::parse_query_request(canonical, reparsed))
    die("canonical request does not parse");
  if (!(reparsed == request)) die("request round trip changed the data");
  if (zpm::query::format_query_request(reparsed) != canonical)
    die("request format is not a fixpoint");
}

void check_manifest_text(std::span<const std::uint8_t> payload) {
  const std::string_view text(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  zpm::query::Manifest manifest;
  if (!zpm::query::parse_manifest(text, manifest)) return;
  const std::string canonical = zpm::query::format_manifest(manifest);
  zpm::query::Manifest reparsed;
  if (!zpm::query::parse_manifest(canonical, reparsed))
    die("canonical manifest does not parse");
  if (!(reparsed == manifest)) die("manifest round trip changed the data");
  if (zpm::query::format_manifest(reparsed) != canonical)
    die("manifest format is not a fixpoint");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::span<const std::uint8_t> payload(data + 1, size - 1);
  switch (data[0] % 5) {
    case 0: check_journal_image(payload); break;
    case 1: check_slice_payload(payload); break;
    case 2: check_request_text(payload); break;
    case 3: check_manifest_text(payload); break;
    default: check_reframed_journal(payload); break;
  }
  return 0;
}
