// Fuzz target for the daemon's durability formats: snapshot files,
// per-epoch report files, and the serialized FlowTier image a snapshot
// carries. The parsers are the daemon's crash-recovery path — they see
// whatever a dying machine left on disk, so they must never crash,
// never read out of bounds (ASan/UBSan), and every accepted input must
// be round-trip stable, checked to a fixpoint:
//   parse(input) = d  =>  parse(encode(d)) = d  and  encode is
//   deterministic (two encodes of d are byte-identical).
// Byte-identity with the *input* is deliberately not required: the
// decoders accept a few non-canonical orderings (sparse-tally order,
// spare key bits) that the encoder never emits.
//
// Input layout: [selector u8][payload...] — the selector routes the
// payload to one of the parsers, so one corpus covers all of them and
// libFuzzer can cross-pollinate the wrapper framings:
//   0 -> parse_snapshot over the payload as a file image
//   1 -> parse_epoch_file over the payload as a file image
//   2 -> FlowTier::deserialize ([budget exponent u8][tier image])
//   3 -> as 0, after framing the payload as a "ZPMS" image: the length
//        and CRC-32 are computed, so mutations reach the payload
//        decoders (the counter tables) instead of dying at the checksum
//   4 -> as 1, framing the payload as a "ZPME" image
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>

#include <vector>

#include "analysis/snapshot.h"
#include "sketch/sketch.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_snapshot invariant violated: %s\n", what);
  std::abort();
}

void check_snapshot(std::span<const std::uint8_t> payload) {
  zpm::analysis::SnapshotData data;
  if (!zpm::analysis::parse_snapshot(payload, data)) return;
  const auto encoded = zpm::analysis::encode_snapshot(data);
  if (zpm::analysis::encode_snapshot(data) != encoded)
    die("snapshot encode is nondeterministic");
  zpm::analysis::SnapshotData reparsed;
  if (!zpm::analysis::parse_snapshot(encoded, reparsed))
    die("encoded snapshot does not parse");
  if (!(reparsed == data)) die("snapshot round trip changed the data");
}

void check_epoch_file(std::span<const std::uint8_t> payload) {
  zpm::analysis::EpochReport report;
  if (!zpm::analysis::parse_epoch_file(payload, report)) return;
  const auto encoded = zpm::analysis::encode_epoch_file(report);
  zpm::analysis::EpochReport reparsed;
  if (!zpm::analysis::parse_epoch_file(encoded, reparsed))
    die("encoded epoch file does not parse");
  if (!(reparsed == report)) die("epoch file round trip changed the data");
}

void check_flow_tier(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return;
  // The tier must match the stored geometry for a restore to succeed,
  // so derive the budget from the payload the same way the daemon
  // does implicitly (first bytes of the image carry it); a mismatched
  // budget exercises the rejection path instead.
  const std::size_t budget = std::size_t{1} << (payload[0] % 21);
  zpm::sketch::FlowTier tier(budget);
  zpm::util::ByteReader r(payload.subspan(1));
  if (!tier.deserialize(r)) return;
  zpm::util::ByteWriter w;
  tier.serialize(w);
  const auto image = w.take();
  zpm::sketch::FlowTier restored(budget);
  zpm::util::ByteReader r2(image);
  if (!restored.deserialize(r2)) die("serialized tier does not restore");
  if (r2.remaining() != 0) die("tier restore left trailing bytes");
  zpm::util::ByteWriter w2;
  restored.serialize(w2);
  if (w2.take() != image) die("tier image round trip changed the bytes");
}

/// The snapshot wrapper around `payload`: magic | version u32 |
/// payload_len u64 | crc32(payload) | payload (analysis/snapshot.h).
std::vector<std::uint8_t> framed(const char (&magic)[5],
                                 std::span<const std::uint8_t> payload) {
  zpm::util::ByteWriter w(payload.size() + 20);
  for (int i = 0; i < 4; ++i) w.u8(static_cast<std::uint8_t>(magic[i]));
  w.u32be(zpm::analysis::kSnapshotVersion);
  w.u64be(payload.size());
  w.u32be(zpm::util::crc32(payload));
  w.bytes(payload);
  return w.take();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::span<const std::uint8_t> payload(data + 1, size - 1);
  switch (data[0] % 5) {
    case 0: check_snapshot(payload); break;
    case 1: check_epoch_file(payload); break;
    case 2: check_flow_tier(payload); break;
    case 3: check_snapshot(framed("ZPMS", payload)); break;
    default: check_epoch_file(framed("ZPME", payload)); break;
  }
  return 0;
}
