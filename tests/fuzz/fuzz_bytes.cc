// Differential fuzz target for util::ByteReader: a random sequence of
// reads runs through ByteReader and through a byte-at-a-time reference
// reader kept here, and every read must agree on the value (or view),
// ok() and remaining(). ByteReader's word-at-a-time integer reads sit
// under every decoder (packet headers, journals, snapshots, epoch
// reports), so a disagreement aborts.
//
// Input layout: [op_count u8][ops...][data...]. Each op byte picks the
// read (`op & 7`: u8, u16be, u24be, u32be, u64be, bytes, skip, rest)
// and, for bytes/skip, the length (`op >> 3`, 0-31). The ops run over
// the data that follows them, so short reads of every width come up
// naturally.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

#include "util/bytes.h"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_bytes invariant violated: %s\n", what);
  std::abort();
}

/// The reader contract spelled out one byte at a time: a read that does
/// not fit returns 0 / an empty view and fails the reader for good.
struct ReferenceReader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || data.size() - pos < n) ok = false;
    return ok;
  }
  std::uint64_t be(std::size_t width) {
    if (!take(width)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v = (v << 8) | data[pos++];
    return v;
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!take(n)) return {};
    const auto s = data.subspan(pos, n);
    pos += n;
    return s;
  }
  void skip(std::size_t n) {
    if (take(n)) pos += n;
  }
  std::span<const std::uint8_t> rest() { return bytes(remaining()); }
  [[nodiscard]] std::size_t remaining() const {
    return ok ? data.size() - pos : 0;
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::size_t n_ops = std::min<std::size_t>(data[0], size - 1);
  const std::span<const std::uint8_t> ops(data + 1, n_ops);
  const std::span<const std::uint8_t> body(data + 1 + n_ops, size - 1 - n_ops);

  zpm::util::ByteReader r(body);
  ReferenceReader ref{body};
  for (const std::uint8_t op : ops) {
    const std::size_t len = op >> 3;
    std::uint64_t got = 0, want = 0;
    std::span<const std::uint8_t> view_got, view_want;
    switch (op & 7) {
      case 0: got = r.u8(); want = ref.be(1); break;
      case 1: got = r.u16be(); want = ref.be(2); break;
      case 2: got = r.u24be(); want = ref.be(3); break;
      case 3: got = r.u32be(); want = ref.be(4); break;
      case 4: got = r.u64be(); want = ref.be(8); break;
      case 5: view_got = r.bytes(len); view_want = ref.bytes(len); break;
      case 6: r.skip(len); ref.skip(len); break;
      default: view_got = r.rest(); view_want = ref.rest(); break;
    }
    if (view_got.size() != view_want.size() ||
        (!view_got.empty() &&
         std::memcmp(view_got.data(), view_want.data(), view_got.size()) != 0))
      die("byte view differs");
    if (got != want) die("integer value differs");
    if (r.ok() != ref.ok) die("ok() differs");
    if (r.remaining() != ref.remaining()) die("remaining() differs");
    // Position is only specified while the reader is healthy.
    if (r.ok() && r.position() != ref.pos) die("position() differs");
  }
  return 0;
}
