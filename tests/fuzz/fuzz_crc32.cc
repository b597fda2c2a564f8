// Differential fuzz target for the CRC-32 kernels: the dispatched
// kernel, the portable slice-by-8 kernel, the PCLMUL folding kernel
// (when the CPU has it) and a checksum chained across a split point
// must all equal the bytewise reference on every input. Any
// disagreement would silently change what every journal, snapshot and
// epoch file accepts, so it aborts.
//
// Input layout: [seed u32le][offset u8][split u16le][data...]. The seed
// is the chaining input, `offset % 16` bytes of the data are skipped so
// the kernels see every alignment, and `split % (len + 1)` is where the
// chained checksum cuts the rest.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "util/crc32.h"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_crc32 invariant violated: %s\n", what);
  std::abort();
}

constexpr std::size_t kHeader = 7;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace detail = zpm::util::detail;
  if (size < kHeader) return 0;
  const std::uint32_t seed = std::uint32_t{data[0]} |
                             std::uint32_t{data[1]} << 8 |
                             std::uint32_t{data[2]} << 16 |
                             std::uint32_t{data[3]} << 24;
  const std::size_t offset = data[4] % 16;
  const std::size_t split_raw = std::size_t{data[5]} | std::size_t{data[6]} << 8;
  std::span<const std::uint8_t> bytes(data + kHeader, size - kHeader);
  bytes = bytes.subspan(offset < bytes.size() ? offset : bytes.size());

  const std::uint32_t want = detail::crc32_reference(bytes, seed);
  if (zpm::util::crc32(bytes, seed) != want) die("dispatched kernel differs");
  if (detail::crc32_portable(bytes, seed) != want)
    die("portable kernel differs");
  if (detail::crc32_pclmul_supported() &&
      detail::crc32_pclmul(bytes, seed) != want)
    die("pclmul kernel differs");

  const std::size_t split = split_raw % (bytes.size() + 1);
  const std::uint32_t head = zpm::util::crc32(bytes.first(split), seed);
  if (zpm::util::crc32(bytes.subspan(split), head) != want)
    die("chained checksum differs from one-shot");
  return 0;
}
