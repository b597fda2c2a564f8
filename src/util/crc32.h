// CRC-32 (IEEE 802.3, reflected 0xEDB88320) for every durable frame.
//
// The checksum guards each `.zpmj` journal frame (slice records and the
// footer index), the journal trailer's seek fields, snapshot files and
// `.epoch` files. A torn write, a truncated disk or a flipped bit must
// fail closed (skip the record, or restart fresh) rather than half-load
// state. A checksum (not a hash table fingerprint) is the right tool:
// the threat model is accidental corruption, not adversaries.
//
// `crc32()` picks its kernel once per process: PCLMULQDQ folding on
// x86-64 CPUs that have it, slice-by-8 tables everywhere else and for
// short inputs. Every kernel computes the same polynomial, so the
// choice never changes a byte on disk. The bytewise loop survives as
// `detail::crc32_reference`, the oracle the kernels are tested against,
// and serves constant evaluation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace zpm::util {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

/// Byte-at-a-time CRC-32: the definition the fast kernels must match.
[[nodiscard]] constexpr std::uint32_t crc32_reference(
    std::span<const std::uint8_t> bytes, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::uint8_t b : bytes)
    c = kCrc32Table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return ~c;
}

/// Slice-by-8 tables: eight bytes per step, on any CPU.
[[nodiscard]] std::uint32_t crc32_portable(std::span<const std::uint8_t> bytes,
                                           std::uint32_t seed = 0);

/// True when this CPU runs `crc32_pclmul` natively (x86-64 with
/// PCLMULQDQ and SSE4.1).
[[nodiscard]] bool crc32_pclmul_supported();

/// Carry-less-multiply folding for the 16-byte-multiple bulk of inputs
/// of at least 64 bytes, slice-by-8 for the rest. Call it only when
/// `crc32_pclmul_supported()`.
[[nodiscard]] std::uint32_t crc32_pclmul(std::span<const std::uint8_t> bytes,
                                         std::uint32_t seed = 0);

/// The fastest kernel this CPU supports, chosen on first use.
[[nodiscard]] std::uint32_t crc32_dispatch(std::span<const std::uint8_t> bytes,
                                           std::uint32_t seed);
}  // namespace detail

/// CRC-32 of `bytes`, optionally chained from a previous result via
/// `seed` (pass the prior return value to extend the checksum).
[[nodiscard]] constexpr std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                            std::uint32_t seed = 0) {
  if (std::is_constant_evaluated()) return detail::crc32_reference(bytes, seed);
  return detail::crc32_dispatch(bytes, seed);
}

}  // namespace zpm::util
