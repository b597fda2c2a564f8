#include "util/crc32.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ZPM_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

namespace zpm::util::detail {

namespace {

// The kernels below work on the raw CRC register (the checksum before
// its final inversion), so they chain: the public entry points invert
// on the way in and on the way out.

using Slice8Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[k][b] is the register contribution of byte b followed by k
/// zero bytes, so eight table lookups advance the register eight bytes.
constexpr Slice8Tables make_slice8_tables() {
  Slice8Tables t{};
  t[0] = kCrc32Table;
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ kCrc32Table[t[k - 1][b] & 0xFFu];
  return t;
}
constexpr Slice8Tables kSlice8 = make_slice8_tables();

std::uint32_t slice8_update(std::uint32_t c, const std::uint8_t* p,
                            std::size_t n) {
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::big)
      v = __builtin_bswap64(v);
    const auto lo = static_cast<std::uint32_t>(v) ^ c;
    const auto hi = static_cast<std::uint32_t>(v >> 32);
    c = kSlice8[7][lo & 0xFFu] ^ kSlice8[6][(lo >> 8) & 0xFFu] ^
        kSlice8[5][(lo >> 16) & 0xFFu] ^ kSlice8[4][lo >> 24] ^
        kSlice8[3][hi & 0xFFu] ^ kSlice8[2][(hi >> 8) & 0xFFu] ^
        kSlice8[1][(hi >> 16) & 0xFFu] ^ kSlice8[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kCrc32Table[(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef ZPM_CRC32_PCLMUL
/// Folding needs at least four 16-byte lanes to start.
constexpr std::size_t kFoldMinBytes = 64;

#define ZPM_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

ZPM_CRC32_TARGET inline __m128i load128(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One fold: `lane` times x^(fold distance) mod P (the two halves of
/// `k`), xored into the data `next` that distance further on.
ZPM_CRC32_TARGET inline __m128i fold128(__m128i lane, __m128i k,
                                        __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds `n` bytes (n >= 64, n a multiple of 16) into the register with
/// carry-less multiplies: four 128-bit lanes advance 64 bytes per step,
/// collapse into one lane, take the remaining 16-byte blocks, then
/// reduce 128 -> 64 -> 32 bits (Barrett). The constants are x^k mod P
/// for the fold distances and the Barrett pair for P = 0x104C11DB7, all
/// bit-reflected (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
ZPM_CRC32_TARGET std::uint32_t fold_update(std::uint32_t c,
                                           const std::uint8_t* p,
                                           std::size_t n) {
  alignas(16) static constexpr std::uint64_t k1k2[2] = {0x0154442bd4,
                                                        0x01c6e41596};
  alignas(16) static constexpr std::uint64_t k3k4[2] = {0x01751997d0,
                                                        0x00ccaa009e};
  alignas(16) static constexpr std::uint64_t k5k0[2] = {0x0163cd6124, 0};
  alignas(16) static constexpr std::uint64_t poly[2] = {0x01db710641,
                                                        0x01f7011641};

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  for (; n >= 64; n -= 64, p += 64) {
    x1 = fold128(x1, k, load128(p));
    x2 = fold128(x2, k, load128(p + 16));
    x3 = fold128(x3, k, load128(p + 32));
    x4 = fold128(x4, k, load128(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = fold128(x1, k, x2);
  x1 = fold128(x1, k, x3);
  x1 = fold128(x1, k, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = fold128(x1, k, load128(p));

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k, 0x00));

  // Barrett reduction 64 -> 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}
#undef ZPM_CRC32_TARGET
#endif

}  // namespace

std::uint32_t crc32_portable(std::span<const std::uint8_t> bytes,
                             std::uint32_t seed) {
  return ~slice8_update(~seed, bytes.data(), bytes.size());
}

bool crc32_pclmul_supported() {
#ifdef ZPM_CRC32_PCLMUL
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_pclmul(std::span<const std::uint8_t> bytes,
                           std::uint32_t seed) {
  std::uint32_t c = ~seed;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#ifdef ZPM_CRC32_PCLMUL
  if (n >= kFoldMinBytes) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = fold_update(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~slice8_update(c, p, n);
}

std::uint32_t crc32_dispatch(std::span<const std::uint8_t> bytes,
                             std::uint32_t seed) {
  using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);
  static const Kernel kernel =
      crc32_pclmul_supported() ? crc32_pclmul : crc32_portable;
  return kernel(bytes, seed);
}

}  // namespace zpm::util::detail
