// Bounds-checked binary reading and writing in network byte order.
//
// All wire-format parsing in zpm goes through ByteReader so that a
// truncated or malformed packet can never read out of bounds: a reader
// that runs past the end flips into a sticky failed state and every
// subsequent read returns zero. Callers check `ok()` once at the end of
// a parse instead of checking every field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace zpm::util {

/// Sequential big-endian reader over a borrowed byte span.
///
/// Reads never throw and never touch memory outside the span. After any
/// out-of-bounds read attempt the reader is permanently `!ok()` and all
/// further reads yield 0 / empty spans.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  /// Absolute read position from the start of the span.
  [[nodiscard]] std::size_t position() const { return pos_; }
  /// False once any read has run past the end of the data.
  [[nodiscard]] bool ok() const { return ok_; }

  /// Reads a single byte.
  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }

  /// Reads a 16-bit big-endian integer.
  std::uint16_t u16be() { return load_be<std::uint16_t>(); }

  /// Reads a 24-bit big-endian integer into the low bits of a uint32.
  std::uint32_t u24be() {
    if (!require(3)) return 0;
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                      static_cast<std::uint32_t>(data_[pos_ + 2]);
    pos_ += 3;
    return v;
  }

  /// Reads a 32-bit big-endian integer.
  std::uint32_t u32be() { return load_be<std::uint32_t>(); }

  /// Reads a 64-bit big-endian integer.
  std::uint64_t u64be() { return load_be<std::uint64_t>(); }

  /// Returns a view of the next `n` bytes and advances past them.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!require(n)) return {};
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// Returns everything from the current position to the end.
  std::span<const std::uint8_t> rest() {
    if (!ok_) return {};
    auto s = data_.subspan(pos_);
    pos_ = data_.size();
    return s;
  }

  /// Advances `n` bytes without reading them.
  void skip(std::size_t n) {
    if (require(n)) pos_ += n;
  }

  /// Reads a byte at `offset` from the current position without advancing.
  [[nodiscard]] std::uint8_t peek_u8(std::size_t offset = 0) const {
    if (!ok_ || pos_ + offset >= data_.size()) return 0;
    return data_[pos_ + offset];
  }

  /// True if at least `n` bytes remain (does not change state).
  [[nodiscard]] bool can_read(std::size_t n) const { return ok_ && data_.size() - pos_ >= n; }

 private:
  bool require(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// One bounds check and one unaligned load for the whole integer, then
  /// a byte swap on little-endian hosts; a short read consumes nothing and
  /// fails the reader. Spelled out because the compiler does not get here
  /// alone: gcc compiles a byte loop to byte loads, and a written-out
  /// shift-or, though it folds to this same load and swap, is costed as
  /// eight loads by the inliner, which then inlines less of the record
  /// decoder (decode_epoch_slice ~10% slower).
  template <typename T>
  T load_be() {
    static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big);
    if (!require(sizeof(T))) return 0;
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += sizeof(T);
    T v;
    std::memcpy(&v, p, sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      if constexpr (sizeof(T) == 2) v = __builtin_bswap16(v);
      else if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
      else v = __builtin_bswap64(v);
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Append-only big-endian writer backed by a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserves `expected_size` bytes up front to avoid reallocation.
  explicit ByteWriter(std::size_t expected_size) { buf_.reserve(expected_size); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16be(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u24be(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32be(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u64be(std::uint64_t v) {
    u32be(static_cast<std::uint32_t>(v >> 32));
    u32be(static_cast<std::uint32_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Appends `n` copies of `fill`.
  void fill(std::size_t n, std::uint8_t fill_byte = 0) {
    buf_.insert(buf_.end(), n, fill_byte);
  }

  /// Overwrites 2 bytes at an earlier position (e.g. a length field
  /// patched after the body is known).
  void patch_u16be(std::size_t pos, std::uint16_t v) {
    if (pos + 2 > buf_.size()) return;
    buf_[pos] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<std::uint8_t>(v);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return buf_; }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  /// Moves the accumulated bytes out of the writer.
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Renders bytes as lowercase hex, e.g. "05001a" (debugging / goldens).
std::string to_hex(std::span<const std::uint8_t> data);

/// Parses a hex string ("05 00 1a", spaces optional) into bytes.
/// Returns an empty vector on malformed input.
std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace zpm::util
