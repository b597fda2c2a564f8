// Read-only memory-mapped file: one of the two byte providers behind
// the capture parser (net/capture_file.h). Mapping the whole trace lets
// the parser yield spans pointing straight into the page cache instead
// of copying every record into a heap buffer — the paper's
// 1.8B-packet deployment is ingest-bound, and the per-record copy is
// the first cost to go.
//
// Only regular files can be mapped; pipes, FIFOs and stdin go to the
// other provider, a refill buffer over the stream (see net::TraceSource).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace zpm::net {

/// RAII read-only mmap of a whole file. Move-only; the mapping lives
/// until destruction, so views into it stay valid for the object's
/// lifetime.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Returns an unmapped (empty()) object when
  /// the file cannot be opened, is not a regular file, or mmap is
  /// unavailable — callers stream the file instead. A mapped
  /// zero-byte regular file is valid (data() == nullptr, size() == 0).
  static MappedFile open(const std::string& path);

  /// True when a mapping (possibly zero-length) is held.
  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_, size_};
  }

 private:
  void reset();

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool valid_ = false;
};

}  // namespace zpm::net
