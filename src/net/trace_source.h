// Trace ingest: a capture file of either format as a BatchSource. A
// regular file is memory-mapped and handed to the capture parser whole,
// so packet views point straight into the mapping (zero copy); anything
// else (stdin, pipes, FIFOs, platforms without mmap) streams through
// the same parser behind a refill buffer. Both paths share every
// validation rule and error string (capture_file.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/batch_source.h"
#include "net/capture_file.h"
#include "net/mapped_file.h"
#include "net/packet.h"

namespace zpm::net {

/// Unified trace input. Opens a capture of either format, sniffing the
/// magic; check ok() afterwards. Views returned by next()/next_batch()
/// stay valid until the TraceSource is destroyed on the mapped path,
/// and until the next call on the streaming path.
class TraceSource : public BatchSource {
 public:
  explicit TraceSource(const std::string& path)
      : file_(MappedFile::open(path, ReadPattern::Sweep)),
        reader_(file_.valid() ? CaptureReader(file_.bytes(), CaptureFormat::Sniff)
                              : CaptureReader(path, CaptureFormat::Sniff)) {}

  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;

  [[nodiscard]] bool ok() const { return reader_.ok(); }
  [[nodiscard]] const std::string& error() const override {
    return reader_.error();
  }
  /// True when the zero-copy mapped path is active.
  [[nodiscard]] bool mapped() const { return file_.valid(); }
  /// Mapped views alias the mapping (valid until destruction); streamed
  /// views alias the refill buffer.
  [[nodiscard]] bool pinned() const override { return mapped(); }

  /// Next packet as a view; nullopt at end of input or on error.
  std::optional<RawPacketView> next() { return reader_.next_view(); }

  /// Appends up to `max` packets to `out` (which is cleared first).
  /// Returns the number appended; 0 means end of input or error.
  std::size_t next_batch(std::vector<RawPacketView>& out, std::size_t max) {
    return reader_.next_batch(out, max);
  }

  /// BatchSource form of next_batch() with the unified end-of-stream /
  /// error split (a file is never Idle): Batch while records remain,
  /// then EndOfStream on a clean end or Error with error() set.
  SourceStatus poll_batch(std::vector<RawPacketView>& out,
                          std::size_t max) override {
    return next_batch(out, max) > 0
               ? SourceStatus::Batch
               : (ok() ? SourceStatus::EndOfStream : SourceStatus::Error);
  }

  [[nodiscard]] std::uint64_t packets_read() const override {
    return reader_.packets_read();
  }

 private:
  MappedFile file_;
  CaptureReader reader_;
};

}  // namespace zpm::net
