// Capture-file input: one parser per format (classic pcap, pcapng) over
// a byte span with a cursor, and the reader that hands it bytes.
//
// The parser never reads anything itself. Given bytes, it yields a
// packet, the clean end of the capture, an error, or — when the bytes
// stop mid-record and more may follow — "need more", naming how many
// bytes it wants past the cursor. The reader has two byte providers:
//   - a whole in-memory capture (a MappedFile), handed over once with
//     `eof` set, so every short read is a truncation error and every
//     view aliases the mapping for its whole lifetime;
//   - a stream (file, pipe, FIFO, stringstream) behind a refill buffer
//     that grows only to what the parser asks for (at most one record:
//     256 KiB for pcap, 16 MiB for a pcapng block).
// Every validation rule and error string therefore exists once, and
// the mapped and streaming paths agree by construction.
//
// Formats: classic pcap in both byte orders with µs or ns timestamps
// (LINKTYPE_ETHERNET only); pcapng Section Header, Interface
// Description, Enhanced Packet and Simple Packet blocks with
// per-interface timestamp resolution, both byte orders, unknown blocks
// skipped as the spec requires. Packets on non-Ethernet interfaces are
// skipped.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"

namespace zpm::net {

/// The format a parser expects; Sniff decides from the leading magic.
enum class CaptureFormat : std::uint8_t { Sniff, Pcap, PcapNg };

/// Outcome of one parse step.
enum class Parse : std::uint8_t {
  Ok,        ///< the step produced its result (a packet; for start(), the header)
  End,       ///< clean end of the capture
  NeedMore,  ///< the bytes stop mid-record and `eof` is not set; see need()
  Error,     ///< malformed or truncated input; see error()
};

/// The bytes a parser works on: unconsumed input starts at `pos`, and
/// `eof` says no byte follows `bytes`.
struct ByteCursor {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool eof = true;
};

/// Parses pcap records or pcapng blocks at a ByteCursor. Packet views
/// alias the cursor's bytes. A step that returns NeedMore leaves the
/// cursor at the start of the unfinished record or block; the caller
/// retries it once more bytes follow.
class CaptureParser {
 public:
  explicit CaptureParser(CaptureFormat format) : format_(format) {}

  /// Resolves Sniff from the magic and parses the pcap global header.
  /// pcapng is validated at its first block instead.
  Parse start(ByteCursor& in);
  /// The next packet, skipping blocks that carry none.
  Parse next(ByteCursor& in, RawPacketView& out);
  /// Appends packets to `out` until it holds `max`; returns the status
  /// of the step that stopped it (Ok when `max` was reached).
  Parse next_batch(ByteCursor& in, std::vector<RawPacketView>& out,
                   std::size_t max);
  /// Marks the capture failed with `why`; returns Parse::Error.
  Parse fail(std::string why);

  /// After NeedMore: bytes needed past the cursor before parsing can go on.
  [[nodiscard]] std::size_t need() const { return need_; }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// pcap global-header link type (1 = Ethernet); 0 for pcapng.
  [[nodiscard]] std::uint32_t link_type() const { return link_type_; }
  [[nodiscard]] std::uint64_t packets_read() const { return packets_read_; }

 private:
  struct Interface {
    std::uint16_t link_type = 0;
    std::uint64_t ticks_per_second = 1'000'000;
  };

  Parse record(ByteCursor& in, RawPacketView& out);
  Parse block(ByteCursor& in, RawPacketView& out);
  void add_interface(std::span<const std::uint8_t> body);
  Parse need_more(std::size_t need);
  [[nodiscard]] std::uint32_t u32(const std::uint8_t* p) const;
  [[nodiscard]] std::uint16_t u16(const std::uint8_t* p) const;

  CaptureFormat format_;
  bool ok_ = true;
  bool swapped_ = false;     // file byte order != little-endian
  bool nanosecond_ = false;  // pcap 0xa1b23c4d magic
  bool seen_section_ = false;
  std::uint32_t link_type_ = 0;
  std::size_t need_ = 0;
  std::uint64_t packets_read_ = 0;
  std::vector<Interface> interfaces_;  // of the current pcapng section
  std::string error_;
};

/// A CaptureParser plus its byte provider: a whole in-memory capture,
/// or a stream behind a refill buffer. In-memory views stay valid as
/// long as the bytes; stream views stay valid until the next call.
class CaptureReader {
 public:
  /// Parses an in-memory capture (e.g. a mapping that outlives the reader).
  CaptureReader(std::span<const std::uint8_t> bytes, CaptureFormat format);
  /// Streams from `in`, which must outlive the reader.
  CaptureReader(std::istream& in, CaptureFormat format);
  /// Opens and streams a file; check ok() afterwards.
  CaptureReader(const std::string& path, CaptureFormat format);

  /// True if the header parsed and no read error has occurred.
  [[nodiscard]] bool ok() const { return parser_.ok(); }
  /// Human-readable reason for !ok().
  [[nodiscard]] const std::string& error() const { return parser_.error(); }
  [[nodiscard]] std::uint32_t link_type() const { return parser_.link_type(); }
  /// Number of packets returned so far.
  [[nodiscard]] std::uint64_t packets_read() const {
    return parser_.packets_read();
  }

  /// Next packet as a view, or nullopt at end of capture / on error.
  std::optional<RawPacketView> next_view();
  /// Next packet as an owned copy, or nullopt at end / on error.
  std::optional<RawPacket> next();
  /// Copies the next packet into `out`, reusing out.data's capacity.
  /// Returns false at end of capture / on error.
  bool next_into(RawPacket& out);
  /// Replaces `out` with up to `max` packet views; returns how many (0
  /// at end of capture or on error). A stream is refilled only while
  /// the batch is empty, so every view of a batch stays intact until
  /// the next call.
  std::size_t next_batch(std::vector<RawPacketView>& out, std::size_t max);

 private:
  template <typename Step>
  Parse pump(Step step);
  void refill();

  CaptureParser parser_;
  ByteCursor cursor_;
  std::unique_ptr<std::ifstream> file_;
  std::istream* in_ = nullptr;      // null: cursor_ holds the whole capture
  std::vector<std::uint8_t> buf_;  // stream refill buffer
};

/// Opens a capture file of either format, sniffing the magic. Returns
/// nullptr when the file cannot be opened, is neither format, or has a
/// bad pcap global header.
std::unique_ptr<CaptureReader> open_capture(const std::string& path);

}  // namespace zpm::net
