// Classic libpcap file format (magic 0xa1b2c3d4, microsecond timestamps,
// LINKTYPE_ETHERNET), implemented from the format specification so the
// repository has no external capture-library dependency. Reads both byte
// orders and nanosecond captures (parsing lives in capture_file.h);
// writes native-order little-endian files.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "net/capture_file.h"
#include "net/packet.h"

namespace zpm::net {

/// Reads pcap records sequentially from a stream or file. The global
/// header is parsed on construction: check ok() afterwards.
class PcapReader : public CaptureReader {
 public:
  /// Wraps an existing stream (must outlive the reader).
  explicit PcapReader(std::istream& in) : CaptureReader(in, CaptureFormat::Pcap) {}
  /// Opens a file.
  explicit PcapReader(const std::string& path)
      : CaptureReader(path, CaptureFormat::Pcap) {}
};

/// Writes pcap records sequentially to a stream or file.
class PcapWriter {
 public:
  /// Wraps an existing stream (must outlive the writer); writes the
  /// global header immediately.
  explicit PcapWriter(std::ostream& out, std::uint32_t snaplen = 65535);
  /// Opens a file; check ok() afterwards.
  explicit PcapWriter(const std::string& path, std::uint32_t snaplen = 65535);

  [[nodiscard]] bool ok() const;

  /// Appends one record; frames longer than snaplen are truncated with
  /// the original length recorded.
  void write(const RawPacket& pkt);

  [[nodiscard]] std::uint64_t packets_written() const { return packets_written_; }

 private:
  void write_global_header();
  void put_u32(std::uint32_t v);
  void put_u16(std::uint16_t v);

  std::unique_ptr<std::ofstream> file_;
  std::ostream* out_;
  std::uint32_t snaplen_;
  std::uint64_t packets_written_ = 0;
};

}  // namespace zpm::net
