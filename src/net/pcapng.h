// pcapng (pcap Next Generation) reader — the format modern tcpdump and
// Wireshark write by default. Parsing lives in capture_file.h; see
// there for the supported blocks. open_capture() sniffs either format.
#pragma once

#include <istream>
#include <string>

#include "net/capture_file.h"
#include "net/pcap.h"

namespace zpm::net {

/// Reads pcapng blocks sequentially from a stream or file. Validated
/// lazily: a stream that is not pcapng fails at the first next().
class PcapNgReader : public CaptureReader {
 public:
  explicit PcapNgReader(std::istream& in)
      : CaptureReader(in, CaptureFormat::PcapNg) {}
  explicit PcapNgReader(const std::string& path)
      : CaptureReader(path, CaptureFormat::PcapNg) {}
};

}  // namespace zpm::net
