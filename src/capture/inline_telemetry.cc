#include "capture/inline_telemetry.h"

#include "net/checksum.h"

namespace zpm::capture {

std::uint8_t dscp_for(zoom::MediaKind kind, bool is_fec) {
  if (is_fec) return 8;  // CS1: repair data is the first to drop
  switch (kind) {
    case zoom::MediaKind::Audio: return 46;        // EF
    case zoom::MediaKind::Video: return 34;        // AF41
    case zoom::MediaKind::ScreenShare: return 18;  // AF21
  }
  return 0;
}

bool annotate_dscp(net::RawPacket& pkt, std::uint8_t dscp) {
  if (pkt.data.size() < 34) return false;
  if (pkt.data[12] != 0x08 || pkt.data[13] != 0x00) return false;  // not IPv4
  if ((pkt.data[14] >> 4) != 4) return false;
  // Byte 15 = DSCP(6) | ECN(2); keep ECN bits.
  pkt.data[15] = static_cast<std::uint8_t>((dscp << 2) | (pkt.data[15] & 0x03));
  // Recompute the IPv4 header checksum.
  std::size_t ihl = (pkt.data[14] & 0x0f) * std::size_t{4};
  if (pkt.data.size() < 14 + ihl) return false;
  pkt.data[24] = 0;
  pkt.data[25] = 0;
  std::uint16_t csum = net::internet_checksum(
      std::span<const std::uint8_t>(pkt.data).subspan(14, ihl));
  pkt.data[24] = static_cast<std::uint8_t>(csum >> 8);
  pkt.data[25] = static_cast<std::uint8_t>(csum);
  return true;
}

std::optional<std::uint8_t> read_dscp(const net::RawPacket& pkt) {
  if (pkt.data.size() < 16) return std::nullopt;
  if (pkt.data[12] != 0x08 || pkt.data[13] != 0x00) return std::nullopt;
  return static_cast<std::uint8_t>(pkt.data[15] >> 2);
}

}  // namespace zpm::capture
