#include "capture/anonymizer.h"

#include "net/checksum.h"
#include "net/headers.h"
#include "util/bytes.h"

namespace zpm::capture {

bool PrefixPreservingAnonymizer::prf_bit(std::uint32_t prefix, int len) const {
  // SplitMix64-style mix of (key, prefix, len); one output bit.
  std::uint64_t x = key_ ^ (static_cast<std::uint64_t>(prefix) << 8) ^
                    static_cast<std::uint64_t>(static_cast<unsigned>(len)) ^
                    std::uint64_t{0x9e3779b97f4a7c15};
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return (x & 1) != 0;
}

net::Ipv4Addr PrefixPreservingAnonymizer::anonymize(net::Ipv4Addr ip) const {
  std::uint32_t v = ip.value();
  std::uint32_t out = 0;
  // Crypto-PAN construction: bit i of the output flips bit i of the
  // input based on a PRF of the i-bit prefix, preserving shared
  // prefixes exactly.
  for (int i = 0; i < 32; ++i) {
    std::uint32_t prefix = i == 0 ? 0 : (v >> (32 - i));
    std::uint32_t bit = (v >> (31 - i)) & 1;
    std::uint32_t flip = prf_bit(prefix, i) ? 1u : 0u;
    out = (out << 1) | (bit ^ flip);
  }
  return net::Ipv4Addr(out);
}

void PrefixPreservingAnonymizer::anonymize_frame(net::RawPacket& pkt) const {
  // Minimal in-place rewrite: Ethernet (14) + IPv4 src at 26, dst at 30.
  if (pkt.data.size() < 34) return;
  util::ByteReader probe(pkt.data);
  auto eth = net::EthernetHeader::parse(probe);
  if (!eth || eth->ether_type != net::kEtherTypeIpv4) return;
  if ((pkt.data[14] >> 4) != 4) return;

  auto read_u32 = [&](std::size_t off) {
    return (std::uint32_t{pkt.data[off]} << 24) | (std::uint32_t{pkt.data[off + 1]} << 16) |
           (std::uint32_t{pkt.data[off + 2]} << 8) | pkt.data[off + 3];
  };
  auto write_u32 = [&](std::size_t off, std::uint32_t v) {
    pkt.data[off] = static_cast<std::uint8_t>(v >> 24);
    pkt.data[off + 1] = static_cast<std::uint8_t>(v >> 16);
    pkt.data[off + 2] = static_cast<std::uint8_t>(v >> 8);
    pkt.data[off + 3] = static_cast<std::uint8_t>(v);
  };

  write_u32(26, anonymize(net::Ipv4Addr(read_u32(26))).value());
  write_u32(30, anonymize(net::Ipv4Addr(read_u32(30))).value());

  // Recompute the IPv4 header checksum.
  std::size_t ihl = (pkt.data[14] & 0x0f) * std::size_t{4};
  if (pkt.data.size() < 14 + ihl) return;
  pkt.data[24] = 0;
  pkt.data[25] = 0;
  std::uint16_t csum = net::internet_checksum(
      std::span<const std::uint8_t>(pkt.data).subspan(14, ihl));
  pkt.data[24] = static_cast<std::uint8_t>(csum >> 8);
  pkt.data[25] = static_cast<std::uint8_t>(csum);
}

zoom::ServerDb anonymize_server_db(const zoom::ServerDb& servers, std::uint64_t key) {
  const PrefixPreservingAnonymizer anon(key);
  std::vector<net::Ipv4Subnet> mapped;
  mapped.reserve(servers.subnets().size());
  for (const auto& s : servers.subnets())
    mapped.emplace_back(anon.anonymize(s.base()), s.prefix_len());
  return zoom::ServerDb(std::move(mapped));
}

}  // namespace zpm::capture
