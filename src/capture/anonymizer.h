// Prefix-preserving IPv4 anonymization (the ONTAS-style component of
// the capture pipeline, §6.1 / Table 5).
//
// Two addresses sharing a k-bit prefix map to anonymized addresses
// sharing a k-bit prefix, so subnet structure (and therefore campus /
// non-campus distinctions) survives anonymization while real addresses
// do not. Deterministic under a secret key; implemented Crypto-PAN
// style with a keyed PRF per prefix.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/addr.h"
#include "net/packet.h"
#include "zoom/server_db.h"

namespace zpm::capture {

/// See file comment.
class PrefixPreservingAnonymizer {
 public:
  explicit PrefixPreservingAnonymizer(std::uint64_t key) : key_(key) {}

  /// Maps an address; deterministic for a fixed key.
  net::Ipv4Addr anonymize(net::Ipv4Addr ip) const;

  /// Rewrites src/dst of an Ethernet/IPv4 frame in place (recomputing
  /// the IP checksum). Frames that do not parse are left untouched.
  void anonymize_frame(net::RawPacket& pkt) const;

 private:
  /// Keyed PRF bit for a given prefix.
  bool prf_bit(std::uint32_t prefix, int len) const;
  std::uint64_t key_;
};

/// `servers` with every subnet base mapped through the anonymizer keyed
/// `key`: the server list that still matches a capture anonymized with
/// that key (prefix preservation keeps each subnet a subnet).
zoom::ServerDb anonymize_server_db(const zoom::ServerDb& servers, std::uint64_t key);

}  // namespace zpm::capture
