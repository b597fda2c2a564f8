// In-network control — the §8 future-work extension's marking half.
//
// The paper observes that its metrics "can be implemented in a
// streaming fashion and are amenable to data-plane implementation",
// with control actions like annotating packets (e.g. DSCP) by type or
// importance. The streaming-metric half lives in capture/offload.h
// (register-array histograms and the per-SSRC tag registers); this
// header is the annotation half.
#pragma once

#include <cstdint>
#include <optional>

#include "net/packet.h"
#include "zoom/constants.h"

namespace zpm::capture {

/// DSCP codepoints for Zoom media classes (EF for audio, AF41 for
/// video, AF21 for screen share, CS1 for FEC — importance-based marking
/// as §8 suggests).
std::uint8_t dscp_for(zoom::MediaKind kind, bool is_fec);

/// Rewrites the DSCP bits of an Ethernet/IPv4 frame in place (fixing the
/// IP checksum). Returns false if the frame is not IPv4.
bool annotate_dscp(net::RawPacket& pkt, std::uint8_t dscp);

/// Reads back the DSCP of a frame (testing / verification).
std::optional<std::uint8_t> read_dscp(const net::RawPacket& pkt);

}  // namespace zpm::capture
