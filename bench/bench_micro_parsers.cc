// Engineering microbenchmarks: parser hot paths and the journal
// checksum (google-benchmark).
#include <benchmark/benchmark.h>

#include "net/build.h"
#include "net/packet.h"
#include "proto/rtp.h"
#include "proto/stun.h"
#include "sim/wire.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "zoom/classify.h"

namespace {

using namespace zpm;

std::vector<std::uint8_t> sample_media_payload(bool server) {
  util::Rng rng(1);
  sim::MediaPacketSpec spec;
  spec.encap_type = zoom::MediaEncapType::Video;
  spec.payload_type = zoom::pt::kVideoMain;
  spec.ssrc = 0x42;
  spec.packets_in_frame = 3;
  spec.payload_bytes = 1100;
  auto inner = sim::build_media_payload(spec, rng);
  return server ? sim::wrap_sfu(inner, 7, true) : inner;
}

void BM_DissectServerMedia(benchmark::State& state) {
  auto payload = sample_media_payload(true);
  for (auto _ : state) {
    auto zp = zoom::dissect(payload, zoom::Transport::ServerBased);
    benchmark::DoNotOptimize(zp);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DissectServerMedia);

void BM_DissectP2pMedia(benchmark::State& state) {
  auto payload = sample_media_payload(false);
  for (auto _ : state) {
    auto zp = zoom::dissect(payload, zoom::Transport::P2P);
    benchmark::DoNotOptimize(zp);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DissectP2pMedia);

void BM_RtpParse(benchmark::State& state) {
  proto::RtpHeader h;
  h.payload_type = 98;
  h.sequence = 100;
  h.timestamp = 90000;
  h.ssrc = 0x42;
  util::ByteWriter w;
  h.serialize(w);
  w.fill(1100, 0xab);
  auto bytes = w.take();
  for (auto _ : state) {
    auto parsed = proto::parse_rtp_packet(bytes);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_RtpParse);

void BM_StunParse(benchmark::State& state) {
  std::array<std::uint8_t, 12> txn{};
  util::ByteWriter w;
  proto::make_binding_request(txn).serialize(w);
  auto bytes = w.take();
  for (auto _ : state) {
    auto parsed = proto::StunMessage::parse(bytes);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_StunParse);

void BM_FullFrameDecode(benchmark::State& state) {
  auto payload = sample_media_payload(true);
  auto pkt = net::build_udp(util::Timestamp::from_seconds(1),
                            net::Ipv4Addr(10, 8, 0, 1), 40000,
                            net::Ipv4Addr(170, 114, 0, 10), 8801, payload);
  for (auto _ : state) {
    auto view = net::decode_packet(pkt);
    benchmark::DoNotOptimize(view);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pkt.data.size()));
}
BENCHMARK(BM_FullFrameDecode);

/// One meeting-dense journal record: a 178 KiB slice payload, which
/// every window query checksums before decoding.
std::vector<std::uint8_t> journal_record_bytes() {
  util::Rng rng(178);
  std::vector<std::uint8_t> bytes(178 * 1024);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
  return bytes;
}

template <std::uint32_t (*Crc)(std::span<const std::uint8_t>, std::uint32_t)>
void run_crc32(benchmark::State& state) {
  const auto bytes = journal_record_bytes();
  for (auto _ : state) {
    auto crc = Crc(bytes, 0);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

/// The bytewise loop every kernel must agree with.
void BM_Crc32Reference(benchmark::State& state) {
  run_crc32<util::detail::crc32_reference>(state);
}
BENCHMARK(BM_Crc32Reference);

/// The kernel `util::crc32` dispatches to on this CPU.
void BM_Crc32(benchmark::State& state) { run_crc32<util::crc32>(state); }
BENCHMARK(BM_Crc32);

}  // namespace

BENCHMARK_MAIN();
