// Fuzz target: capture-file parsing, differential.
//
// Every input runs in both formats through two byte providers of the
// one capture parser: the streaming readers (std::istringstream behind
// the refill buffer) and CaptureReader over the same bytes in memory —
// the path TraceSource takes for a mapped file, batched as TraceSource
// batches it. The two must agree on every packet (bytes, ts, orig_len)
// and on ok()/error(); any difference aborts. The magic check rejects
// the wrong format in O(1), and inputs that mutate one format's magic
// into the other's keep getting coverage. Regressions this family found
// are pinned in tests/test_hostile_inputs.cc (EPB length overflow, huge
// if_tsresol timestamp cast).
#include <cstdint>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "net/pcap.h"
#include "net/pcapng.h"

namespace {

using zpm::net::CaptureFormat;
using zpm::net::CaptureReader;
using zpm::net::RawPacket;
using zpm::net::RawPacketView;

struct Outcome {
  std::vector<RawPacket> packets;
  bool ok = false;
  std::string error;
};

template <typename StreamingReader>
Outcome drain_stream(const std::string& bytes) {
  std::istringstream in(bytes);
  StreamingReader reader(in);
  Outcome o;
  while (auto pkt = reader.next()) o.packets.push_back(std::move(*pkt));
  o.ok = reader.ok();
  o.error = reader.error();
  return o;
}

Outcome drain_span(std::span<const std::uint8_t> bytes, CaptureFormat format) {
  CaptureReader reader(bytes, format);
  Outcome o;
  std::vector<RawPacketView> batch;
  while (reader.next_batch(batch, 7) > 0)
    for (const RawPacketView& v : batch) o.packets.push_back(v.to_owned());
  o.ok = reader.ok();
  o.error = reader.error();
  return o;
}

void expect_same(const Outcome& streamed, const Outcome& spanned) {
  if (streamed.ok != spanned.ok || streamed.error != spanned.error ||
      streamed.packets.size() != spanned.packets.size())
    std::abort();
  for (std::size_t i = 0; i < streamed.packets.size(); ++i) {
    const RawPacket& a = streamed.packets[i];
    const RawPacket& b = spanned.packets[i];
    if (a.ts != b.ts || a.data != b.data || a.orig_len != b.orig_len)
      std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> span(data, size);
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  expect_same(drain_stream<zpm::net::PcapReader>(bytes),
              drain_span(span, CaptureFormat::Pcap));
  expect_same(drain_stream<zpm::net::PcapNgReader>(bytes),
              drain_span(span, CaptureFormat::PcapNg));
  return 0;
}
