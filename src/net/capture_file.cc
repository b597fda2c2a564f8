#include "net/capture_file.h"

#include <algorithm>
#include <cstring>

#include "net/pcap.h"

namespace zpm::net {

namespace {
constexpr std::uint32_t kPcapMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kPcapMagicMicrosSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kPcapMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kPcapMagicNanosSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
// Sanity cap: no real Ethernet capture record exceeds this.
constexpr std::uint32_t kMaxRecordLength = 256 * 1024;
constexpr std::uint32_t kBlockSectionHeader = 0x0a0d0d0a;  // palindromic
constexpr std::uint32_t kBlockInterface = 0x00000001;
constexpr std::uint32_t kBlockSimplePacket = 0x00000003;
constexpr std::uint32_t kBlockEnhancedPacket = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;
constexpr std::uint32_t kByteOrderMagicSwapped = 0x4d3c2b1a;
constexpr std::uint32_t kMaxBlockLength = 16 * 1024 * 1024;
constexpr std::uint16_t kOptionTsResol = 9;
// A packet cut off by the end of the capture reads the same in every
// format.
constexpr const char* kTruncatedPacket = "truncated packet";
// A stream refill reads at least the parser's need, then tops the
// buffer up to this size with whatever the stream already holds.
constexpr std::size_t kRefillChunk = 64 * 1024;

std::uint32_t u32_le(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// Nanosecond-resolution captures round to the nearest microsecond —
// truncating would bias every timestamp down by up to 1 µs, enough to
// skew jitter and one-way-delay estimates.
util::Timestamp pcap_timestamp(std::uint32_t sec, std::uint32_t frac,
                               bool nanosecond) {
  return util::Timestamp::from_pcap(sec, nanosecond ? (frac + 500) / 1000 : frac);
}

util::Timestamp pcapng_timestamp(std::uint64_t ts, std::uint64_t ticks) {
  if (ticks == 1'000'000)
    return util::Timestamp::from_micros(static_cast<std::int64_t>(ts));
  long double micros = static_cast<long double>(ts) /
                       static_cast<long double>(ticks) * 1'000'000.0L;
  // Clamp before the cast: converting a long double beyond the int64
  // range is undefined behaviour, and a hostile file can pick a coarse
  // if_tsresol plus an all-ones timestamp to trigger exactly that.
  constexpr long double kMaxMicros = 9'000'000'000'000'000'000.0L;
  if (micros > kMaxMicros) micros = kMaxMicros;
  return util::Timestamp::from_micros(static_cast<std::int64_t>(micros));
}
}  // namespace

// ---------------------------------------------------------------------------
// CaptureParser

std::uint32_t CaptureParser::u32(const std::uint8_t* p) const {
  if (swapped_) {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }
  return u32_le(p);
}

std::uint16_t CaptureParser::u16(const std::uint8_t* p) const {
  if (swapped_) return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

Parse CaptureParser::fail(std::string why) {
  ok_ = false;
  error_ = std::move(why);
  return Parse::Error;
}

Parse CaptureParser::need_more(std::size_t need) {
  need_ = need;
  return Parse::NeedMore;
}

Parse CaptureParser::start(ByteCursor& in) {
  const std::size_t left = in.bytes.size() - in.pos;
  if (format_ == CaptureFormat::Sniff) {
    if (left < 4 && !in.eof) return need_more(4);
    const std::uint32_t magic = left < 4 ? 0 : u32_le(&in.bytes[in.pos]);
    if (magic == kBlockSectionHeader) {
      format_ = CaptureFormat::PcapNg;
    } else if (magic == kPcapMagicMicros || magic == kPcapMagicMicrosSwapped ||
               magic == kPcapMagicNanos || magic == kPcapMagicNanosSwapped) {
      format_ = CaptureFormat::Pcap;
    } else {
      return fail("unrecognized capture format");
    }
  }
  if (format_ == CaptureFormat::PcapNg) return Parse::Ok;
  if (left < 24) return in.eof ? fail("truncated global header") : need_more(24);
  const std::uint8_t* hdr = &in.bytes[in.pos];
  // The magic is written in the producer's byte order.
  switch (u32_le(hdr)) {
    case kPcapMagicMicros: swapped_ = false; nanosecond_ = false; break;
    case kPcapMagicNanos: swapped_ = false; nanosecond_ = true; break;
    case kPcapMagicMicrosSwapped: swapped_ = true; nanosecond_ = false; break;
    case kPcapMagicNanosSwapped: swapped_ = true; nanosecond_ = true; break;
    default: return fail("bad pcap magic");
  }
  // Version, thiszone, sigfigs and snaplen are accepted as-is.
  link_type_ = u32(hdr + 20);
  if (link_type_ != kLinkTypeEthernet)
    return fail("unsupported link type " + std::to_string(link_type_));
  in.pos += 24;
  return Parse::Ok;
}

// Always inlined: it is the body of the pcap next_batch() loop, the
// mapped ingest hot path.
[[gnu::always_inline]] inline Parse CaptureParser::record(ByteCursor& in,
                                                          RawPacketView& out) {
  const std::size_t left = in.bytes.size() - in.pos;
  if (left < 16) {
    if (left == 0 && in.eof) return Parse::End;
    return in.eof ? fail("truncated record header") : need_more(16);
  }
  const std::uint8_t* rec = &in.bytes[in.pos];
  const std::uint32_t incl_len = u32(rec + 8);
  if (incl_len > kMaxRecordLength)
    return fail("implausible record length " + std::to_string(incl_len));
  if (left - 16 < incl_len)
    return in.eof ? fail(kTruncatedPacket) : need_more(16 + incl_len);
  // The original wire length makes snaplen truncation visible to
  // downstream health accounting.
  const std::uint32_t orig_len = u32(rec + 12);
  out = RawPacketView{pcap_timestamp(u32(rec), u32(rec + 4), nanosecond_),
                      in.bytes.subspan(in.pos + 16, incl_len),
                      orig_len > incl_len ? orig_len : 0};
  in.pos += 16 + incl_len;
  return Parse::Ok;
}

Parse CaptureParser::next(ByteCursor& in, RawPacketView& out) {
  if (!ok_) return Parse::Error;
  const Parse p =
      format_ == CaptureFormat::Pcap ? record(in, out) : block(in, out);
  if (p == Parse::Ok) ++packets_read_;
  return p;
}

Parse CaptureParser::next_batch(ByteCursor& in, std::vector<RawPacketView>& out,
                                std::size_t max) {
  if (!ok_) return Parse::Error;
  Parse p = Parse::Ok;
  RawPacketView view;
  if (format_ != CaptureFormat::Pcap) {
    while (out.size() < max && (p = next(in, view)) == Parse::Ok)
      out.push_back(view);
    return p;
  }
  // pcap: one tight loop over a local cursor, so the per-packet work is
  // the record parse and a push_back into reserved capacity.
  ByteCursor cur = in;
  std::size_t n = 0;
  while (out.size() < max && (p = record(cur, view)) == Parse::Ok) {
    out.push_back(view);
    ++n;
#if defined(__GNUC__) || defined(__clang__)
    // Record headers sit ~one packet apart — an irregular stride the
    // hardware prefetcher does not follow, and each header load feeds
    // the next cursor position, so the misses form a serialized
    // DRAM-latency chain. Prefetch the next header (exact) plus a
    // ladder of same-stride guesses; media traces repeat sizes often
    // enough that several future headers arrive early and the misses
    // overlap instead of serializing. (Needs resident page tables —
    // see MAP_POPULATE in MappedFile — since prefetches to unmapped
    // pages are dropped.)
    const std::size_t size = cur.bytes.size();
    const std::size_t pos = cur.pos;
    if (size - pos >= 16) {
      __builtin_prefetch(&cur.bytes[pos]);
      const std::size_t stride = 16 + view.data.size();
      for (std::size_t guess = pos + stride;
           guess + 16 <= size && guess < pos + 12 * stride; guess += stride)
        __builtin_prefetch(&cur.bytes[guess]);
    }
#endif
  }
  in.pos = cur.pos;
  packets_read_ += n;
  return p;
}

void CaptureParser::add_interface(std::span<const std::uint8_t> body) {
  Interface iface;
  iface.link_type = u16(&body[0]);
  // body[2..3] reserved, body[4..7] snaplen; options follow.
  std::size_t pos = 8;
  while (pos + 4 <= body.size()) {
    const std::uint16_t code = u16(&body[pos]);
    const std::uint16_t len = u16(&body[pos + 2]);
    pos += 4;
    if (code == 0) break;  // opt_endofopt
    if (pos + len > body.size()) break;
    if (code == kOptionTsResol && len >= 1) {
      const std::uint8_t resol = body[pos];
      // Saturate implausibly fine resolutions: a hostile file can
      // declare 2^127 ticks per second, and shifting a 64-bit value by
      // >= 64 (or overflowing the decimal power) is undefined.
      const unsigned exponent = resol & 0x7fu;
      if (resol & 0x80) {
        iface.ticks_per_second = exponent >= 64 ? ~0ULL : 1ULL << exponent;
      } else {
        iface.ticks_per_second = 1;
        for (unsigned i = 0; i < exponent && i < 19; ++i)
          iface.ticks_per_second *= 10;
      }
      if (iface.ticks_per_second == 0) iface.ticks_per_second = 1'000'000;
    }
    pos += (len + 3u) & ~3u;  // options padded to 32 bits
  }
  interfaces_.push_back(iface);
}

Parse CaptureParser::block(ByteCursor& in, RawPacketView& out) {
  for (;;) {
    const std::size_t left = in.bytes.size() - in.pos;
    if (left == 0 && in.eof) return Parse::End;
    if (left < 8) return in.eof ? fail("truncated block header") : need_more(8);
    const std::uint8_t* header = &in.bytes[in.pos];
    if (u32_le(header) == kBlockSectionHeader) {
      // The byte-order magic after type + length sets the section's
      // byte order, which the length is then read in.
      if (left < 12)
        return in.eof ? fail("truncated section header") : need_more(12);
      const std::uint32_t magic = u32_le(header + 8);
      if (magic != kByteOrderMagic && magic != kByteOrderMagicSwapped)
        return fail("bad pcapng byte-order magic");
      swapped_ = magic == kByteOrderMagicSwapped;
      const std::uint32_t total_len = u32(header + 4);
      if (total_len < 28 || total_len > kMaxBlockLength)
        return fail("implausible section header length");
      // Only the header fields matter, so a section header cut off by
      // the end of the capture is tolerated (the next step then sees a
      // clean end).
      if (left < total_len && !in.eof) return need_more(total_len);
      in.pos += std::min<std::size_t>(total_len, left);
      interfaces_.clear();
      seen_section_ = true;
      continue;
    }
    // Every pcapng stream must open with a section header block.
    if (!seen_section_) return fail("not a pcapng stream");
    const std::uint32_t type = u32(header);
    const std::uint32_t total_len = u32(header + 4);
    if (total_len < 12 || total_len > kMaxBlockLength || total_len % 4 != 0)
      return fail("implausible block length");
    if (left < total_len && !in.eof) return need_more(total_len);
    if (left - 8 < total_len - 12)
      return fail(type == kBlockEnhancedPacket || type == kBlockSimplePacket
                      ? kTruncatedPacket
                      : "truncated block body");
    if (left < total_len || u32(header + total_len - 4) != total_len)
      return fail("block trailer mismatch");
    const std::span<const std::uint8_t> body =
        in.bytes.subspan(in.pos + 8, total_len - 12);
    in.pos += total_len;

    if (type == kBlockInterface) {
      if (body.size() < 8) return fail("short interface description block");
      add_interface(body);
    } else if (type == kBlockEnhancedPacket) {
      if (body.size() < 20) return fail("short enhanced packet block");
      const std::uint32_t iface = u32(&body[0]);
      const std::uint32_t captured = u32(&body[12]);
      const std::uint32_t original = u32(&body[16]);
      // Size-safe form: `20 + captured` would wrap in 32-bit arithmetic
      // for captured lengths near UINT32_MAX, bypassing the check.
      if (captured > body.size() - 20)
        return fail("enhanced packet data exceeds block");
      std::uint64_t ticks = 1'000'000;
      if (iface < interfaces_.size()) {
        if (interfaces_[iface].link_type != kLinkTypeEthernet) continue;
        ticks = interfaces_[iface].ticks_per_second;
      }
      const std::uint64_t ts = (std::uint64_t{u32(&body[4])} << 32) | u32(&body[8]);
      out = RawPacketView{pcapng_timestamp(ts, ticks), body.subspan(20, captured),
                          original > captured ? original : 0};
      return Parse::Ok;
    } else if (type == kBlockSimplePacket) {
      // SPB: original length (4) + data, captured on interface 0;
      // timestamp unavailable.
      if (body.size() < 4) continue;
      if (!interfaces_.empty() && interfaces_[0].link_type != kLinkTypeEthernet)
        continue;
      const std::uint32_t orig = u32(&body[0]);
      const std::uint32_t captured =
          std::min<std::uint32_t>(orig, static_cast<std::uint32_t>(body.size() - 4));
      out = RawPacketView{util::Timestamp::from_micros(0), body.subspan(4, captured),
                          orig > captured ? orig : 0};
      return Parse::Ok;
    }
    // Any other block type is skipped, per spec.
  }
}

// ---------------------------------------------------------------------------
// CaptureReader

CaptureReader::CaptureReader(std::span<const std::uint8_t> bytes,
                             CaptureFormat format)
    : parser_(format), cursor_{bytes, 0, true} {
  parser_.start(cursor_);
}

CaptureReader::CaptureReader(std::istream& in, CaptureFormat format)
    : parser_(format), cursor_{{}, 0, false}, in_(&in) {
  pump([&] { return parser_.start(cursor_); });
}

CaptureReader::CaptureReader(const std::string& path, CaptureFormat format)
    : parser_(format),
      cursor_{{}, 0, false},
      file_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(file_.get()) {
  if (!file_->is_open()) {
    parser_.fail("cannot open " + path);
    return;
  }
  pump([&] { return parser_.start(cursor_); });
}

template <typename Step>
Parse CaptureReader::pump(Step step) {
  Parse p;
  while ((p = step()) == Parse::NeedMore) refill();
  return p;
}

void CaptureReader::refill() {
  // Only ever called with no view outstanding from the current call:
  // moving the unconsumed tail to the front invalidates older views.
  const std::size_t left = cursor_.bytes.size() - cursor_.pos;
  if (cursor_.pos > 0)
    std::memmove(buf_.data(), buf_.data() + cursor_.pos, left);
  const std::size_t need = parser_.need();
  buf_.resize(std::max({buf_.size(), need, kRefillChunk}));
  char* base = reinterpret_cast<char*>(buf_.data());
  // Block for exactly the bytes the parser asked for (a short read is
  // the end of the stream), then take what else is already buffered.
  in_->read(base + left, static_cast<std::streamsize>(need - left));
  std::size_t filled = left + static_cast<std::size_t>(in_->gcount());
  cursor_.eof = filled < need;
  if (!cursor_.eof)
    filled += static_cast<std::size_t>(
        in_->readsome(base + filled, static_cast<std::streamsize>(buf_.size() - filled)));
  cursor_.bytes = std::span<const std::uint8_t>(buf_.data(), filled);
  cursor_.pos = 0;
}

std::optional<RawPacketView> CaptureReader::next_view() {
  RawPacketView view;
  if (pump([&] { return parser_.next(cursor_, view); }) != Parse::Ok)
    return std::nullopt;
  return view;
}

std::optional<RawPacket> CaptureReader::next() {
  auto view = next_view();
  if (!view) return std::nullopt;
  return view->to_owned();
}

bool CaptureReader::next_into(RawPacket& out) {
  auto view = next_view();
  if (!view) return false;
  out.ts = view->ts;
  out.orig_len = view->orig_len;
  out.data.assign(view->data.begin(), view->data.end());
  return true;
}

std::size_t CaptureReader::next_batch(std::vector<RawPacketView>& out,
                                      std::size_t max) {
  out.clear();
  if (max == 0) return 0;
  while (parser_.next_batch(cursor_, out, max) == Parse::NeedMore && out.empty())
    refill();
  return out.size();
}

std::unique_ptr<CaptureReader> open_capture(const std::string& path) {
  auto reader = std::make_unique<CaptureReader>(path, CaptureFormat::Sniff);
  return reader->ok() ? std::move(reader) : nullptr;
}

// ---------------------------------------------------------------------------
// PcapWriter

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(&out), snaplen_(snaplen) {
  write_global_header();
}

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : file_(std::make_unique<std::ofstream>(path, std::ios::binary)),
      out_(file_.get()),
      snaplen_(snaplen) {
  if (file_->is_open()) write_global_header();
}

bool PcapWriter::ok() const { return out_->good(); }

void PcapWriter::put_u32(std::uint32_t v) {
  // Little-endian, matching the kPcapMagicMicros we emit.
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out_->write(b, 4);
}

void PcapWriter::put_u16(std::uint16_t v) {
  char b[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  out_->write(b, 2);
}

void PcapWriter::write_global_header() {
  put_u32(kPcapMagicMicros);
  put_u16(2);   // version major
  put_u16(4);   // version minor
  put_u32(0);   // thiszone
  put_u32(0);   // sigfigs
  put_u32(snaplen_);
  put_u32(kLinkTypeEthernet);
}

void PcapWriter::write(const RawPacket& pkt) {
  // A packet that was already truncated upstream keeps its reported
  // original length; otherwise the captured bytes are the whole packet.
  std::uint32_t orig_len = static_cast<std::uint32_t>(pkt.data.size());
  if (pkt.orig_len > orig_len) orig_len = pkt.orig_len;
  std::uint32_t incl_len = static_cast<std::uint32_t>(pkt.data.size());
  if (incl_len > snaplen_) incl_len = snaplen_;
  put_u32(pkt.ts.pcap_sec());
  put_u32(pkt.ts.pcap_usec());
  put_u32(incl_len);
  put_u32(orig_len);
  out_->write(reinterpret_cast<const char*>(pkt.data.data()), incl_len);
  ++packets_written_;
}

}  // namespace zpm::net
