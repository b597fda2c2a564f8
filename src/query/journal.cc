#include "query/journal.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/crc32.h"
#include "util/fsio.h"

namespace zpm::query {

namespace {

constexpr std::uint8_t kHeaderMagic[4] = {'Z', 'P', 'M', 'J'};
constexpr std::uint8_t kRecordMarker[4] = {'Z', 'J', 'R', 'C'};
constexpr std::uint8_t kTrailerMagic[4] = {'Z', 'P', 'M', 'X'};

constexpr std::uint8_t kKindSlice = 1;
constexpr std::uint8_t kKindIndex = 2;

/// marker(4) + kind(1) + payload_len(8) + crc32(4).
constexpr std::size_t kFrameOverhead = 17;
/// index_offset(8) + index_frame_len(8) + crc32(4) + magic(4).
constexpr std::size_t kTrailerLen = 24;

/// Fixed encoded sizes (for can_read() pre-checks on hostile counts).
constexpr std::size_t kHistogramBytes = (capture::kOffloadBuckets + 1) * 8;
constexpr std::size_t kStreamRowBytes =
    16 + 4 + 3 + 8 + 4 + 2 + 16 + 16 + 48 + 8 + 4 + 4 + 3 * kHistogramBytes;
constexpr std::size_t kMeetingRowBytes = 8 + 4 + 4 + 1 + 16 + kHistogramBytes;
constexpr std::size_t kIndexEntryBytes = 8 + 4 + 8 + 8 + 8 + 8 + 8;

void encode_histogram(const capture::OffloadHistogram& h, util::ByteWriter& w) {
  for (const std::uint64_t b : h.buckets) w.u64be(b);
  w.u64be(h.samples);
}

bool decode_histogram(util::ByteReader& r, capture::OffloadHistogram& h) {
  std::uint64_t sum = 0;
  for (auto& b : h.buckets) {
    b = r.u64be();
    sum += b;  // wraparound is fine; the check below compares wrapped
  }
  h.samples = r.u64be();
  // The sample count is redundant with the bucket sum; a mismatch means
  // a corrupt or hand-crafted record.
  return r.ok() && h.samples == sum;
}

void encode_stream_row(const StreamRow& row, util::ByteWriter& w) {
  w.u64be(row.flow.k1);
  w.u64be(row.flow.k2);
  w.u32be(row.ssrc);
  w.u8(row.kind);
  w.u8(row.transport);
  w.u8(row.direction);
  w.u64be(row.meeting_key);
  w.u32be(row.client_ip);
  w.u16be(row.client_port);
  w.u64be(static_cast<std::uint64_t>(row.first_us));
  w.u64be(static_cast<std::uint64_t>(row.last_us));
  w.u64be(row.media_packets);
  w.u64be(row.media_payload_bytes);
  w.u64be(row.received);
  w.u64be(row.unique_packets);
  w.u64be(row.duplicates);
  w.u64be(row.reordered);
  w.u64be(row.gap_packets);
  w.u64be(row.retransmissions);
  w.u64be(row.frames);
  w.u32be(row.seconds);
  w.u32be(row.talk_seconds);
  encode_histogram(row.rtt_us, w);
  encode_histogram(row.jitter_us, w);
  encode_histogram(row.bitrate_kbps, w);
}

bool decode_stream_row(util::ByteReader& r, StreamRow& row) {
  row.flow.k1 = r.u64be();
  row.flow.k2 = r.u64be();
  row.ssrc = r.u32be();
  row.kind = r.u8();
  row.transport = r.u8();
  row.direction = r.u8();
  row.meeting_key = r.u64be();
  row.client_ip = r.u32be();
  row.client_port = r.u16be();
  row.first_us = static_cast<std::int64_t>(r.u64be());
  row.last_us = static_cast<std::int64_t>(r.u64be());
  row.media_packets = r.u64be();
  row.media_payload_bytes = r.u64be();
  row.received = r.u64be();
  row.unique_packets = r.u64be();
  row.duplicates = r.u64be();
  row.reordered = r.u64be();
  row.gap_packets = r.u64be();
  row.retransmissions = r.u64be();
  row.frames = r.u64be();
  row.seconds = r.u32be();
  row.talk_seconds = r.u32be();
  return decode_histogram(r, row.rtt_us) && decode_histogram(r, row.jitter_us) &&
         decode_histogram(r, row.bitrate_kbps) && r.ok();
}

void encode_meeting_row(const MeetingRow& row, util::ByteWriter& w) {
  w.u64be(row.meeting_key);
  w.u32be(row.stream_rows);
  w.u32be(row.participants);
  w.u8(row.saw_p2p);
  w.u64be(static_cast<std::uint64_t>(row.first_us));
  w.u64be(static_cast<std::uint64_t>(row.last_us));
  encode_histogram(row.sfu_rtt_us, w);
}

bool decode_meeting_row(util::ByteReader& r, MeetingRow& row) {
  row.meeting_key = r.u64be();
  row.stream_rows = r.u32be();
  row.participants = r.u32be();
  row.saw_p2p = r.u8();
  row.first_us = static_cast<std::int64_t>(r.u64be());
  row.last_us = static_cast<std::int64_t>(r.u64be());
  return decode_histogram(r, row.sfu_rtt_us) && r.ok();
}

std::uint64_t endpoint_key(std::uint32_t ip, std::uint16_t port) {
  return (static_cast<std::uint64_t>(ip) << 16) | port;
}

std::uint64_t clamp_us(std::int64_t us) {
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

/// Decodes over `out` without clearing it first: `resize` keeps the rows
/// a reused slice already holds and each one is overwritten field by
/// field, so no row is built as a temporary and copied, nor zeroed just
/// to be overwritten. On failure `out` is left partly written.
bool decode_slice_in_place(util::ByteReader& r, EpochSlice& out) {
  out.seq = r.u64be();
  out.shard = r.u32be();
  out.shard_count = r.u32be();
  out.first_packet = r.u64be();
  out.packets = r.u64be();
  out.first_us = static_cast<std::int64_t>(r.u64be());
  out.last_us = static_cast<std::int64_t>(r.u64be());
  if (!r.ok() || out.shard_count == 0 || out.shard >= out.shard_count)
    return false;
  const std::uint32_t report_len = r.u32be();
  if (!r.can_read(report_len)) return false;
  const auto report = r.bytes(report_len);
  out.report.assign(report.begin(), report.end());
  const std::uint32_t n_meetings = r.u32be();
  // The can_read bounds keep a hostile count from sizing the vectors
  // past the payload.
  if (!r.can_read(std::size_t{n_meetings} * kMeetingRowBytes)) return false;
  out.meetings.resize(n_meetings);
  for (MeetingRow& row : out.meetings)
    if (!decode_meeting_row(r, row)) return false;
  const std::uint32_t n_streams = r.u32be();
  if (!r.can_read(std::size_t{n_streams} * kStreamRowBytes)) return false;
  out.streams.resize(n_streams);
  for (StreamRow& row : out.streams)
    if (!decode_stream_row(r, row)) return false;
  return r.ok();
}

}  // namespace

void EpochSlice::clear() {
  report.clear();
  meetings.clear();
  streams.clear();
}

void encode_epoch_slice(const EpochSlice& slice, util::ByteWriter& w) {
  w.u64be(slice.seq);
  w.u32be(slice.shard);
  w.u32be(slice.shard_count);
  w.u64be(slice.first_packet);
  w.u64be(slice.packets);
  w.u64be(static_cast<std::uint64_t>(slice.first_us));
  w.u64be(static_cast<std::uint64_t>(slice.last_us));
  w.u32be(static_cast<std::uint32_t>(slice.report.size()));
  w.bytes(slice.report);
  w.u32be(static_cast<std::uint32_t>(slice.meetings.size()));
  for (const auto& m : slice.meetings) encode_meeting_row(m, w);
  w.u32be(static_cast<std::uint32_t>(slice.streams.size()));
  for (const auto& s : slice.streams) encode_stream_row(s, w);
}

bool decode_epoch_slice(util::ByteReader& r, EpochSlice& out) {
  if (decode_slice_in_place(r, out)) return true;
  out.clear();  // never leave a half-decoded slice behind
  return false;
}

// ---------------------------------------------------------------------------
// Slice building

void build_epoch_slices(const SliceSource& src, EpochSliceSet& out) {
  const std::uint32_t shards = src.shard_count > 0 ? src.shard_count : 1;
  out.resize(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    out[i].clear();
    out[i].seq = src.seq;
    out[i].shard = i;
    out[i].shard_count = shards;
    out[i].first_packet = src.first_packet;
    out[i].packets = src.packets;
    out[i].first_us = src.first_us;
    out[i].last_us = src.last_us;
  }
  out[0].report.assign(src.report.begin(), src.report.end());

  // Stable meeting keys: min client endpoint over each root meeting's
  // streams. Min is commutative, so the key is independent of stream
  // creation order, shard count, and how a trace was split into sites.
  std::unordered_map<std::uint32_t, std::uint64_t> keys;
  for (const core::StreamInfo* s : src.streams) {
    const std::uint32_t root = src.grouper->resolve(s->meeting_id);
    const std::uint64_t ek = endpoint_key(s->client_ip.value(), s->client_port);
    auto [it, fresh] = keys.try_emplace(root, ek);
    if (!fresh && ek < it->second) it->second = ek;
  }

  for (const core::Meeting* m : src.grouper->meetings()) {
    MeetingRow row;
    const auto it = keys.find(m->id);
    row.meeting_key =
        it != keys.end()
            ? it->second
            : (m->client_ips.empty()
                   ? 0
                   : static_cast<std::uint64_t>(*m->client_ips.begin()) << 16);
    row.stream_rows = static_cast<std::uint32_t>(m->stream_count);
    row.participants = static_cast<std::uint32_t>(m->active_participants());
    row.saw_p2p = m->saw_p2p ? 1 : 0;
    row.first_us = m->first_seen.us();
    row.last_us = m->last_seen.us();
    for (const auto& sample : m->rtt_to_sfu)
      row.sfu_rtt_us.add(clamp_us(sample.rtt.us()));
    const std::size_t shard =
        net::canonical_flow_hash(row.meeting_key, 0) % shards;
    out[shard].meetings.push_back(row);
  }

  for (const core::StreamInfo* s : src.streams) {
    if (!s->metrics) continue;
    const metrics::StreamMetrics& sm = *s->metrics;
    StreamRow row;
    row.flow = net::PackedFlowKey(s->key.flow);
    row.ssrc = s->key.ssrc;
    row.kind = static_cast<std::uint8_t>(s->kind);
    row.transport = static_cast<std::uint8_t>(s->transport);
    row.direction = static_cast<std::uint8_t>(s->direction);
    const std::uint32_t root = src.grouper->resolve(s->meeting_id);
    const auto it = keys.find(root);
    row.meeting_key = it != keys.end() ? it->second : 0;
    row.client_ip = s->client_ip.value();
    row.client_port = s->client_port;
    row.first_us = s->first_seen.us();
    row.last_us = s->last_seen.us();
    row.media_packets = sm.media_packets();
    row.media_payload_bytes = sm.media_payload_bytes();
    const metrics::LossCounters loss = sm.total_loss();
    row.received = loss.received;
    row.unique_packets = loss.unique;
    row.duplicates = loss.duplicates;
    row.reordered = loss.reordered;
    row.gap_packets = loss.gap_packets;
    row.retransmissions = loss.suspected_retransmissions;
    row.seconds = static_cast<std::uint32_t>(sm.seconds().size());
    row.talk_seconds = static_cast<std::uint32_t>(sm.talk_seconds());
    for (const auto& sec : sm.seconds()) {
      row.frames += sec.frames_completed;
      if (sec.jitter_ms)
        row.jitter_us.add(
            static_cast<std::uint64_t>(std::llround(
                std::max(0.0, *sec.jitter_ms) * 1000.0)));
      row.bitrate_kbps.add(sec.media_bytes * 8 / 1000);
    }
    for (const auto& sample : sm.rtt_samples())
      row.rtt_us.add(clamp_us(sample.rtt.us()));
    const std::size_t shard = net::canonical_flow_hash(row.flow) % shards;
    out[shard].streams.push_back(row);
  }
}

// ---------------------------------------------------------------------------
// JournalWriter

JournalWriter::~JournalWriter() { abandon(); }

bool JournalWriter::open(const std::string& path, const std::string& site,
                         std::uint32_t shard_count, std::string* error) {
  abandon();
  if (site.size() > 255) {
    if (error != nullptr) *error = "site name longer than 255 bytes";
    return false;
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr)
      *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  path_ = path;
  write_offset_ = 0;
  index_.clear();
  meeting_refs_.clear();
  epochs_ = 0;
  any_epoch_ = false;
  first_us_ = 0;
  last_us_ = 0;

  util::ByteWriter w(16 + site.size());
  w.bytes(std::span<const std::uint8_t>(kHeaderMagic, 4));
  w.u32be(kJournalVersion);
  w.u8(static_cast<std::uint8_t>(site.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(site.data()), site.size()));
  w.u32be(shard_count > 0 ? shard_count : 1);
  const auto header = w.view();
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fflush(file_) != 0) {
    if (error != nullptr) *error = "cannot write header to " + path;
    abandon();
    return false;
  }
  write_offset_ = header.size();
  return true;
}

bool JournalWriter::append(const EpochSlice& slice, std::string* error) {
  if (file_ == nullptr) {
    if (error != nullptr) *error = "journal not open";
    return false;
  }
  util::ByteWriter payload(1024);
  encode_epoch_slice(slice, payload);
  util::ByteWriter frame(payload.size() + kFrameOverhead);
  frame.bytes(std::span<const std::uint8_t>(kRecordMarker, 4));
  frame.u8(kKindSlice);
  frame.u64be(payload.size());
  frame.u32be(util::crc32(payload.view()));
  frame.bytes(payload.view());
  const auto bytes = frame.view();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0) {
    if (error != nullptr)
      *error = "cannot append to " + path_ + ": " + std::strerror(errno);
    return false;
  }

  JournalRecordInfo info;
  info.seq = slice.seq;
  info.shard = slice.shard;
  info.offset = write_offset_;
  info.frame_len = bytes.size();
  info.first_us = slice.first_us;
  info.last_us = slice.last_us;
  info.packets = slice.packets;
  const auto record_idx = static_cast<std::uint32_t>(index_.size());
  index_.push_back(info);
  for (const auto& m : slice.meetings)
    meeting_refs_.emplace_back(m.meeting_key, record_idx);
  for (const auto& s : slice.streams) {
    // Dictionary covers meetings wherever their rows landed: a query
    // filtered to one meeting must also find the shard records holding
    // only that meeting's *stream* rows.
    if (meeting_refs_.empty() || meeting_refs_.back() !=
                                     std::pair<std::uint64_t, std::uint32_t>{
                                         s.meeting_key, record_idx})
      meeting_refs_.emplace_back(s.meeting_key, record_idx);
  }
  if (!any_epoch_ || slice.seq != last_epoch_seq_) {
    ++epochs_;
    last_epoch_seq_ = slice.seq;
    any_epoch_ = true;
  }
  if (index_.size() == 1) {
    first_us_ = slice.first_us;
    last_us_ = slice.last_us;
  } else {
    first_us_ = std::min(first_us_, slice.first_us);
    last_us_ = std::max(last_us_, slice.last_us);
  }
  write_offset_ += bytes.size();
  return true;
}

bool JournalWriter::finalize(std::string* error) {
  if (file_ == nullptr) {
    if (error != nullptr) *error = "journal not open";
    return false;
  }
  util::ByteWriter payload(64 + index_.size() * kIndexEntryBytes);
  payload.u32be(static_cast<std::uint32_t>(index_.size()));
  for (const auto& info : index_) {
    payload.u64be(info.seq);
    payload.u32be(info.shard);
    payload.u64be(info.offset);
    payload.u64be(info.frame_len);
    payload.u64be(static_cast<std::uint64_t>(info.first_us));
    payload.u64be(static_cast<std::uint64_t>(info.last_us));
    payload.u64be(info.packets);
  }
  std::sort(meeting_refs_.begin(), meeting_refs_.end());
  meeting_refs_.erase(
      std::unique(meeting_refs_.begin(), meeting_refs_.end()),
      meeting_refs_.end());
  std::uint32_t distinct = 0;
  for (std::size_t i = 0; i < meeting_refs_.size();) {
    std::size_t j = i;
    while (j < meeting_refs_.size() &&
           meeting_refs_[j].first == meeting_refs_[i].first)
      ++j;
    ++distinct;
    i = j;
  }
  payload.u32be(distinct);
  for (std::size_t i = 0; i < meeting_refs_.size();) {
    std::size_t j = i;
    while (j < meeting_refs_.size() &&
           meeting_refs_[j].first == meeting_refs_[i].first)
      ++j;
    payload.u64be(meeting_refs_[i].first);
    payload.u32be(static_cast<std::uint32_t>(j - i));
    for (std::size_t k = i; k < j; ++k) payload.u32be(meeting_refs_[k].second);
    i = j;
  }

  util::ByteWriter frame(payload.size() + kFrameOverhead + kTrailerLen);
  frame.bytes(std::span<const std::uint8_t>(kRecordMarker, 4));
  frame.u8(kKindIndex);
  frame.u64be(payload.size());
  frame.u32be(util::crc32(payload.view()));
  frame.bytes(payload.view());
  const std::uint64_t index_offset = write_offset_;
  const std::uint64_t index_frame_len = frame.size();
  // Trailer: fixed length at EOF, self-checksummed, so a reader probes
  // it without knowing anything else about the file.
  util::ByteWriter seek(16);
  seek.u64be(index_offset);
  seek.u64be(index_frame_len);
  frame.bytes(seek.view());
  frame.u32be(util::crc32(seek.view()));
  frame.bytes(std::span<const std::uint8_t>(kTrailerMagic, 4));

  const auto bytes = frame.view();
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file_) == bytes.size();
  ok = std::fflush(file_) == 0 && ok;
#if defined(__unix__) || defined(__APPLE__)
  if (ok) ok = ::fsync(fileno(file_)) == 0;
#endif
  ok = std::fclose(file_) == 0 && ok;
  file_ = nullptr;
  if (!ok && error != nullptr)
    *error = "cannot finalize " + path_ + ": " + std::strerror(errno);
  return ok;
}

void JournalWriter::abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// JournalReader

bool JournalReader::open(const std::string& path, std::string* error) {
  map_ = net::MappedFile::open(path, net::ReadPattern::Sparse);
  if (!map_.valid()) {
    if (error != nullptr) *error = "cannot map " + path;
    return false;
  }
  bytes_ = map_.bytes();
  return parse(error);
}

bool JournalReader::open_bytes(std::span<const std::uint8_t> bytes,
                               std::string* error) {
  map_ = net::MappedFile();
  bytes_ = bytes;
  return parse(error);
}

bool JournalReader::parse(std::string* error) {
  records_.clear();
  dict_.clear();
  dict_refs_.clear();
  stats_ = JournalScanStats{};
  site_.clear();
  shard_count_ = 1;

  util::ByteReader r(bytes_);
  const auto magic = r.bytes(4);
  if (magic.size() != 4 || std::memcmp(magic.data(), kHeaderMagic, 4) != 0) {
    if (error != nullptr) *error = "not a metric journal (bad magic)";
    return false;
  }
  if (r.u32be() != kJournalVersion) {
    if (error != nullptr) *error = "unsupported journal version";
    return false;
  }
  const std::uint8_t site_len = r.u8();
  const auto site = r.bytes(site_len);
  site_.assign(site.begin(), site.end());
  shard_count_ = r.u32be();
  if (!r.ok() || shard_count_ == 0) {
    if (error != nullptr) *error = "truncated journal header";
    return false;
  }
  body_begin_ = r.position();

  if (!try_index()) scan();
  return true;
}

bool JournalReader::try_index() {
  if (bytes_.size() < body_begin_ + kTrailerLen) return false;
  util::ByteReader t(bytes_.subspan(bytes_.size() - kTrailerLen));
  const std::uint64_t index_offset = t.u64be();
  const std::uint64_t index_frame_len = t.u64be();
  const std::uint32_t seek_crc = t.u32be();
  const auto magic = t.bytes(4);
  if (magic.size() != 4 || std::memcmp(magic.data(), kTrailerMagic, 4) != 0)
    return false;
  if (util::crc32(bytes_.subspan(bytes_.size() - kTrailerLen, 16)) != seek_crc)
    return false;
  // Subtraction-only bounds math: `index_offset + index_frame_len` can
  // wrap u64 for a hostile trailer (the seek CRC covers whatever the
  // attacker wrote), so never form that sum. body_end >= body_begin_ is
  // guaranteed by the size probe above.
  const std::uint64_t body_end = bytes_.size() - kTrailerLen;
  if (index_frame_len < kFrameOverhead ||
      index_frame_len > body_end - body_begin_ ||
      index_offset != body_end - index_frame_len)
    return false;

  util::ByteReader f(bytes_.subspan(index_offset, index_frame_len));
  const auto marker = f.bytes(4);
  if (marker.size() != 4 || std::memcmp(marker.data(), kRecordMarker, 4) != 0)
    return false;
  if (f.u8() != kKindIndex) return false;
  const std::uint64_t payload_len = f.u64be();
  const std::uint32_t crc = f.u32be();
  if (!f.ok() || payload_len != index_frame_len - kFrameOverhead) return false;
  const auto payload = f.rest();
  if (util::crc32(payload) != crc) return false;

  util::ByteReader p(payload);
  const std::uint32_t record_count = p.u32be();
  if (!p.can_read(std::size_t{record_count} * kIndexEntryBytes)) return false;
  records_.reserve(record_count);
  for (std::uint32_t i = 0; i < record_count; ++i) {
    JournalRecordInfo info;
    info.seq = p.u64be();
    info.shard = p.u32be();
    info.offset = p.u64be();
    info.frame_len = p.u64be();
    info.first_us = static_cast<std::int64_t>(p.u64be());
    info.last_us = static_cast<std::int64_t>(p.u64be());
    info.packets = p.u64be();
    // The index is trusted for *seeking*, so every claim in it is
    // validated here: offsets inside the body, spans ordered, time
    // monotone (what binary search relies on). `offset + frame_len`
    // can wrap u64, so the containment check is subtraction-based.
    if (info.offset < body_begin_ || info.frame_len < kFrameOverhead ||
        info.frame_len > index_offset ||
        info.offset > index_offset - info.frame_len ||
        info.first_us > info.last_us)
      return false;
    if (!records_.empty() && (info.first_us < records_.back().first_us ||
                              info.last_us < records_.back().last_us))
      return false;
    records_.push_back(info);
  }
  const std::uint32_t distinct = p.u32be();
  if (!p.can_read(std::size_t{distinct} * 12)) return false;
  for (std::uint32_t i = 0; i < distinct; ++i) {
    DictEntry entry;
    entry.key = p.u64be();
    const std::uint32_t count = p.u32be();
    if (!p.can_read(std::size_t{count} * 4)) return false;
    if (!dict_.empty() && entry.key <= dict_.back().key) return false;
    entry.begin = static_cast<std::uint32_t>(dict_refs_.size());
    entry.count = count;
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t idx = p.u32be();
      if (idx >= records_.size()) return false;
      dict_refs_.push_back(idx);
    }
    dict_.push_back(entry);
  }
  if (!p.ok() || p.remaining() != 0) return false;
  stats_.used_index = true;
  return true;
}

void JournalReader::scan() {
  records_.clear();
  dict_.clear();
  dict_refs_.clear();
  stats_ = JournalScanStats{};

  std::size_t pos = body_begin_;
  bool in_garbage = false;
  while (pos < bytes_.size()) {
    if (bytes_.size() - pos < kFrameOverhead ||
        std::memcmp(bytes_.data() + pos, kRecordMarker, 4) != 0) {
      // Resync: slide forward byte by byte until the next marker. One
      // garbage run counts as one corrupt record however long it is.
      if (!in_garbage) {
        ++stats_.corrupt_records;
        in_garbage = true;
      }
      ++stats_.skipped_bytes;
      ++pos;
      continue;
    }
    util::ByteReader f(bytes_.subspan(pos));
    f.skip(4);
    const std::uint8_t kind = f.u8();
    const std::uint64_t payload_len = f.u64be();
    const std::uint32_t crc = f.u32be();
    if (payload_len > bytes_.size() - pos - kFrameOverhead) {
      // Length runs past EOF: either a torn tail or a corrupt length
      // field. Either way resync from the next byte.
      if (!in_garbage) {
        ++stats_.corrupt_records;
        in_garbage = true;
      }
      ++stats_.skipped_bytes;
      ++pos;
      continue;
    }
    const auto payload = bytes_.subspan(pos + kFrameOverhead, payload_len);
    if (util::crc32(payload) != crc) {
      if (!in_garbage) {
        ++stats_.corrupt_records;
        in_garbage = true;
      }
      ++stats_.skipped_bytes;
      ++pos;
      continue;
    }
    in_garbage = false;
    if (kind == kKindSlice && payload_len >= 48) {
      util::ByteReader p(payload);
      JournalRecordInfo info;
      info.seq = p.u64be();
      info.shard = p.u32be();
      p.skip(4);  // shard_count
      p.skip(8);  // first_packet
      info.packets = p.u64be();
      info.first_us = static_cast<std::int64_t>(p.u64be());
      info.last_us = static_cast<std::int64_t>(p.u64be());
      info.offset = pos;
      info.frame_len = kFrameOverhead + payload_len;
      records_.push_back(info);
    }
    // kKindIndex frames mid-scan are ignored (the trailer probe already
    // rejected them); unknown kinds are skipped silently — the frame
    // checksummed clean, so this is a future format, not corruption.
    pos += kFrameOverhead + payload_len;
  }
  // A hostile or spliced file can present out-of-order records; sorting
  // restores the select() contract (stable: ties keep append order).
  std::stable_sort(records_.begin(), records_.end(),
                   [](const JournalRecordInfo& a, const JournalRecordInfo& b) {
                     if (a.first_us != b.first_us) return a.first_us < b.first_us;
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.shard < b.shard;
                   });
}

std::pair<std::size_t, std::size_t> JournalReader::select(
    std::int64_t from_us, std::int64_t to_us) const {
  if (records_.empty() || from_us > to_us) return {0, 0};
  // End: first record starting after the window. first_us is
  // nondecreasing in both index and (sorted) scan mode.
  const auto end_it = std::upper_bound(
      records_.begin(), records_.end(), to_us,
      [](std::int64_t to, const JournalRecordInfo& r) { return to < r.first_us; });
  std::size_t begin;
  if (stats_.used_index) {
    // last_us is validated nondecreasing in index mode, so the begin
    // edge binary-searches too: O(log n) total.
    const auto begin_it = std::lower_bound(
        records_.begin(), records_.end(), from_us,
        [](const JournalRecordInfo& r, std::int64_t from) {
          return r.last_us < from;
        });
    begin = static_cast<std::size_t>(begin_it - records_.begin());
  } else {
    begin = 0;
    while (begin < records_.size() && records_[begin].last_us < from_us) ++begin;
  }
  const auto end = static_cast<std::size_t>(end_it - records_.begin());
  return begin < end ? std::pair<std::size_t, std::size_t>{begin, end}
                     : std::pair<std::size_t, std::size_t>{0, 0};
}

bool JournalReader::read(std::size_t i, EpochSlice& out) const {
  if (i >= records_.size()) return false;
  const JournalRecordInfo& info = records_[i];
  // Wrap-proof containment check (mirrors try_index's validation).
  if (info.frame_len > bytes_.size() ||
      info.offset > bytes_.size() - info.frame_len)
    return false;
  util::ByteReader f(bytes_.subspan(info.offset, info.frame_len));
  const auto marker = f.bytes(4);
  if (marker.size() != 4 || std::memcmp(marker.data(), kRecordMarker, 4) != 0)
    return false;
  if (f.u8() != kKindSlice) return false;
  const std::uint64_t payload_len = f.u64be();
  const std::uint32_t crc = f.u32be();
  if (!f.ok() || payload_len != info.frame_len - kFrameOverhead) return false;
  const auto payload = f.rest();
  if (util::crc32(payload) != crc) return false;
  util::ByteReader p(payload);
  if (!decode_epoch_slice(p, out) || p.remaining() != 0) return false;
  // A CRC-valid record whose identity disagrees with the (CRC-valid)
  // index entry means one of the two lies; treat it as corrupt rather
  // than answer window queries from inconsistent spans.
  return out.seq == info.seq && out.shard == info.shard &&
         out.first_us == info.first_us && out.last_us == info.last_us &&
         out.packets == info.packets;
}

std::span<const std::uint32_t> JournalReader::records_for_meeting(
    std::uint64_t meeting_key) const {
  const auto it = std::lower_bound(
      dict_.begin(), dict_.end(), meeting_key,
      [](const DictEntry& e, std::uint64_t key) { return e.key < key; });
  if (it == dict_.end() || it->key != meeting_key) return {};
  return {dict_refs_.data() + it->begin, it->count};
}

// ---------------------------------------------------------------------------
// MANIFEST

namespace {

constexpr std::string_view kManifestHeader = "zpm-manifest v1";

}  // namespace

std::string format_manifest(const Manifest& manifest) {
  std::string out(kManifestHeader);
  out += '\n';
  // Variable-length fields (path, site) append via std::string — a
  // fixed buffer would silently truncate long sites and merge the next
  // line into this one, breaking the format/parse fixpoint.
  char buf[160];
  for (const auto& e : manifest.entries) {
    out += "journal ";
    out += e.path;
    out += " site=";
    out += e.site;
    std::snprintf(buf, sizeof(buf),
                  " first_us=%lld last_us=%lld epochs=%llu records=%llu\n",
                  static_cast<long long>(e.first_us),
                  static_cast<long long>(e.last_us),
                  static_cast<unsigned long long>(e.epochs),
                  static_cast<unsigned long long>(e.records));
    out += buf;
  }
  return out;
}

bool parse_manifest(std::string_view text, Manifest& out) {
  out.entries.clear();
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!saw_header) {
      if (line != kManifestHeader) return false;
      saw_header = true;
      continue;
    }
    if (!line.starts_with("journal ")) continue;  // forward compatibility
    // NUL bytes cannot survive the formatter's %s; a line carrying one
    // is not something save_manifest() wrote — drop it.
    if (line.find('\0') != std::string_view::npos) continue;
    line.remove_prefix(8);
    const std::size_t sp = line.find(' ');
    ManifestEntry entry;
    entry.path = std::string(line.substr(0, sp));
    if (entry.path.empty()) continue;
    std::string_view rest = sp == std::string_view::npos ? std::string_view{}
                                                         : line.substr(sp + 1);
    while (!rest.empty()) {
      std::size_t next = rest.find(' ');
      const std::string_view tok = rest.substr(0, next);
      rest = next == std::string_view::npos ? std::string_view{}
                                            : rest.substr(next + 1);
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string_view key = tok.substr(0, eq);
      const std::string value(tok.substr(eq + 1));
      if (key == "site") {
        entry.site = value;
      } else if (key == "first_us") {
        entry.first_us = std::strtoll(value.c_str(), nullptr, 10);
      } else if (key == "last_us") {
        entry.last_us = std::strtoll(value.c_str(), nullptr, 10);
      } else if (key == "epochs") {
        entry.epochs = std::strtoull(value.c_str(), nullptr, 10);
      } else if (key == "records") {
        entry.records = std::strtoull(value.c_str(), nullptr, 10);
      }
    }
    // Duplicate paths: last writer wins (a restarted daemon re-lists
    // its live journal every rotation).
    bool replaced = false;
    for (auto& existing : out.entries) {
      if (existing.path == entry.path) {
        existing = entry;
        replaced = true;
        break;
      }
    }
    if (!replaced) out.entries.push_back(std::move(entry));
  }
  return saw_header;
}

bool load_manifest(const std::string& dir, Manifest& out, std::string* error) {
  std::vector<std::uint8_t> bytes;
  bool missing = false;
  const std::string path = dir + "/MANIFEST";
  if (!util::read_file_all(path, bytes, missing)) {
    if (error != nullptr)
      *error = missing ? path + ": missing" : "cannot read " + path;
    return false;
  }
  if (!parse_manifest(
          std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()),
          out)) {
    if (error != nullptr) *error = path + ": failed validation";
    return false;
  }
  return true;
}

bool save_manifest(const Manifest& manifest, const std::string& dir,
                   std::string* error) {
  const std::string text = format_manifest(manifest);
  return util::write_file_atomic(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
      dir + "/MANIFEST", error);
}

}  // namespace zpm::query
