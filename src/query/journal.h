// Append-only indexed metric journals — the CoMo-style export half of
// the query/export split (DESIGN.md "Query/export architecture").
//
// The epoch pipeline's durable output so far was one monolithic report
// per epoch; answering "what was media RTT for meetings on this site
// between t1 and t2" meant recomputing everything. A *metric journal*
// is the continuous alternative: the daemon appends one compact,
// length-prefixed, CRC32-framed record per (epoch × shard) — per-stream
// and per-meeting metric aggregates with bucketed RTT/jitter/bitrate
// histograms, loss/frame counters, and (on shard 0) the full encoded
// epoch report with its health ledger — and seals the file with a
// footer index (per-record time spans and offsets plus a meeting-key
// dictionary) so a reader can binary-search straight to the records
// overlapping a time window without parsing anything else.
//
// Merge model: every histogram is a capture::OffloadHistogram — 16
// power-of-two buckets, P4TG-style — and every counter is additive, so
// records merge exactly and commutatively across epochs, shards and
// sites. Meetings are keyed by a *content-derived* stable key (the
// minimum client endpoint over the meeting's streams), never by the
// grouper's assignment-order ids, so the same meeting aggregates to the
// same key no matter how a trace was split across sites or shards.
//
// Crash posture: records are flushed as they are appended; the index
// and trailer are written only at graceful drain. A journal that lost
// its index (kill -9) is still fully readable — the reader falls back
// to a sequential scan that resynchronizes on the record marker,
// skipping and *accounting* corrupt bytes, never aborting. A torn tail
// (power loss mid-append) is detected by the per-record CRC and
// reported the same way.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "capture/offload.h"
#include "core/meetings.h"
#include "core/streams.h"
#include "net/five_tuple.h"
#include "net/mapped_file.h"
#include "util/bytes.h"

namespace zpm::query {

inline constexpr std::uint32_t kJournalVersion = 1;

/// Per-stream aggregate row: one tracked media stream's contribution to
/// one epoch. Everything is additive except the identity fields and the
/// time extent (which merge by min/max).
struct StreamRow {
  net::PackedFlowKey flow;  ///< wire 5-tuple as observed
  std::uint32_t ssrc = 0;
  std::uint8_t kind = 0;       ///< zoom::MediaKind
  std::uint8_t transport = 0;  ///< zoom::Transport
  std::uint8_t direction = 0;  ///< core::StreamDirection
  /// Stable content-derived meeting key: min (client_ip << 16 | port)
  /// over the owning meeting's streams this epoch. Identical across
  /// shard counts and across per-site vs merged runs.
  std::uint64_t meeting_key = 0;
  std::uint32_t client_ip = 0;
  std::uint16_t client_port = 0;
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  std::uint64_t media_packets = 0;
  std::uint64_t media_payload_bytes = 0;
  // Loss ledger (metrics::LossCounters over all sub-streams).
  std::uint64_t received = 0;
  std::uint64_t unique_packets = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t gap_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t frames = 0;     ///< completed frames (per-second sums)
  std::uint32_t seconds = 0;    ///< per-second records emitted
  std::uint32_t talk_seconds = 0;
  capture::OffloadHistogram rtt_us;       ///< injected RTT samples, µs
  capture::OffloadHistogram jitter_us;    ///< per-second jitter values, µs
  capture::OffloadHistogram bitrate_kbps; ///< per-second media bitrate, kbit/s

  bool operator==(const StreamRow&) const = default;
};

/// Per-meeting aggregate row: one grouped meeting's contribution to one
/// epoch. A meeting appears in exactly one shard record per epoch (the
/// shard owning hash(meeting_key)).
struct MeetingRow {
  std::uint64_t meeting_key = 0;
  std::uint32_t stream_rows = 0;   ///< wire streams assigned this epoch
  std::uint32_t participants = 0;  ///< distinct sending client IPs (lower bound)
  std::uint8_t saw_p2p = 0;
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  capture::OffloadHistogram sfu_rtt_us;  ///< §5.3 method-1 samples, µs

  bool operator==(const MeetingRow&) const = default;
};

/// One journal record: epoch seq × shard. Stream rows are partitioned
/// by canonical flow hash, meeting rows by meeting-key hash; shard 0
/// additionally carries the full encoded EpochReport (health ledger,
/// counters, offload registers), so the journal subsumes the per-epoch
/// report files.
struct EpochSlice {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t first_packet = 0;
  std::uint64_t packets = 0;
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  std::vector<std::uint8_t> report;  ///< encoded EpochReport; shard 0 only
  std::vector<MeetingRow> meetings;
  std::vector<StreamRow> streams;

  bool operator==(const EpochSlice&) const = default;
  /// Empties the rows but keeps their capacity (decode-into reuse).
  void clear();
};

/// All of one epoch's slices, shard 0 first (what EpochEngine emits per
/// completed epoch when journal collection is on).
using EpochSliceSet = std::vector<EpochSlice>;

/// Deterministic big-endian record payload codec. Equal slices encode
/// to equal bytes; decode overwrites `out`'s rows in place (reusing
/// their capacity), leaves no rows behind on failure, and is fully
/// bounds-checked (fuzz_query fixpoint target).
void encode_epoch_slice(const EpochSlice& slice, util::ByteWriter& w);
bool decode_epoch_slice(util::ByteReader& r, EpochSlice& out);

/// Analyzer state a completed (not yet rotated) epoch exposes to the
/// slice builder.
struct SliceSource {
  std::uint64_t seq = 0;
  std::uint64_t first_packet = 0;
  std::uint64_t packets = 0;
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  std::uint32_t shard_count = 1;
  /// All streams in global creation order (serial order; the parallel
  /// pipeline's replay-merge already restores it).
  std::span<const core::StreamInfo* const> streams;
  const core::MeetingGrouper* grouper = nullptr;
  /// Encoded EpochReport (the durable form; shard 0 carries it).
  std::span<const std::uint8_t> report;
};

/// Builds `shard_count` slices from one epoch's analyzer state. Row
/// contents are shard-count-invariant; only the partition differs, so
/// any query aggregation that sums across shards is bit-identical
/// between serial and sharded producers.
void build_epoch_slices(const SliceSource& src, EpochSliceSet& out);

// ---------------------------------------------------------------------------
// Journal files

/// Index entry for one record: everything a reader needs to decide
/// overlap and seek, without touching the payload.
struct JournalRecordInfo {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;     ///< file offset of the record frame
  std::uint64_t frame_len = 0;  ///< marker through payload end
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  std::uint64_t packets = 0;
};

/// What a (fallback) scan had to skip. All zero for a healthy indexed
/// journal.
struct JournalScanStats {
  bool used_index = false;
  std::uint64_t corrupt_records = 0;  ///< frames dropped (bad CRC/len)
  std::uint64_t skipped_bytes = 0;    ///< bytes not covered by a good frame
};

/// Appends framed records and seals the footer index. One writer per
/// file; records must arrive in nondecreasing first_us order (epochs
/// are produced in time order, so this is free).
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates `path` (truncating) and writes the header.
  bool open(const std::string& path, const std::string& site,
            std::uint32_t shard_count, std::string* error);
  /// Appends one record frame and flushes it to the OS, so a crash
  /// after append() never loses the record (per-record CRC framing is
  /// the journal's torn-write detection; whole-file atomicity is
  /// impossible for an append-only format).
  bool append(const EpochSlice& slice, std::string* error);
  /// Writes the footer index record + fixed trailer, fsyncs and closes.
  bool finalize(std::string* error);
  /// Closes without index/trailer (tests simulate a crash).
  void abandon();

  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t records() const { return index_.size(); }
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  /// Time extent over appended records (0/0 when empty).
  [[nodiscard]] std::int64_t first_us() const { return first_us_; }
  [[nodiscard]] std::int64_t last_us() const { return last_us_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t write_offset_ = 0;
  std::vector<JournalRecordInfo> index_;
  /// meeting_key -> record indices (footer dictionary), gathered as
  /// records are appended.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> meeting_refs_;
  std::uint64_t epochs_ = 0;
  std::uint64_t last_epoch_seq_ = 0;
  bool any_epoch_ = false;
  std::int64_t first_us_ = 0;
  std::int64_t last_us_ = 0;
};

/// mmap-backed reader. Prefers the footer index (seek without scanning);
/// falls back to a marker-resynchronizing sequential scan when the
/// index is missing or invalid. Never aborts on corruption — bad frames
/// are skipped and accounted in scan_stats().
class JournalReader {
 public:
  /// Maps `path`. False on open/mmap failure or a bad file header
  /// (anything less is skip-and-account, not failure).
  bool open(const std::string& path, std::string* error);
  /// Same, over an in-memory image (fuzzing/tests). The span must
  /// outlive the reader.
  bool open_bytes(std::span<const std::uint8_t> bytes, std::string* error);

  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] std::uint32_t shard_count() const { return shard_count_; }
  [[nodiscard]] const std::vector<JournalRecordInfo>& records() const {
    return records_;
  }
  [[nodiscard]] const JournalScanStats& scan_stats() const { return stats_; }

  /// Smallest [begin, end) index range whose records can overlap the
  /// closed window [from_us, to_us]. Binary search over the
  /// time-ordered index — O(log n) + range size, never O(records).
  [[nodiscard]] std::pair<std::size_t, std::size_t> select(
      std::int64_t from_us, std::int64_t to_us) const;

  /// Validates (CRC) and decodes record `i` into `out`, reusing its
  /// capacity. False when the payload is corrupt — count and skip.
  bool read(std::size_t i, EpochSlice& out) const;

  /// Record indices whose slices carry `meeting_key` (footer
  /// dictionary). Empty when unknown or when the journal had no index.
  [[nodiscard]] std::span<const std::uint32_t> records_for_meeting(
      std::uint64_t meeting_key) const;

 private:
  bool parse(std::string* error);
  bool try_index();
  void scan();

  net::MappedFile map_;
  std::span<const std::uint8_t> bytes_;
  std::string site_;
  std::uint32_t shard_count_ = 1;
  std::size_t body_begin_ = 0;  ///< first byte after the header
  std::vector<JournalRecordInfo> records_;
  /// Footer dictionary: key-sorted entries pointing into dict_refs_.
  struct DictEntry {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;  ///< offset into dict_refs_
    std::uint32_t count = 0;
  };
  std::vector<DictEntry> dict_;
  std::vector<std::uint32_t> dict_refs_;  ///< contiguous per-key indices
  JournalScanStats stats_;
};

// ---------------------------------------------------------------------------
// MANIFEST

/// One journal file a report directory advertises.
struct ManifestEntry {
  std::string path;  ///< relative to the manifest's directory
  std::string site;
  std::int64_t first_us = 0;
  std::int64_t last_us = 0;
  std::uint64_t epochs = 0;
  std::uint64_t records = 0;

  bool operator==(const ManifestEntry&) const = default;
};

/// The `MANIFEST` file campus_monitor --report-dir maintains (rewritten
/// atomically at every rotation): journal paths + epoch time spans, so
/// zpm_query discovers its inputs without directory scans.
struct Manifest {
  std::vector<ManifestEntry> entries;

  bool operator==(const Manifest&) const = default;
};

/// Line-oriented text codec. parse accepts unknown lines (forward
/// compatibility) and is fixpoint-stable: parse(format(parse(x))) ==
/// parse(x) for any accepted x (fuzz_query).
std::string format_manifest(const Manifest& manifest);
bool parse_manifest(std::string_view text, Manifest& out);

/// Reads/writes `<dir>/MANIFEST`; save goes through
/// util::write_file_atomic so a crash never leaves a torn manifest.
bool load_manifest(const std::string& dir, Manifest& out, std::string* error);
bool save_manifest(const Manifest& manifest, const std::string& dir,
                   std::string* error);

}  // namespace zpm::query
