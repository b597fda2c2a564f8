// The ingest half of the benchmark: timed MonitorDaemon::run passes over
// a mapped pcap, the persistence checks around them, and the traced
// layer probes that split a pass's cost by layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/daemon.h"
#include "net/trace_source.h"
#include "support.h"

namespace zpm::perfbench {

/// What one daemon pass replays and how the daemon is configured.
struct IngestConfig {
  std::string trace_path;
  std::uint64_t trace_packets = 0;
  std::size_t shards = 1;
  /// Rotation trigger; the capture-span trigger is off so rotations
  /// fall at fixed packet indices.
  std::uint64_t epoch_packets = 0;
};

/// A mapped pcap with all its packets as views into the mapping (they
/// stay valid while the object lives).
struct MappedTrace {
  explicit MappedTrace(const std::string& path);
  net::TraceSource source;
  std::vector<net::RawPacketView> packets;
};

/// The production daemon configuration the benchmark drives: journals
/// on, overload governor off (the replay default), status lines quiet,
/// watchdog off (a file source is never idle).
analysis::DaemonConfig daemon_config(const IngestConfig& ingest,
                                     const std::string& report_dir,
                                     const std::string& site,
                                     std::uint64_t halt_after_epochs);

struct PassResult {
  double wall_s = 0;  ///< MonitorDaemon::run() wall time
  double cpu_s = 0;   ///< process user+sys CPU over the same call
  std::uint64_t packets = 0;
  /// Per epoch boundary: ms from the return of the poll_batch() whose
  /// batch holds the boundary to the next poll_batch() call.
  std::vector<double> emit_ms;
  std::uint64_t disk_bytes = 0;  ///< everything left in the report dir
  std::int64_t poll_self_ns = 0;  ///< time inside TraceSource::poll_batch
  double steal = 0;  ///< machine steal share over the pass
};

/// One daemon pass into `report_dir` (created if missing; a MANIFEST
/// already there is extended, as a restarted daemon does). Checks the pass's
/// persistence and conservation counters into `ledger`. With a tracer,
/// records a "daemon.pass" span with "net.poll_batch" and
/// "daemon.batch" children.
bool daemon_pass(const IngestConfig& ingest, const std::string& report_dir,
                 const std::string& site, std::uint64_t halt_after_epochs,
                 Ledger& ledger, Tracer* tracer, PassResult& out);

/// Per-layer figures from the standalone layer probes (traced mode).
struct LayerProbe {
  std::uint64_t packets = 0;
  std::uint64_t epochs = 0;
  // capture: BatchFilter::classify over the pass's batches
  std::int64_t classify_ns = 0;
  std::uint64_t rejected = 0;
  std::uint64_t full_parse = 0;
  // core: serial Analyzer::offer (+ finish) over the same verdicts
  std::int64_t analyze_ns = 0;
  // pipeline: ParallelAnalyzer::offer_batch; sharded only
  std::int64_t dispatch_ns = 0;
  std::uint64_t producer_wait_spins = 0;
  // analysis: EpochEngine::offer and EpochEngine::flush at boundaries
  std::int64_t engine_offer_ns = 0;
  std::vector<double> close_ms;
  std::uint64_t streams = 0;
  std::uint64_t meetings = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t promotions = 0;
  std::uint64_t evictions = 0;
  // persistence: JournalWriter::append, epoch file, MANIFEST, finalize
  std::int64_t append_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t journal_bytes = 0;
  std::int64_t persist_ns = 0;  ///< epoch files + MANIFEST + finalize
};

/// Feeds the trace's batches (the daemon's batch size, cut at the same
/// epoch boundaries) through each layer's public entry points in turn.
/// `scratch_dir` receives the probe journal.
bool layer_probes(const IngestConfig& ingest, const std::string& scratch_dir,
                  Ledger& ledger, Tracer& tracer, LayerProbe& out);

}  // namespace zpm::perfbench
