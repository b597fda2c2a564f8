// The continuous-operation monitor: epoch engine + snapshot durability
// + signal lifecycle around any net::BatchSource.
//
// One MonitorDaemon::run() call is the whole service loop:
//
//   * Batch   -> feed the epoch engine; at each rotation, persist the
//               finished epoch (own report file + atomic snapshot) and
//               fold it into the daemon-lifetime aggregates.
//   * Idle    -> wall-clock watchdog: a source that stays quiet past
//               `watchdog` is stalled; the stall is health-accounted
//               (`source-stalls`) and the source reopened under capped
//               exponential backoff. A healthy-but-quiet tap below the
//               threshold just idles.
//   * EndOfStream -> drain (flush the final epoch), persist, exit 0.
//   * Error   -> one reopen attempt per backoff window; a source that
//               cannot be reopened is fatal (exit 1).
//
// Signals: SIGTERM/SIGINT request a graceful drain (same path as
// EndOfStream); SIGHUP reloads the config file (daemon_options' keys):
// epoch limits, watchdog and governor thresholds apply immediately,
// the rest is staged to the next rotation so no flow state is dropped
// mid-window. Handlers only set
// flags; all real work happens on the run() thread. Tests drive the
// same flags directly via request_shutdown()/request_reload().
//
// Crash recovery: on start the daemon restores the newest snapshot
// (exactly-or-fresh, see snapshot.h), resumes the source at the
// recorded packet position, and continues the epoch numbering. Epochs
// are packet-sequence-deterministic, so the epoch reports written
// after a kill -9 + restart are byte-identical to an uninterrupted
// run's (tests/test_daemon.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "analysis/epoch.h"
#include "analysis/options.h"
#include "analysis/snapshot.h"
#include "net/batch_source.h"
#include "net/live_source.h"
#include "sketch/sketch.h"
#include "util/time.h"

namespace zpm::analysis {

/// Daemon configuration around an EpochEngineConfig.
struct DaemonConfig {
  EpochEngineConfig engine;
  /// Snapshot file written atomically at every rotation; empty
  /// disables durability.
  std::string snapshot_path;
  /// Directory receiving one `epoch-NNNNNNNN.bin` per completed epoch;
  /// empty disables the per-epoch files. With `engine.collect_journal`
  /// it also receives the metric-journal segments
  /// (`journal-<site>-NNNNNNNNNNNN.zpmj`, named by their starting epoch
  /// seq so restarts never collide) and a `MANIFEST` rewritten
  /// atomically at every rotation (journal paths + epoch time spans —
  /// what zpm_query discovers its inputs from).
  std::string report_dir;
  /// Site label stamped into journal headers and the MANIFEST (multi-
  /// site merges group by it).
  std::string site = "campus";
  /// key=value file re-read on SIGHUP (see reload_config_file()).
  std::string config_path;
  /// Wall-clock quiet time after which an Idle source counts as
  /// stalled. Zero/negative disables the watchdog.
  util::Duration watchdog = util::Duration::seconds(5.0);
  /// Reopen backoff: first retry after `backoff_initial`, doubling to
  /// at most `backoff_max`.
  util::Duration backoff_initial = util::Duration::seconds(0.5);
  util::Duration backoff_max = util::Duration::seconds(30.0);
  /// Packets per poll_batch() call.
  std::size_t max_batch = 1024;
  /// Sleep per Idle poll (keeps a quiet replay source from busy-
  /// spinning; live sources already block in poll(2)).
  util::Duration idle_sleep = util::Duration::millis(2);
  /// Test hook: stop abruptly after this many rotations — no final
  /// flush, no shutdown snapshot, exactly the on-disk state a kill -9
  /// at that point leaves behind. 0 disables.
  std::uint64_t halt_after_epochs = 0;
  /// Status lines on stderr.
  bool verbose = true;
};

/// campus_monitor --daemon's source: a trace replay or a live interface.
struct DaemonSource {
  net::ReplayLiveSourceConfig replay;
  net::LiveSourceConfig live;
};

/// The daemon's rows: engine, DaemonConfig and (when set) source rows.
/// The keyed ones are the SIGHUP config file.
OptionTable daemon_options(DaemonConfig& config, DaemonSource* source = nullptr);

/// Operational counters for one run() (not persisted).
struct DaemonStats {
  std::uint64_t epochs_rotated = 0;
  std::uint64_t packets_processed = 0;
  std::uint64_t source_stalls = 0;
  std::uint64_t source_reopens = 0;
  std::uint64_t config_reloads = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t epoch_files_written = 0;
  std::uint64_t journal_records_written = 0;
  // Overload governor (zeros when the governor is disabled).
  std::uint64_t overload_escalations = 0;
  std::uint64_t overload_recoveries = 0;
  int overload_max_level = 0;
  /// Kernel ring drops observed this run (live sources).
  std::uint64_t kernel_drops = 0;
  // This-run conservation ledger over completed epochs: offered ==
  // admitted + shed must hold exactly (kernel drops happen upstream of
  // `offered`). final_flush() prints the check.
  std::uint64_t offered_packets = 0;
  std::uint64_t admitted_packets = 0;
  std::uint64_t shed_packets = 0;
};

/// See file comment.
class MonitorDaemon {
 public:
  explicit MonitorDaemon(DaemonConfig config);

  MonitorDaemon(const MonitorDaemon&) = delete;
  MonitorDaemon& operator=(const MonitorDaemon&) = delete;

  /// Runs the service loop until drain, halt, or fatal source error.
  /// Returns the process exit code: 0 graceful, 1 fatal source error.
  int run(net::BatchSource& source);

  /// Asks the loop to drain and exit (what SIGTERM/SIGINT trigger).
  /// Safe from signal handlers and other threads.
  void request_shutdown() { shutdown_.store(true, std::memory_order_relaxed); }
  /// Asks the loop to re-read the config file (what SIGHUP triggers).
  void request_reload() { reload_.store(true, std::memory_order_relaxed); }

  /// Installs SIGTERM/SIGINT/SIGHUP handlers that route to `daemon`'s
  /// request_*() flags. Pass nullptr to leave the signals at their
  /// defaults again. One daemon per process.
  static void install_signal_handlers(MonitorDaemon* daemon);

  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  /// What restore found at startup (valid after run() began).
  [[nodiscard]] RestoreStatus restore_status() const { return restore_status_; }
  /// Daemon-lifetime aggregates (cumulative counters/health, recent
  /// epochs, background-tier image) as of the last rotation.
  [[nodiscard]] const SnapshotData& cumulative() const { return cumulative_; }

 private:
  /// Persists + folds one finished epoch. `slices` (may be null) is the
  /// epoch's journal slice set, appended to the live journal segment.
  /// Returns false on I/O failure (logged; the daemon keeps running —
  /// losing a report file is not fatal to measurement).
  bool on_epoch(const EpochReport& report, const query::EpochSliceSet* slices);
  /// Opens a new journal segment named by the starting epoch seq and
  /// merges its entry into the (possibly pre-existing) MANIFEST.
  void open_journal();
  /// Updates the live segment's MANIFEST entry (span/record counts).
  void update_manifest();
  void reload_config_file();
  void final_flush();
  void restore();

  DaemonConfig config_;
  std::optional<EpochEngine> engine_;
  /// Daemon-lifetime background-traffic summary, persisted across
  /// restarts (folds every finished epoch's tier report).
  std::optional<sketch::FlowTier> lifetime_tier_;

  // Metric-journal lifecycle (active when engine.collect_journal and
  // report_dir is set). Records are flushed as appended; the index is
  // written at graceful drain only — a crash leaves a scan-recoverable
  // segment, never a torn index.
  query::JournalWriter journal_;
  query::Manifest manifest_;
  std::string journal_name_;  // segment filename (MANIFEST-relative)

  SnapshotData cumulative_;
  std::deque<EpochReport> recent_;  // mirror of cumulative_.recent_epochs
  DaemonStats stats_;
  RestoreStatus restore_status_ = RestoreStatus::Missing;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> reload_{false};
};

}  // namespace zpm::analysis
