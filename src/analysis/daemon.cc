#include "analysis/daemon.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>
#include <vector>

namespace zpm::analysis {

namespace {

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MonitorDaemon* g_signal_daemon = nullptr;

void daemon_signal_handler(int sig) {
  MonitorDaemon* d = g_signal_daemon;
  if (d == nullptr) return;
#if defined(SIGHUP)
  if (sig == SIGHUP) {
    d->request_reload();
    return;
  }
#endif
  (void)sig;
  d->request_shutdown();
}

}  // namespace

void MonitorDaemon::install_signal_handlers(MonitorDaemon* daemon) {
  g_signal_daemon = daemon;
  const auto handler = daemon != nullptr ? daemon_signal_handler : SIG_DFL;
  std::signal(SIGTERM, handler);
  std::signal(SIGINT, handler);
#if defined(SIGHUP)
  std::signal(SIGHUP, handler);
#endif
}

OptionTable daemon_options(DaemonConfig& c, DaemonSource* source) {
  using K = OptionKind;
  OptionTable rows = engine_options(c.engine);
  rows.insert(rows.end(), {
      {"--snapshot", nullptr, K::String, &c.snapshot_path, kDaemon,
       "<file> state saved each rotation, restored at start"},
      {"--report-dir", nullptr, K::String, &c.report_dir, kDaemon,
       "<dir> epoch reports, metric journal, MANIFEST"},
      {"--site", nullptr, K::String, &c.site, kDaemon,
       "<name> journal site label (default campus)"},
      {"--config", nullptr, K::String, &c.config_path, kDaemon,
       "<file> key=value settings re-read on SIGHUP"},
      {"--watchdog-seconds", "watchdog_seconds", K::Seconds, &c.watchdog, kDaemon,
       "<s> reopen a source quiet this long (0 = off)"},
      {"--halt-after-epochs", nullptr, K::Unsigned, &c.halt_after_epochs, kDaemon,
       "<n> crash test: stop undrained after n epochs"},
      {"--quiet", nullptr, K::Flag, &c.verbose, kDaemon,
       "no status lines on stderr", false},
  });
  if (source != nullptr) {
    rows.insert(rows.end(), {
        {"--replay", nullptr, K::String, &source->replay.path, kDaemon,
         "<trace> replay a capture file as a live source"},
        {"--live", nullptr, K::String, &source->live.interface, kDaemon,
         "<iface> capture from an interface (CAP_NET_RAW)"},
        {"--loops", nullptr, K::Unsigned, &source->replay.loops, kDaemon,
         "<n> replay loops (0 = endless; default 1)"},
        {"--pace-pps", nullptr, K::Double, &source->replay.pace_pps, kDaemon,
         "<pps> replay pacing (0 = unpaced)"},
        {"--stall-after", nullptr, K::Unsigned,
         &source->replay.stall_after_packets, kDaemon,
         "<pkts> fault: the replay stalls once here"},
    });
  }
  return for_surface(std::move(rows), kDaemon);
}

MonitorDaemon::MonitorDaemon(DaemonConfig config)
    : config_(std::move(config)) {}

void MonitorDaemon::restore() {
  if (config_.engine.frontend && config_.engine.flow_memory_budget > 0)
    lifetime_tier_.emplace(config_.engine.flow_memory_budget);
  if (config_.snapshot_path.empty()) {
    restore_status_ = RestoreStatus::Missing;
    return;
  }
  SnapshotData data;
  std::string error;
  restore_status_ = load_snapshot(config_.snapshot_path, data, &error);
  switch (restore_status_) {
    case RestoreStatus::Missing:
      if (config_.verbose)
        std::fprintf(stderr, "zpm-daemon: no snapshot, fresh start\n");
      return;
    case RestoreStatus::Corrupt:
      if (config_.verbose)
        std::fprintf(stderr, "zpm-daemon: snapshot rejected (%s), fresh start\n",
                     error.c_str());
      return;
    case RestoreStatus::Ok:
      break;
  }
  cumulative_ = std::move(data);
  recent_.assign(cumulative_.recent_epochs.begin(),
                 cumulative_.recent_epochs.end());
  engine_->set_next_seq(cumulative_.next_epoch_seq);
  engine_->set_global_packets(cumulative_.packets_consumed);
  if (lifetime_tier_ && !cumulative_.background_tier.empty()) {
    util::ByteReader r(cumulative_.background_tier);
    if (!lifetime_tier_->deserialize(r)) {
      // Budget changed between runs (or the blob is stale): the tier's
      // geometry cannot be restored 1:1 — start its summary fresh.
      lifetime_tier_.emplace(config_.engine.flow_memory_budget);
      if (config_.verbose)
        std::fprintf(stderr,
                     "zpm-daemon: background-tier image incompatible, "
                     "tier restarted fresh\n");
    }
  }
  if (config_.verbose)
    std::fprintf(stderr,
                 "zpm-daemon: restored snapshot: resuming at packet %llu, "
                 "epoch %llu\n",
                 static_cast<unsigned long long>(cumulative_.packets_consumed),
                 static_cast<unsigned long long>(cumulative_.next_epoch_seq));
}

void MonitorDaemon::open_journal() {
  if (!config_.engine.collect_journal || config_.report_dir.empty()) return;
  // No fixed name buffer: a long --site must not truncate away the
  // epoch-seq suffix (the restart-collision guard) or two runs would
  // compute the same filename and clobber a crashed segment.
  char seq[32];
  std::snprintf(seq, sizeof(seq), "%012llu",
                static_cast<unsigned long long>(engine_->next_seq()));
  journal_name_ = "journal-" + config_.site + "-" + seq + ".zpmj";
  // A restart must not orphan earlier segments: merge into whatever
  // MANIFEST the directory already has (crashed segments stay listed
  // and stay queryable via the reader's scan fallback).
  std::string error;
  if (!query::load_manifest(config_.report_dir, manifest_, &error))
    manifest_ = query::Manifest{};
  if (!journal_.open(config_.report_dir + "/" + journal_name_, config_.site,
                     static_cast<std::uint32_t>(
                         config_.engine.shards > 0 ? config_.engine.shards : 1),
                     &error)) {
    std::fprintf(stderr, "zpm-daemon: journal open failed: %s\n",
                 error.c_str());
    journal_name_.clear();
    return;
  }
  if (config_.verbose)
    std::fprintf(stderr, "zpm-daemon: journal segment %s opened\n",
                 journal_name_.c_str());
}

void MonitorDaemon::update_manifest() {
  if (journal_name_.empty()) return;
  query::ManifestEntry entry;
  entry.path = journal_name_;
  entry.site = config_.site;
  entry.first_us = journal_.first_us();
  entry.last_us = journal_.last_us();
  entry.epochs = journal_.epochs();
  entry.records = journal_.records();
  bool replaced = false;
  for (auto& existing : manifest_.entries) {
    if (existing.path == entry.path) {
      existing = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) manifest_.entries.push_back(entry);
  std::string error;
  if (!query::save_manifest(manifest_, config_.report_dir, &error))
    std::fprintf(stderr, "zpm-daemon: manifest write failed: %s\n",
                 error.c_str());
}

bool MonitorDaemon::on_epoch(const EpochReport& report,
                             const query::EpochSliceSet* slices) {
  cumulative_.cumulative_counters.merge(report.counters);
  cumulative_.cumulative_health.merge(report.health);
  stats_.offered_packets += report.packets;
  stats_.admitted_packets += report.counters.total_packets;
  stats_.shed_packets += report.health.overload_shed_total();
  cumulative_.next_epoch_seq = report.seq + 1;
  // Resume position: the packet right after the completed epoch. The
  // in-progress epoch's packets are deliberately not covered — they are
  // the "at most one epoch" a crash may lose.
  cumulative_.packets_consumed = report.first_packet + report.packets;
  if (lifetime_tier_) {
    lifetime_tier_->fold_stats(report.tier_stats);
    for (const auto& h : report.heavy_hitters) {
      const net::PackedFlowKey key(h.flow);
      lifetime_tier_->fold(key, net::canonical_flow_hash(key),
                           sketch::FlowStats{h.packets, h.bytes});
    }
    util::ByteWriter w;
    lifetime_tier_->serialize(w);
    cumulative_.background_tier = w.take();
  }
  recent_.push_back(report);
  while (recent_.size() > kSnapshotRecentEpochs) recent_.pop_front();
  cumulative_.recent_epochs.assign(recent_.begin(), recent_.end());
  ++stats_.epochs_rotated;

  bool ok = true;
  std::string error;
  if (!config_.report_dir.empty()) {
    char name[32];
    std::snprintf(name, sizeof(name), "epoch-%08llu.bin",
                  static_cast<unsigned long long>(report.seq));
    if (save_epoch_report(report, config_.report_dir + "/" + name, &error)) {
      ++stats_.epoch_files_written;
    } else {
      ok = false;
      std::fprintf(stderr, "zpm-daemon: epoch report write failed: %s\n",
                   error.c_str());
    }
  }
  if (slices != nullptr && journal_.is_open()) {
    for (const auto& slice : *slices) {
      if (journal_.append(slice, &error)) {
        ++stats_.journal_records_written;
      } else {
        ok = false;
        std::fprintf(stderr, "zpm-daemon: journal append failed: %s\n",
                     error.c_str());
        break;
      }
    }
    update_manifest();
  }
  if (!config_.snapshot_path.empty()) {
    if (save_snapshot(cumulative_, config_.snapshot_path, &error)) {
      ++stats_.snapshots_written;
    } else {
      ok = false;
      std::fprintf(stderr, "zpm-daemon: snapshot write failed: %s\n",
                   error.c_str());
    }
  }
  if (config_.verbose) {
    std::fprintf(stderr,
                 "zpm-daemon: epoch %llu rotated: %llu packets, %llu zoom, "
                 "%llu streams, %llu meetings, %llu flows retired\n",
                 static_cast<unsigned long long>(report.seq),
                 static_cast<unsigned long long>(report.packets),
                 static_cast<unsigned long long>(report.counters.zoom_packets),
                 static_cast<unsigned long long>(report.stream_count),
                 static_cast<unsigned long long>(report.meeting_count),
                 static_cast<unsigned long long>(report.zoom_flow_count));
    if (report.max_overload_level > 0)
      std::fprintf(stderr,
                   "zpm-daemon: epoch %llu overload: max level L%u, shed "
                   "l1=%llu l2=%llu l3=%llu l4=%llu\n",
                   static_cast<unsigned long long>(report.seq),
                   report.max_overload_level,
                   static_cast<unsigned long long>(report.health.overload_shed_l1),
                   static_cast<unsigned long long>(report.health.overload_shed_l2),
                   static_cast<unsigned long long>(report.health.overload_shed_l3),
                   static_cast<unsigned long long>(report.health.overload_shed_l4));
  }
  return ok;
}

void MonitorDaemon::reload_config_file() {
  ++stats_.config_reloads;
  if (config_.config_path.empty()) {
    if (config_.verbose)
      std::fprintf(stderr, "zpm-daemon: reload requested but no config file\n");
    return;
  }
  std::ifstream in(config_.config_path);
  if (!in) {
    std::fprintf(stderr, "zpm-daemon: cannot read config %s\n",
                 config_.config_path.c_str());
    return;
  }
  // Parse into a copy of the running configuration, then apply it:
  // limits, watchdog and governor thresholds at once (unchanged values
  // are no-ops), the rest staged to the next rotation (unconditionally:
  // that also replaces an earlier reload's pending stage).
  DaemonConfig next = config_;
  next.engine = engine_->config();
  for (const auto& error : parse_config(daemon_options(next), in))
    if (config_.verbose)
      std::fprintf(stderr, "zpm-daemon: config: %s\n", error.c_str());
  const EpochEngineConfig& now = engine_->config();
  const bool staged_change =
      next.engine.analyzer.p2p_timeout != now.analyzer.p2p_timeout ||
      next.engine.frontend != now.frontend ||
      next.engine.flow_memory_budget != now.flow_memory_budget;
  config_.watchdog = next.watchdog;
  engine_->set_limits(next.engine.limits);
  engine_->set_overload_thresholds(next.engine.overload.governor);
  engine_->stage_config(next.engine);
  if (config_.verbose)
    std::fprintf(stderr,
                 "zpm-daemon: config reloaded from %s (%s)\n",
                 config_.config_path.c_str(),
                 staged_change ? "engine changes staged to next rotation"
                               : "limits applied");
}

void MonitorDaemon::final_flush() {
  query::EpochSliceSet last_slices;
  const auto report = engine_->finish(&last_slices);
  const overload::GovernorStats gov = engine_->governor_stats();
  // Persist the last epoch with its window already released, as a
  // rotation does: the closed analyzer state is never read again.
  engine_.reset();
  if (report) on_epoch(*report, last_slices.empty() ? nullptr : &last_slices);
  if (journal_.is_open()) {
    std::string error;
    if (journal_.finalize(&error)) {
      update_manifest();
      if (config_.verbose)
        std::fprintf(stderr, "zpm-daemon: journal segment %s sealed "
                             "(%llu records)\n",
                     journal_name_.c_str(),
                     static_cast<unsigned long long>(
                         stats_.journal_records_written));
    } else {
      std::fprintf(stderr, "zpm-daemon: journal finalize failed: %s\n",
                   error.c_str());
    }
  }
  stats_.overload_escalations = gov.escalations;
  stats_.overload_recoveries = gov.recoveries;
  stats_.overload_max_level = gov.max_level;
  const std::uint64_t dropped = cumulative_.cumulative_health.dropped_records();
  if (config_.verbose) {
    std::fprintf(stderr,
                 "zpm-daemon: graceful shutdown: %llu epochs, %llu packets, "
                 "%llu stalls, %llu reloads\n",
                 static_cast<unsigned long long>(stats_.epochs_rotated),
                 static_cast<unsigned long long>(stats_.packets_processed),
                 static_cast<unsigned long long>(stats_.source_stalls),
                 static_cast<unsigned long long>(stats_.config_reloads));
    std::fprintf(stderr, "zpm-daemon: health: %llu dropped records%s\n",
                 static_cast<unsigned long long>(dropped),
                 dropped == 0 ? " (all clear)" : "");
    if (config_.engine.overload.enabled) {
      // Conservation over this run's completed epochs: every offered
      // packet is either admitted (analyzer totals) or shed by a ladder
      // level; kernel drops happen upstream of `offered` and are
      // reported alongside. `unaccounted=0` is the invariant the stress
      // smoke asserts.
      const std::uint64_t accounted =
          stats_.admitted_packets + stats_.shed_packets;
      const std::uint64_t unaccounted =
          stats_.offered_packets >= accounted
              ? stats_.offered_packets - accounted
              : accounted - stats_.offered_packets;
      std::fprintf(
          stderr,
          "zpm-daemon: overload: max level L%d, %llu escalations, %llu "
          "recoveries\n",
          gov.max_level, static_cast<unsigned long long>(gov.escalations),
          static_cast<unsigned long long>(gov.recoveries));
      std::fprintf(
          stderr,
          "zpm-daemon: conservation: offered=%llu admitted=%llu shed=%llu "
          "kernel_drops=%llu unaccounted=%llu %s\n",
          static_cast<unsigned long long>(stats_.offered_packets),
          static_cast<unsigned long long>(stats_.admitted_packets),
          static_cast<unsigned long long>(stats_.shed_packets),
          static_cast<unsigned long long>(stats_.kernel_drops),
          static_cast<unsigned long long>(unaccounted),
          unaccounted == 0 ? "OK" : "VIOLATION");
    }
    if (cumulative_.cumulative_health.kernel_packets > 0 ||
        cumulative_.cumulative_health.kernel_drops > 0)
      std::fprintf(
          stderr, "zpm-daemon: kernel: %llu packets seen, %llu drops\n",
          static_cast<unsigned long long>(
              cumulative_.cumulative_health.kernel_packets),
          static_cast<unsigned long long>(
              cumulative_.cumulative_health.kernel_drops));
  }
}

int MonitorDaemon::run(net::BatchSource& source) {
  // Every journal, MANIFEST and epoch write lands in the report
  // directory: make it, or refuse to start, before any packet is read.
  std::error_code ec;
  if (!config_.report_dir.empty() &&
      !std::filesystem::create_directories(config_.report_dir, ec) && ec) {
    std::fprintf(stderr, "zpm-daemon: cannot create report directory %s: %s\n",
                 config_.report_dir.c_str(), ec.message().c_str());
    return 1;
  }
  engine_.emplace(config_.engine);
  restore();
  // After restore: the segment is named by the resumed epoch seq, so a
  // restarted daemon opens a fresh file and never clobbers the crashed
  // (index-less, scan-recoverable) one.
  open_journal();
  if (cumulative_.packets_consumed > 0 &&
      !source.skip_to(cumulative_.packets_consumed)) {
    std::fprintf(stderr,
                 "zpm-daemon: source cannot seek to packet %llu; continuing "
                 "from its current position\n",
                 static_cast<unsigned long long>(cumulative_.packets_consumed));
  }

  const auto lifetime = source.pinned() ? pipeline::BatchLifetime::Pinned
                                        : pipeline::BatchLifetime::Transient;
  std::vector<net::RawPacketView> batch;
  batch.reserve(config_.max_batch);
  std::vector<EpochReport> completed;
  std::vector<query::EpochSliceSet> completed_slices;
  const bool journaling = journal_.is_open();
  std::int64_t last_data_us = steady_us();
  util::Duration backoff = config_.backoff_initial;
  std::int64_t next_reopen_us = 0;
  net::KernelCaptureStats kernel_base;  // last absolute reading
  int last_overload_level = engine_->overload_level();

  for (;;) {
    if (shutdown_.load(std::memory_order_relaxed)) {
      final_flush();
      return 0;
    }
    if (reload_.exchange(false, std::memory_order_relaxed))
      reload_config_file();

    const net::SourceStatus status = source.poll_batch(batch, config_.max_batch);

    // Kernel capture gauges: the source reports absolute counters; keep
    // them as this-run deltas so reopen() resetting the kernel ring (the
    // counters shrink) re-bases instead of corrupting the gauges. Drop
    // deltas feed the governor as a pinned-pressure signal.
    const net::KernelCaptureStats kernel_now = source.kernel_stats();
    if (kernel_now.kernel_packets < kernel_base.kernel_packets ||
        kernel_now.kernel_drops < kernel_base.kernel_drops) {
      kernel_base = kernel_now;  // ring reset after reopen
    } else {
      const std::uint64_t dp = kernel_now.kernel_packets - kernel_base.kernel_packets;
      const std::uint64_t dd = kernel_now.kernel_drops - kernel_base.kernel_drops;
      kernel_base = kernel_now;
      if (dp > 0) cumulative_.cumulative_health.kernel_packets += dp;
      if (dd > 0) {
        cumulative_.cumulative_health.kernel_drops += dd;
        stats_.kernel_drops += dd;
        engine_->note_kernel_drops(dd);
      }
    }

    switch (status) {
      case net::SourceStatus::Batch: {
        last_data_us = steady_us();
        backoff = config_.backoff_initial;
        next_reopen_us = 0;
        stats_.packets_processed += batch.size();
        completed.clear();
        completed_slices.clear();
        engine_->offer(batch, lifetime, completed,
                       journaling ? &completed_slices : nullptr);
        const int level = engine_->overload_level();
        if (level != last_overload_level) {
          if (config_.verbose)
            std::fprintf(stderr,
                         "zpm-daemon: overload %s L%d -> L%d (pressure %.2f)\n",
                         level > last_overload_level ? "escalation" : "recovery",
                         last_overload_level, level, engine_->overload_pressure());
          last_overload_level = level;
        }
        for (std::size_t i = 0; i < completed.size(); ++i) {
          on_epoch(completed[i], journaling && i < completed_slices.size()
                                     ? &completed_slices[i]
                                     : nullptr);
        }
        if (config_.halt_after_epochs > 0 && !completed.empty() &&
            stats_.epochs_rotated >= config_.halt_after_epochs) {
          // Crash simulation: stop with no drain and no final persist —
          // on-disk state is exactly what kill -9 here leaves behind.
          if (config_.verbose)
            std::fprintf(stderr,
                         "zpm-daemon: halting after %llu epochs "
                         "(crash simulation)\n",
                         static_cast<unsigned long long>(
                             stats_.epochs_rotated));
          return 0;
        }
        break;
      }
      case net::SourceStatus::Idle: {
        const std::int64_t now = steady_us();
        const bool watchdog_on = config_.watchdog > util::Duration::micros(0);
        if (watchdog_on && now - last_data_us >= config_.watchdog.us() &&
            now >= next_reopen_us) {
          // Stalled: health-account and reopen under capped backoff.
          ++stats_.source_stalls;
          ++cumulative_.cumulative_health.source_stalls;
          const bool reopened = source.reopen();
          ++stats_.source_reopens;
          if (config_.verbose)
            std::fprintf(stderr,
                         "zpm-daemon: source stall (quiet %.1fs); reopen %s, "
                         "next retry in %.1fs\n",
                         static_cast<double>(now - last_data_us) / 1e6,
                         reopened ? "succeeded" : "failed", backoff.sec());
          next_reopen_us = now + backoff.us();
          backoff = backoff * 2 > config_.backoff_max ? config_.backoff_max
                                                      : backoff * 2;
          if (reopened) last_data_us = steady_us();
        } else if (config_.idle_sleep > util::Duration::micros(0)) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(config_.idle_sleep.us()));
        }
        break;
      }
      case net::SourceStatus::EndOfStream:
        if (config_.verbose)
          std::fprintf(stderr, "zpm-daemon: end of stream, draining\n");
        final_flush();
        return 0;
      case net::SourceStatus::Error: {
        std::fprintf(stderr, "zpm-daemon: source error: %s\n",
                     source.error().c_str());
        if (!source.reopen()) {
          std::fprintf(stderr, "zpm-daemon: source cannot be reopened; "
                               "fatal\n");
          final_flush();
          return 1;
        }
        ++stats_.source_reopens;
        // Backoff can reach backoff_max (seconds); sleep in short slices
        // so a shutdown signal interrupts it promptly.
        for (std::int64_t left = backoff.us();
             left > 0 && !shutdown_.load(std::memory_order_relaxed);) {
          const std::int64_t slice = left < 50'000 ? left : 50'000;
          std::this_thread::sleep_for(std::chrono::microseconds(slice));
          left -= slice;
        }
        backoff = backoff * 2 > config_.backoff_max ? config_.backoff_max
                                                    : backoff * 2;
        break;
      }
    }
  }
}

}  // namespace zpm::analysis
