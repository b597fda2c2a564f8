#include "ingest.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>

#include "analysis/epoch.h"
#include "analysis/snapshot.h"
#include "capture/batch_filter.h"
#include "core/analyzer.h"
#include "pipeline/parallel_analyzer.h"
#include "query/journal.h"

namespace zpm::perfbench {

namespace {

/// The daemon's poll size (DaemonConfig::max_batch default).
constexpr std::size_t kBatch = 1024;

/// BatchSource wrapper owned by the benchmark: times every poll_batch()
/// call and the gap until the next one, which is the daemon's work on
/// the batch just returned. A gap after a batch holding an epoch
/// boundary is that epoch's emit time (rotation, slice build, journal
/// append, epoch file, MANIFEST).
class TimedSource final : public net::BatchSource {
 public:
  TimedSource(net::TraceSource& inner, std::uint64_t epoch_packets,
              Tracer* tracer, std::uint32_t parent, PassResult& out)
      : inner_(inner),
        epoch_packets_(epoch_packets),
        next_boundary_(epoch_packets),
        tracer_(tracer),
        parent_(parent),
        out_(out) {}

  net::SourceStatus poll_batch(std::vector<net::RawPacketView>& batch,
                               std::size_t max) override {
    const std::int64_t call = now_ns();
    if (last_return_ != 0) {
      if (boundary_pending_)
        out_.emit_ms.push_back(static_cast<double>(call - last_return_) / 1e6);
      if (tracer_ != nullptr)
        tracer_->add("daemon.batch", parent_, last_return_, call);
    }
    const std::uint64_t before = inner_.packets_read();
    const net::SourceStatus status = inner_.poll_batch(batch, max);
    const std::int64_t ret = now_ns();
    out_.poll_self_ns += ret - call;
    if (tracer_ != nullptr) tracer_->add("net.poll_batch", parent_, call, ret);
    // Rotation k happens before admitting global packet k * epoch_packets.
    const std::uint64_t after = inner_.packets_read();
    boundary_pending_ = false;
    while (epoch_packets_ > 0 && next_boundary_ < after) {
      if (next_boundary_ >= before) boundary_pending_ = true;
      next_boundary_ += epoch_packets_;
    }
    last_return_ = ret;
    return status;
  }

  [[nodiscard]] const std::string& error() const override {
    return inner_.error();
  }
  [[nodiscard]] std::uint64_t packets_read() const override {
    return inner_.packets_read();
  }
  [[nodiscard]] bool pinned() const override { return inner_.pinned(); }

 private:
  net::TraceSource& inner_;
  std::uint64_t epoch_packets_;
  std::uint64_t next_boundary_;
  Tracer* tracer_;
  std::uint32_t parent_;
  PassResult& out_;
  std::int64_t last_return_ = 0;
  bool boundary_pending_ = false;
};

/// Runs `fn`, records it as span `name` and returns its duration.
template <typename Fn>
std::int64_t timed(Tracer& tracer, const char* name, std::uint32_t parent,
                   Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  tracer.add(name, parent, start, end);
  return end - start;
}

std::string epoch_file_name(std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "epoch-%08llu.bin",
                static_cast<unsigned long long>(seq));
  return name;
}

}  // namespace

MappedTrace::MappedTrace(const std::string& path) : source(path) {
  std::vector<net::RawPacketView> batch;
  while (source.poll_batch(batch, 4096) == net::SourceStatus::Batch)
    packets.insert(packets.end(), batch.begin(), batch.end());
}

analysis::DaemonConfig daemon_config(const IngestConfig& ingest,
                                     const std::string& report_dir,
                                     const std::string& site,
                                     std::uint64_t halt_after_epochs) {
  analysis::DaemonConfig cfg;
  cfg.engine.analyzer.keep_frames = false;  // campus_monitor --daemon default
  cfg.engine.shards = ingest.shards;
  cfg.engine.limits.max_packets = ingest.epoch_packets;
  cfg.engine.limits.max_span = util::Duration::micros(0);
  cfg.engine.collect_journal = true;
  cfg.engine.overload.enabled = false;
  cfg.report_dir = report_dir;
  cfg.site = site;
  cfg.watchdog = util::Duration::micros(0);
  cfg.halt_after_epochs = halt_after_epochs;
  cfg.verbose = false;
  return cfg;
}

bool daemon_pass(const IngestConfig& ingest, const std::string& report_dir,
                 const std::string& site, std::uint64_t halt_after_epochs,
                 Ledger& ledger, Tracer* tracer, PassResult& out) {
  out = PassResult{};
  std::string error;
  std::error_code ec;
  std::filesystem::create_directories(report_dir, ec);
  if (!ledger.check(!ec, "create report dir " + report_dir)) return false;
  net::TraceSource source(ingest.trace_path);
  if (!ledger.check(source.ok() && source.mapped(),
                    "map trace " + ingest.trace_path + " " + source.error()))
    return false;
  analysis::MonitorDaemon daemon(
      daemon_config(ingest, report_dir, site, halt_after_epochs));
  const std::uint32_t span =
      tracer != nullptr ? tracer->begin("daemon.pass") : Tracer::kNone;
  TimedSource timed_source(source, ingest.epoch_packets, tracer, span, out);

  const CpuTicks ticks0 = read_cpu_ticks();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const int rc = daemon.run(timed_source);
  const std::int64_t t1 = now_ns();
  const double cpu1 = process_cpu_s();
  out.steal = steal_share(ticks0, read_cpu_ticks());
  if (tracer != nullptr) tracer->end(span);

  const analysis::DaemonStats& st = daemon.stats();
  out.wall_s = seconds_between(t0, t1);
  out.cpu_s = cpu1 - cpu0;
  out.packets = st.packets_processed;
  out.disk_bytes = directory_bytes(report_dir);

  // The exit code alone proves nothing: every epoch must have left its
  // epoch file and one journal record per shard.
  const std::uint64_t epochs =
      halt_after_epochs > 0
          ? halt_after_epochs
          : (ingest.trace_packets + ingest.epoch_packets - 1) /
                ingest.epoch_packets;
  const std::uint64_t shards = ingest.shards;
  bool ok = ledger.check(rc == 0, "daemon exit code " + std::to_string(rc));
  ok &= ledger.check(st.epochs_rotated == epochs,
                     "epochs rotated " + std::to_string(st.epochs_rotated) +
                         " != " + std::to_string(epochs));
  const std::uint64_t files = std::min(st.epoch_files_written, epochs);
  ledger.count(epochs, epochs - files, "epoch files written");
  const std::uint64_t records =
      std::min(st.journal_records_written, epochs * shards);
  ledger.count(epochs * shards, epochs * shards - records,
               "journal records written");
  ok &= files == epochs && records == epochs * shards;
  ok &= ledger.check(
      st.offered_packets == st.admitted_packets + st.shed_packets &&
          st.shed_packets == 0,
      "conservation offered=" + std::to_string(st.offered_packets) +
          " admitted=" + std::to_string(st.admitted_packets) +
          " shed=" + std::to_string(st.shed_packets));
  if (halt_after_epochs == 0)
    ok &= ledger.check(st.packets_processed == ingest.trace_packets &&
                           st.offered_packets == ingest.trace_packets,
                       "packets processed " +
                           std::to_string(st.packets_processed) + " of " +
                           std::to_string(ingest.trace_packets));
  query::Manifest manifest;
  const bool listed =
      query::load_manifest(report_dir, manifest, &error) &&
      std::any_of(manifest.entries.begin(), manifest.entries.end(),
                  [&](const query::ManifestEntry& e) {
                    return e.site == site && e.records == epochs * shards;
                  });
  ok &= ledger.check(listed, "MANIFEST lists the pass's journal " + error);
  return ok;
}

bool layer_probes(const IngestConfig& ingest, const std::string& scratch_dir,
                  Ledger& ledger, Tracer& tracer, LayerProbe& out) {
  out = LayerProbe{};
  std::string error;
  if (!ledger.check(reset_directory(scratch_dir, &error),
                    "create probe dir " + error))
    return false;
  const MappedTrace trace(ingest.trace_path);
  if (!ledger.check(trace.source.mapped() &&
                        trace.packets.size() == ingest.trace_packets,
                    "probe read the whole trace " + trace.source.error()))
    return false;
  const std::span<const net::RawPacketView> all(trace.packets);
  const std::uint64_t n = all.size();
  const std::uint64_t epoch = ingest.epoch_packets;
  out.packets = n;

  // Walks the daemon's batches (kBatch-aligned polls), cut at epoch
  // boundaries exactly as EpochEngine::offer splits them.
  const auto for_each_epoch = [&](auto&& open, auto&& piece, auto&& close) {
    for (std::uint64_t start = 0; start < n; start += epoch) {
      const std::uint64_t end = std::min(start + epoch, n);
      open();
      for (std::uint64_t i = start; i < end;) {
        const std::uint64_t next = std::min(end, (i / kBatch + 1) * kBatch);
        piece(all.subspan(i, next - i));
        i = next;
      }
      close();
    }
  };

  const analysis::EpochEngineConfig engine_cfg =
      daemon_config(ingest, scratch_dir, "probe", 0).engine;
  capture::BatchFilterConfig filter_cfg;
  filter_cfg.server_db = engine_cfg.analyzer.server_db;
  filter_cfg.shards = engine_cfg.shards;
  filter_cfg.flow_memory_budget = engine_cfg.flow_memory_budget;
  filter_cfg.dataplane_offload = engine_cfg.dataplane_offload;
  filter_cfg.offload = engine_cfg.offload;
  capture::BatchVerdicts verdicts;

  // Probe 1: capture front end, then the serial core analyzer on the
  // same verdicts (what EpochEngine does with one shard).
  {
    const std::uint32_t root = tracer.begin("probe.capture_core");
    std::optional<capture::BatchFilter> filter;
    std::optional<core::Analyzer> analyzer;
    for_each_epoch(
        [&] {
          filter.emplace(filter_cfg);
          analyzer.emplace(engine_cfg.analyzer);
        },
        [&](std::span<const net::RawPacketView> run) {
          out.classify_ns += timed(tracer, "capture.classify", root,
                                   [&] { filter->classify(run, verdicts); });
          out.analyze_ns += timed(tracer, "core.analyze", root, [&] {
            for (std::size_t i = 0; i < run.size(); ++i) {
              if (verdicts.verdicts[i] == capture::Verdict::Reject)
                analyzer->account_frontend_rejected(run[i]);
              else
                analyzer->offer(
                    run[i], verdicts.verdicts[i] == capture::Verdict::Admit &&
                                (verdicts.flags[i] &
                                 capture::kFlagOffloadCovered) != 0);
            }
          });
        },
        [&] {
          out.analyze_ns += timed(tracer, "core.analyze", root,
                                  [&] { analyzer->finish(); });
          out.rejected += filter->stats().rejected;
          out.full_parse += filter->stats().full_parse;
        });
    tracer.end(root);
  }

  // Probe 2 (sharded workloads): the producer's dispatch into the shard
  // rings, with the workers running.
  if (ingest.shards > 1) {
    const std::uint32_t root = tracer.begin("probe.pipeline");
    std::optional<capture::BatchFilter> filter;
    std::optional<pipeline::ParallelAnalyzer> parallel;
    for_each_epoch(
        [&] {
          filter.emplace(filter_cfg);
          pipeline::ParallelAnalyzerConfig pc;
          pc.analyzer = engine_cfg.analyzer;
          pc.shards = engine_cfg.shards;
          parallel.emplace(std::move(pc));
        },
        [&](std::span<const net::RawPacketView> run) {
          filter->classify(run, verdicts);
          out.dispatch_ns +=
              timed(tracer, "pipeline.offer_batch", root, [&] {
                parallel->offer_batch(run, pipeline::BatchLifetime::Pinned,
                                      verdicts);
              });
        },
        [&] {
          timed(tracer, "pipeline.finish", root, [&] { parallel->finish(); });
          out.producer_wait_spins += parallel->producer_wait_spins();
        });
    tracer.end(root);
  }

  // Probe 3: the epoch engine as the daemon drives it, with the flush
  // at each boundary and the daemon's per-epoch persistence.
  {
    const std::uint32_t root = tracer.begin("probe.engine");
    analysis::EpochEngine engine(engine_cfg);
    query::JournalWriter writer;
    const std::string journal_name = "journal-probe.zpmj";
    bool ok = writer.open(scratch_dir + "/" + journal_name, "probe",
                          static_cast<std::uint32_t>(ingest.shards), &error);
    query::Manifest manifest;
    std::vector<analysis::EpochReport> completed;
    std::vector<query::EpochSliceSet> slices;
    for_each_epoch(
        [] {},
        [&](std::span<const net::RawPacketView> run) {
          out.engine_offer_ns += timed(tracer, "analysis.offer", root, [&] {
            engine.offer(run, pipeline::BatchLifetime::Pinned, completed,
                         &slices);
          });
          ok &= completed.empty();  // boundaries are flushed explicitly
        },
        [&] {
          query::EpochSliceSet set;
          std::optional<analysis::EpochReport> report;
          const std::int64_t close_ns = timed(
              tracer, "analysis.flush", root, [&] { report = engine.flush(&set); });
          out.close_ms.push_back(static_cast<double>(close_ns) / 1e6);
          if (!report) {
            ok = false;
            return;
          }
          ++out.epochs;
          out.append_ns += timed(tracer, "query.append", root, [&] {
            for (const auto& slice : set) ok &= writer.append(slice, &error);
          });
          out.records += set.size();
          out.persist_ns += timed(tracer, "analysis.persist", root, [&] {
            ok &= analysis::save_epoch_report(
                *report, scratch_dir + "/" + epoch_file_name(report->seq),
                &error);
            query::ManifestEntry entry;
            entry.path = journal_name;
            entry.site = "probe";
            entry.first_us = writer.first_us();
            entry.last_us = writer.last_us();
            entry.epochs = writer.epochs();
            entry.records = writer.records();
            manifest.entries.assign(1, entry);
            ok &= query::save_manifest(manifest, scratch_dir, &error);
          });
          out.streams += report->stream_count;
          out.meetings += report->meeting_count;
          out.absorbed += report->tier_stats.absorbed_packets;
          out.promotions += report->tier_stats.promotions;
          out.evictions += report->tier_stats.evictions;
        });
    out.persist_ns += timed(tracer, "analysis.persist", root,
                            [&] { ok &= writer.finalize(&error); });
    tracer.end(root);
    std::error_code ec;
    out.journal_bytes =
        std::filesystem::file_size(scratch_dir + "/" + journal_name, ec);
    return ledger.check(ok && !ec, "engine probe " + error);
  }
}

}  // namespace zpm::perfbench
