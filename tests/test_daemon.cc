// End-to-end daemon lifecycle: drain, crash recovery with byte-
// identical epoch reports (serial and sharded), the stalled-source
// watchdog, graceful shutdown from another thread, and SIGHUP config
// reload. The crash in these tests is halt_after_epochs — an in-
// process kill -9 at an epoch boundary (no final flush, no shutdown
// snapshot); the real-signal variant lives in the CI soak job.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/daemon.h"
#include "net/live_source.h"
#include "net/pcap.h"
#include "sim/meeting.h"

namespace zpm::analysis {
namespace {

namespace fs = std::filesystem;

/// A 20 s simulated meeting trace, written once.
const std::string& meeting_trace() {
  static const std::string path = [] {
    // PID-unique: parallel ctest workers share /tmp.
    const std::string p = ::testing::TempDir() + "/daemon_meeting." +
                          std::to_string(::getpid()) + ".pcap";
    sim::MeetingConfig mc;
    mc.seed = 31;
    mc.start = util::Timestamp::from_seconds(1'700'000'000);
    mc.duration = util::Duration::seconds(20);
    sim::ParticipantConfig a, b, c;
    a.ip = net::Ipv4Addr(10, 8, 1, 20);
    b.ip = net::Ipv4Addr(10, 8, 2, 31);
    c.ip = net::Ipv4Addr(98, 0, 0, 3);
    c.on_campus = false;
    mc.participants = {a, b, c};
    sim::MeetingSim sim(mc);
    net::PcapWriter writer(p);
    while (auto pkt = sim.next_packet()) writer.write(*pkt);
    EXPECT_TRUE(writer.ok());
    EXPECT_GT(writer.packets_written(), 2000u);
    return p;
  }();
  return path;
}

/// Fresh per-test state directory.
fs::path state_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::to_string(::getpid()) + "_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

DaemonConfig base_config(const fs::path& dir, std::uint64_t epoch_packets,
                         std::size_t shards = 1) {
  DaemonConfig config;
  config.engine.shards = shards;
  config.engine.limits.max_packets = epoch_packets;
  config.engine.limits.max_span = util::Duration::micros(0);
  config.snapshot_path = (dir / "snapshot.bin").string();
  config.report_dir = dir.string();
  config.watchdog = util::Duration::micros(0);  // tests enable explicitly
  config.verbose = false;
  return config;
}

std::vector<std::uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Sorted epoch-NNNNNNNN.bin paths in `dir`.
std::vector<fs::path> epoch_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.starts_with("epoch-") && name.ends_with(".bin"))
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

net::ReplayLiveSource make_replay(std::uint64_t loops = 1) {
  net::ReplayLiveSourceConfig cfg;
  cfg.path = meeting_trace();
  cfg.loops = loops;
  return net::ReplayLiveSource(cfg);
}

TEST(MonitorDaemon, DrainsTraceAndPersistsEverything) {
  const auto dir = state_dir("daemon_drain");
  MonitorDaemon daemon(base_config(dir, 900));
  auto source = make_replay();
  ASSERT_TRUE(source.ok()) << source.error();

  EXPECT_EQ(daemon.run(source), 0);
  EXPECT_EQ(daemon.restore_status(), RestoreStatus::Missing);
  EXPECT_GE(daemon.stats().epochs_rotated, 2u);
  EXPECT_EQ(daemon.stats().packets_processed, source.trace_packets());
  EXPECT_EQ(daemon.stats().epoch_files_written, daemon.stats().epochs_rotated);
  EXPECT_EQ(daemon.stats().snapshots_written, daemon.stats().epochs_rotated);

  // Every epoch file parses; sequence numbers are contiguous from 0 and
  // global packet indices tile the stream exactly.
  const auto files = epoch_files(dir);
  ASSERT_EQ(files.size(), daemon.stats().epochs_rotated);
  std::uint64_t expect_first = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    EpochReport rep;
    std::string error;
    ASSERT_TRUE(load_epoch_report(files[i].string(), rep, &error)) << error;
    EXPECT_EQ(rep.seq, i);
    EXPECT_EQ(rep.first_packet, expect_first);
    expect_first += rep.packets;
  }
  EXPECT_EQ(expect_first, source.trace_packets());

  // The final snapshot records the fully-consumed stream.
  SnapshotData snap;
  std::string error;
  ASSERT_EQ(load_snapshot(base_config(dir, 900).snapshot_path, snap, &error),
            RestoreStatus::Ok)
      << error;
  EXPECT_EQ(snap.packets_consumed, source.trace_packets());
  EXPECT_EQ(snap.next_epoch_seq, files.size());
  EXPECT_EQ(snap.cumulative_counters.total_packets, source.trace_packets());
}

/// Crash recovery byte-identity at a given shard count: run once
/// uninterrupted, then again with a simulated kill -9 after two epochs
/// plus a restart; every epoch file must match byte for byte.
void crash_recovery_roundtrip(const char* tag, std::size_t shards) {
  const auto clean_dir = state_dir((std::string("daemon_clean_") + tag).c_str());
  {
    MonitorDaemon daemon(base_config(clean_dir, 700, shards));
    auto source = make_replay();
    ASSERT_EQ(daemon.run(source), 0);
    ASSERT_GE(daemon.stats().epochs_rotated, 4u)
        << "trace too short for a meaningful interruption";
  }

  const auto crash_dir = state_dir((std::string("daemon_crash_") + tag).c_str());
  const std::uint64_t halt_after = 2;
  {
    auto config = base_config(crash_dir, 700, shards);
    config.halt_after_epochs = halt_after;
    MonitorDaemon halted(std::move(config));
    auto source = make_replay();
    ASSERT_EQ(halted.run(source), 0);
    EXPECT_EQ(halted.stats().epochs_rotated, halt_after);
  }
  // Lost work is bounded to the interrupted epoch: the snapshot resumes
  // exactly at the last completed boundary.
  {
    SnapshotData snap;
    std::string error;
    ASSERT_EQ(load_snapshot((crash_dir / "snapshot.bin").string(), snap, &error),
              RestoreStatus::Ok)
        << error;
    EXPECT_EQ(snap.next_epoch_seq, halt_after);
    EXPECT_EQ(snap.packets_consumed, halt_after * 700);
  }
  {
    MonitorDaemon daemon(base_config(crash_dir, 700, shards));
    auto source = make_replay();
    ASSERT_EQ(daemon.run(source), 0);
    EXPECT_EQ(daemon.restore_status(), RestoreStatus::Ok);
  }

  const auto clean = epoch_files(clean_dir);
  const auto crashed = epoch_files(crash_dir);
  ASSERT_EQ(clean.size(), crashed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].filename(), crashed[i].filename());
    EXPECT_EQ(file_bytes(clean[i]), file_bytes(crashed[i]))
        << "epoch file " << clean[i].filename() << " differs after recovery";
  }
  EXPECT_EQ(file_bytes(clean_dir / "snapshot.bin"),
            file_bytes(crash_dir / "snapshot.bin"));
}

TEST(MonitorDaemon, CrashRecoveryIsByteIdenticalSerial) {
  crash_recovery_roundtrip("serial", 1);
}

TEST(MonitorDaemon, CrashRecoveryIsByteIdenticalSharded) {
  crash_recovery_roundtrip("sharded", 4);
}

TEST(MonitorDaemon, CorruptSnapshotFallsBackToFreshStart) {
  const auto dir = state_dir("daemon_corrupt");
  auto config = base_config(dir, 900);
  {
    std::ofstream out(config.snapshot_path, std::ios::binary);
    out << "not a snapshot at all";
  }
  MonitorDaemon daemon(std::move(config));
  auto source = make_replay();
  ASSERT_EQ(daemon.run(source), 0);
  EXPECT_EQ(daemon.restore_status(), RestoreStatus::Corrupt);
  // Fresh start: numbering begins at 0 and the whole stream is covered.
  EXPECT_EQ(daemon.cumulative().cumulative_counters.total_packets,
            source.trace_packets());
  const auto files = epoch_files(dir);
  ASSERT_FALSE(files.empty());
  EpochReport first;
  ASSERT_TRUE(load_epoch_report(files.front().string(), first, nullptr));
  EXPECT_EQ(first.seq, 0u);
}

TEST(MonitorDaemon, WatchdogReopensStalledSource) {
  const auto dir = state_dir("daemon_watchdog");
  auto config = base_config(dir, 900);
  config.watchdog = util::Duration::millis(50);
  config.idle_sleep = util::Duration::millis(1);
  config.backoff_initial = util::Duration::millis(10);
  MonitorDaemon daemon(std::move(config));

  net::ReplayLiveSourceConfig src_cfg;
  src_cfg.path = meeting_trace();
  src_cfg.stall_after_packets = 1000;
  net::ReplayLiveSource source(src_cfg);
  ASSERT_TRUE(source.ok());

  EXPECT_EQ(daemon.run(source), 0);
  // The stall was detected, health-accounted, and recovered from — and
  // no packet was lost to it.
  EXPECT_GE(daemon.stats().source_stalls, 1u);
  EXPECT_GE(source.reopen_count(), 1u);
  EXPECT_GE(daemon.cumulative().cumulative_health.source_stalls, 1u);
  EXPECT_EQ(daemon.stats().packets_processed, source.trace_packets());
}

TEST(MonitorDaemon, ShutdownRequestDrainsInfiniteSource) {
  const auto dir = state_dir("daemon_shutdown");
  auto config = base_config(dir, 900);
  MonitorDaemon daemon(std::move(config));
  auto source = make_replay(/*loops=*/0);  // endless
  ASSERT_TRUE(source.ok());

  int exit_code = -1;
  std::thread runner([&] { exit_code = daemon.run(source); });
  // Let it chew through at least one rotation, then ask for a drain —
  // the same path SIGTERM/SIGINT take.
  while (daemon.stats().epochs_rotated < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  daemon.request_shutdown();
  runner.join();

  EXPECT_EQ(exit_code, 0);
  // The drain flushed the partial epoch into the cumulative totals.
  EXPECT_EQ(daemon.cumulative().cumulative_counters.total_packets,
            daemon.stats().packets_processed);
  EXPECT_GT(daemon.stats().packets_processed, 0u);
}

TEST(MonitorDaemon, ReloadAppliesLimitsImmediately) {
  const auto dir = state_dir("daemon_reload");
  auto config = base_config(dir, 100'000'000);  // would never rotate
  config.config_path = (dir / "daemon.conf").string();
  {
    std::ofstream out(config.config_path);
    out << "# shrink epochs drastically\n";
    out << "epoch_packets = 800\n";
  }
  MonitorDaemon daemon(std::move(config));
  daemon.request_reload();  // pending before the first poll
  auto source = make_replay();
  ASSERT_EQ(daemon.run(source), 0);

  EXPECT_EQ(daemon.stats().config_reloads, 1u);
  EXPECT_GE(daemon.stats().epochs_rotated, 2u)
      << "reloaded 800-packet limit never took effect";
  EpochReport first;
  ASSERT_TRUE(
      load_epoch_report(epoch_files(dir).front().string(), first, nullptr));
  EXPECT_EQ(first.packets, 800u);
}

// A malformed value is ignored like an unknown key: "8e2" must not be
// read as an 8-packet epoch limit.
TEST(MonitorDaemon, ReloadIgnoresMalformedValues) {
  const auto dir = state_dir("daemon_reload_malformed");
  auto config = base_config(dir, 100'000'000);  // would never rotate
  config.config_path = (dir / "daemon.conf").string();
  {
    std::ofstream out(config.config_path);
    out << "epoch_packets = 8e2\n";
    out << "frontend = false\n";
  }
  MonitorDaemon daemon(std::move(config));
  daemon.request_reload();
  auto source = make_replay();
  ASSERT_EQ(daemon.run(source), 0);
  EXPECT_EQ(daemon.stats().config_reloads, 1u);
  EXPECT_EQ(daemon.stats().epochs_rotated, 1u);  // the final drain only
}

TEST(MonitorDaemon, FatalSourceErrorExitsNonzero) {
  const auto dir = state_dir("daemon_fatal");
  auto config = base_config(dir, 900);
  config.backoff_initial = util::Duration::millis(1);
  MonitorDaemon daemon(std::move(config));
  net::ReplayLiveSourceConfig src_cfg;
  src_cfg.path = (dir / "missing.pcap").string();
  net::ReplayLiveSource source(src_cfg);
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(daemon.run(source), 1);
}

}  // namespace
}  // namespace zpm::analysis
