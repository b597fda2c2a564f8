// Fig. 10 — validation of the frame-rate, latency and jitter estimators
// against the client-side ground truth ("Zoom QoS data"): a 5-6 minute
// two-party call with two cross-traffic bursts, exactly the §5
// controlled-experiment setup.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/analyzer.h"
#include "sim/meeting.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace zpm;

int main(int argc, char** argv) {
  bench::banner("Fig. 10", "Estimation Accuracies From Single Experiment");

  // Controlled experiment: 2 participants, 340 s, cross-traffic at
  // ~100 s and ~220 s for ~18 s each (the paper ran bandwidth tests
  // twice per call).
  sim::MeetingConfig mc;
  mc.seed = 10;
  mc.start = util::Timestamp::from_seconds(0);
  mc.duration = util::Duration::seconds(340);
  mc.collect_qos = true;
  sim::ParticipantConfig a, b;
  a.ip = net::Ipv4Addr(10, 8, 0, 1);
  b.ip = net::Ipv4Addr(10, 8, 0, 2);
  a.video.reduced_mode_fraction = 0.0;  // steady 28 fps unless congested
  b.video.reduced_mode_fraction = 0.0;
  a.wan_path.base_delay_ms = 9.0;
  b.wan_path.base_delay_ms = 9.0;
  for (double start_s : {100.0, 220.0}) {
    sim::CongestionEpisode ep;
    ep.start = util::Timestamp::from_seconds(start_s);
    ep.end = util::Timestamp::from_seconds(start_s + 18.0);
    ep.extra_delay_ms = 45.0;
    ep.extra_loss = 0.015;
    a.congestion.push_back(ep);
    b.congestion.push_back(ep);
  }
  mc.participants = {a, b};

  sim::MeetingSim sim(mc);
  core::AnalyzerConfig cfg;
  core::Analyzer analyzer(cfg);
  while (auto pkt = sim.next_packet()) analyzer.offer(*pkt);
  analyzer.finish();

  // Ground truth per second (receiver 1 watches participant 0's video).
  std::map<int, sim::QosSample> qos_by_sec;
  for (const auto& q : sim.qos_samples())
    if (q.receiver == 1) qos_by_sec[static_cast<int>(q.t.sec())] = q;

  // Estimates per second from the downlink copy of participant 0's video
  // stream arriving at participant 1.
  const core::StreamInfo* watched = nullptr;
  for (const auto& s : analyzer.streams().streams()) {
    if (s->kind == zoom::MediaKind::Video &&
        s->direction == core::StreamDirection::FromSfu && s->client_ip == b.ip) {
      watched = s.get();
      break;
    }
  }
  if (!watched) {
    std::printf("ERROR: watched stream not found\n");
    return 1;
  }

  const char* csv_path = argc > 1 ? argv[1] : nullptr;
  std::unique_ptr<util::CsvWriter> csv;
  if (csv_path) {
    csv = std::make_unique<util::CsvWriter>(csv_path);
    csv->row({"t_s", "est_fps", "qos_fps", "est_latency_ms", "qos_latency_ms",
              "est_jitter_ms", "qos_jitter_ms"});
  }

  util::RunningStats fps_abs_err, lat_err;
  double est_jitter_peak = 0, qos_jitter_peak = 0;
  double fps_quiet_sum = 0, fps_burst_sum = 0;
  int fps_quiet_n = 0, fps_burst_n = 0;
  std::printf("time   est_fps qos_fps | est_lat qos_lat | est_jit qos_jit\n");
  std::printf("----------------------------------------------------------\n");
  for (const auto& sec : watched->metrics->seconds()) {
    int t = static_cast<int>(sec.bin_start.sec());
    auto it = qos_by_sec.find(t);
    if (it == qos_by_sec.end()) continue;
    const auto& q = it->second;
    double est_fps = sec.frame_rate_fps;
    double est_lat = sec.latency_ms.value_or(-1);
    double est_jit = sec.jitter_ms.value_or(-1);
    fps_abs_err.add(std::abs(est_fps - q.frame_rate));
    if (est_lat >= 0) lat_err.add(est_lat - q.latency_ms);
    if (est_jit > est_jitter_peak) est_jitter_peak = est_jit;
    if (q.jitter_ms > qos_jitter_peak) qos_jitter_peak = q.jitter_ms;
    bool in_burst = (t >= 98 && t <= 122) || (t >= 218 && t <= 242);
    if (in_burst) {
      fps_burst_sum += est_fps;
      ++fps_burst_n;
    } else if (t > 10) {
      fps_quiet_sum += est_fps;
      ++fps_quiet_n;
    }
    if (csv)
      csv->row_numeric({static_cast<double>(t), est_fps, q.frame_rate, est_lat,
                        q.latency_ms, est_jit, q.jitter_ms},
                       2);
    if (t % 20 == 0)
      std::printf("%4d   %7.1f %7.1f | %7.1f %7.1f | %7.2f %7.2f\n", t, est_fps,
                  q.frame_rate, est_lat, q.latency_ms, est_jit, q.jitter_ms);
  }

  double fps_quiet = fps_quiet_n ? fps_quiet_sum / fps_quiet_n : 0;
  double fps_burst = fps_burst_n ? fps_burst_sum / fps_burst_n : 0;
  std::printf("\nFig. 10a (frame rate): mean |est - client| = %.2f fps;\n",
              fps_abs_err.mean());
  std::printf("  quiet-period fps %.1f vs burst fps %.1f -> congestion dips\n",
              fps_quiet, fps_burst);
  const bool fps_ok = fps_quiet > fps_burst + 3.0 && fps_abs_err.mean() < 4.0;
  std::printf("  reproduced: %s (paper: ~27 fps dropping during downloads)\n",
              fps_ok ? "yes" : "NO");
  std::printf("Fig. 10b (latency): mean est-client error %.2f ms; continuous\n",
              lat_err.mean());
  std::printf("  RTT probes: %zu (client refreshes once per 5 s)\n",
              analyzer.sfu_rtt_samples().size());
  std::printf("Fig. 10c (jitter): peak estimate %.1f ms vs client-reported\n",
              est_jitter_peak);
  std::printf("  peak %.1f ms — the paper found the same mismatch: Zoom\n",
              qos_jitter_peak);
  std::printf("  reports <2 ms jitter even under congestion while the RFC 3550\n");
  const bool jitter_ok = est_jitter_peak > 3.0 && qos_jitter_peak < 2.1;
  std::printf("  computation reflects the latency fluctuation. Reproduced: %s\n",
              jitter_ok ? "yes" : "NO");
  if (csv_path) std::printf("\nper-second series written to %s\n", csv_path);
  return fps_ok && jitter_ok ? 0 : 1;  // a "NO" verdict fails the paper gate
}
