// Fig. 16 — lack of correlation between jitter and bit rate / frame
// rate: 1,500 random per-second video samples, Pearson and Spearman.
// Low frame rates are usually user-interaction artifacts (thumbnail
// mode), not network problems.
#include <cstdio>
#include <vector>

#include "analysis/campus_run.h"
#include "bench_common.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace zpm;

int main() {
  bench::banner("Fig. 16", "Lack of Correlation between Jitter and other Metrics");
  const auto& run = analysis::default_campus_run();

  // Collect video samples with a jitter estimate, then draw 1500
  // uniformly (the paper's methodology).
  std::vector<const analysis::SampleRow*> video;
  for (const auto& s : run.samples) {
    if (static_cast<zoom::MediaKind>(s.kind) != zoom::MediaKind::Video) continue;
    if (s.jitter_ms < 0 || s.media_bitrate_bps <= 0) continue;
    video.push_back(&s);
  }
  util::Rng rng(16);
  std::vector<double> jitter, bitrate, fps;
  std::size_t want = std::min<std::size_t>(1500, video.size());
  for (std::size_t i = 0; i < want; ++i) {
    const auto* s = video[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(video.size()) - 1))];
    jitter.push_back(s->jitter_ms);
    bitrate.push_back(s->media_bitrate_bps / 1e6);
    fps.push_back(s->frame_rate);
  }
  std::printf("samples: %zu random 1-second video bins (of %zu available)\n\n",
              want, video.size());

  util::TextTable table;
  table.header({"Pair", "Pearson r", "Spearman rho"},
               {util::Align::Left, util::Align::Right, util::Align::Right});
  double p_rate = util::pearson(jitter, bitrate);
  double s_rate = util::spearman(jitter, bitrate);
  double p_fps = util::pearson(jitter, fps);
  double s_fps = util::spearman(jitter, fps);
  table.row({"jitter vs bit rate (16a)", util::fixed(p_rate, 3), util::fixed(s_rate, 3)});
  table.row({"jitter vs frame rate (16b)", util::fixed(p_fps, 3), util::fixed(s_fps, 3)});
  std::printf("%s\n", table.render().c_str());

  // The two frame-rate modes visible as clusters (Fig. 16b).
  int near14 = 0, near28 = 0;
  for (double f : fps) {
    if (f >= 11 && f <= 17) ++near14;
    if (f >= 24 && f <= 31) ++near28;
  }
  std::printf("frame-rate clusters: %.0f%% near 14 fps, %.0f%% near 28 fps\n",
              100.0 * near14 / static_cast<double>(want),
              100.0 * near28 / static_cast<double>(want));
  std::printf("\npaper: no direct correlation between jitter and either metric\n");
  std::printf("(bit-/frame-rate adaptations mostly NOT network-driven).\n");
  const bool reproduced = std::abs(p_rate) < 0.3 && std::abs(p_fps) < 0.3;
  std::printf("reproduced: |r| < 0.3 for both pairs: %s\n", reproduced ? "yes" : "NO");
  return reproduced ? 0 : 1;  // a "NO" verdict fails the paper gate
}
