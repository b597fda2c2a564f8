// zpm_pcap_filter — the offline counterpart of the P4 capture program
// (Fig. 13): read a large mixed capture, keep only Zoom traffic
// (stateless IP match + stateful STUN-armed P2P match), optionally
// anonymize prefix-preservingly, and write the filtered pcap the
// analysis tools consume. This is what the paper's pipeline does before
// any analysis ("takes all campus packets as input and only allows Zoom
// packets to pass through to tcpdump").
//
// Usage: zpm_pcap_filter <in.pcap[ng]> <out.pcap> [options]
//        zpm_pcap_filter --demo <out.pcap> [options]
//
// The options are the kFilter rows of the option table in
// src/analysis/options.h; a usage error prints their usage text.
#include <cstdio>
#include <string>

#include "analysis/options.h"
#include "capture/filter.h"
#include "net/pcapng.h"
#include "sim/campus.h"
#include "util/strings.h"

using namespace zpm;

int main(int argc, char** argv) {
  capture::CaptureConfig cfg;
  const auto table = analysis::pcap_filter_options(cfg);
  const char* synopsis = "zpm_pcap_filter <in.pcap[ng]>|--demo <out.pcap> [options]";
  if (argc < 3) return analysis::usage_error(table, "", synopsis);
  const auto args = analysis::parse_args(table, {argv + 3, argv + argc});
  if (!args.error.empty()) return analysis::usage_error(table, args.error, synopsis);
  const std::string input = argv[1];
  const std::string output = argv[2];

  if (cfg.campus_subnets.empty())
    cfg.campus_subnets.push_back(net::Ipv4Subnet(net::Ipv4Addr(10, 0, 0, 0), 8));

  capture::CaptureFilter filter(cfg);
  net::PcapWriter writer(output);
  if (!writer.ok()) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }

  auto feed = [&](const net::RawPacket& pkt) {
    if (auto kept = filter.process(pkt)) writer.write(*kept);
  };

  if (input == "--demo") {
    sim::CampusConfig campus_cfg;
    campus_cfg.seed = 31;
    campus_cfg.duration = util::Duration::seconds(900);
    campus_cfg.meetings_per_peak_hour = 8;
    campus_cfg.background_ratio = 2.0;
    sim::CampusSimulation campus(campus_cfg);
    while (auto pkt = campus.next_packet()) feed(*pkt);
  } else {
    auto source = net::open_capture(input);
    if (!source) {
      std::fprintf(stderr, "cannot open %s (not pcap/pcapng?)\n", input.c_str());
      return 1;
    }
    while (auto pkt = source->next()) feed(*pkt);
    if (!source->ok())
      std::fprintf(stderr, "warning: capture ended with error: %s\n",
                   source->error().c_str());
  }

  const auto& c = filter.counters();
  std::printf("processed %s packets -> kept %s Zoom packets (%.1f%%)\n",
              util::with_commas(c.processed).c_str(),
              util::with_commas(c.passed).c_str(),
              c.processed ? 100.0 * static_cast<double>(c.passed) /
                                static_cast<double>(c.processed)
                          : 0.0);
  std::printf("  stateless IP matches: %s | stateful P2P matches: %s | STUN: %s\n",
              util::with_commas(c.zoom_ip_matched).c_str(),
              util::with_commas(c.p2p_matched).c_str(),
              util::with_commas(c.stun_observed).c_str());
  std::printf("wrote %s (%s)\n", output.c_str(),
              cfg.anonymize ? "anonymized" : "NOT anonymized");
  return 0;
}
