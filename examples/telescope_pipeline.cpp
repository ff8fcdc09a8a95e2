// Packet-level telescope demo: pcap bytes in, RS-DoS attack events out.
//
// Synthesizes one hour of /8 darknet traffic (three ground-truth attacks
// plus scan/misconfiguration noise), writes it through our pcap writer,
// reads it back through the batched ingest front end (src/ingest), and
// runs the Moore et al. backscatter detector over it, printing the
// inferred attack events. These are the calls `dosmeter detect --pcap`
// makes.
//
//   $ ./telescope_pipeline
#include <iostream>
#include <sstream>

#include "common/strings.h"
#include "common/time.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "parallel/detect.h"
#include "telescope/synthesizer.h"

int main() {
  using namespace dosm;
  const double t0 = static_cast<double>(StudyWindow{}.start_time());

  // Ground truth: a SYN flood on a Web server, a UDP flood on a game
  // server, and a ping flood — plus one attack too weak to pass the Moore
  // thresholds.
  std::vector<telescope::SpoofedAttackSpec> attacks{
      {.victim = net::Ipv4Addr(93, 184, 216, 34),
       .start = t0 + 300,
       .duration_s = 1200,
       .victim_pps = 60000,
       .ip_proto = 6,
       .ports = {80}},
      {.victim = net::Ipv4Addr(162, 254, 197, 36),
       .start = t0 + 900,
       .duration_s = 600,
       .victim_pps = 40000,
       .ip_proto = 17,
       .ports = {27015}},
      {.victim = net::Ipv4Addr(198, 41, 209, 124),
       .start = t0 + 1800,
       .duration_s = 900,
       .victim_pps = 30000,
       .ip_proto = 1,
       .ports = {}},
      {.victim = net::Ipv4Addr(10, 11, 12, 13),
       .start = t0 + 600,
       .duration_s = 45,  // under the 60 s threshold: filtered out
       .victim_pps = 90,  // ~16 backscatter packets: under the 25 threshold
       .ip_proto = 6,
       .ports = {443}},
  };

  telescope::TelescopeSynthesizer synthesizer(/*seed=*/7);
  const auto packets = synthesizer.synthesize(
      attacks, t0, t0 + 3600,
      {.scan_pps = 40.0, .misconfig_pps = 15.0, .benign_icmp_pps = 5.0});
  std::cout << "Synthesized " << packets.size()
            << " darknet packets over one hour\n";

  // Round-trip through the pcap format, as a real deployment would.
  std::stringstream pcap(std::ios::in | std::ios::out | std::ios::binary);
  net::PcapWriter writer(pcap);
  for (const auto& rec : packets) writer.write_packet(rec);
  std::cout << "Wrote " << writer.frames_written() << " pcap frames ("
            << pcap.str().size() << " bytes)\n";

  // The batched front end (capture thread -> SPSC ring -> decode) yields
  // the packet sequence the sequential PcapReader would; the sharded
  // detector returns the sequential detector's events at any thread count.
  const auto captured = ingest::read_packets(pcap);
  parallel::ParallelBackscatterDetector detector({2, 0});
  const auto events = detector.detect(captured);
  const auto& stats = detector.stats();

  std::cout << "\nDetector: " << stats.packets_seen << " packets, "
            << stats.backscatter_packets << " backscatter ("
            << percent(static_cast<double>(stats.backscatter_packets) /
                           static_cast<double>(stats.packets_seen),
                       1)
            << ")\n";
  std::cout << "Inferred " << events.size()
            << " randomly-spoofed attack events:\n";
  for (const auto& event : events) {
    std::cout << "  victim " << event.victim.to_string() << "  proto "
              << int(event.attack_proto) << "  port " << event.top_port
              << "  packets " << event.packets << "  duration "
              << format_duration(event.duration()) << "  max "
              << fixed(event.max_pps, 2) << " pps (x256 = "
              << fixed(event.max_pps * 256.0, 0) << " pps at victim)\n";
  }
  return 0;
}
