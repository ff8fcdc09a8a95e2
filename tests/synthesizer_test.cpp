// Telescope synthesizer tests: the packet-level tier must produce captures
// the detector recovers the ground truth from.
#include <gtest/gtest.h>

#include "telescope/flow_table.h"
#include "telescope/synthesizer.h"

namespace dosm::telescope {
namespace {

using net::Ipv4Addr;
using net::IpProto;

TEST(Synthesizer, CoverageMatchesPrefixLength) {
  TelescopeSynthesizer slash8(1);
  EXPECT_DOUBLE_EQ(slash8.coverage(), 1.0 / 256.0);
  TelescopeSynthesizer slash16(1, net::Prefix(Ipv4Addr(10, 1, 0, 0), 16));
  EXPECT_DOUBLE_EQ(slash16.coverage(), 1.0 / 65536.0);
}

TEST(Synthesizer, PacketCountTracksExpectedThinning) {
  TelescopeSynthesizer synthesizer(2);
  SpoofedAttackSpec spec;
  spec.victim = Ipv4Addr(9, 9, 9, 9);
  spec.start = 0.0;
  spec.duration_s = 600.0;
  spec.victim_pps = 25600.0;  // expected at telescope: 100 pps * 600 s
  spec.response_rate = 1.0;
  const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 600.0);
  EXPECT_NEAR(static_cast<double>(packets.size()), 60000.0, 2500.0);
  for (const auto& rec : packets) {
    EXPECT_TRUE(synthesizer.telescope().contains(rec.dst));
    EXPECT_EQ(rec.src, spec.victim);
  }
}

TEST(Synthesizer, OutputIsTimeOrderedAndClipped) {
  TelescopeSynthesizer synthesizer(3);
  SpoofedAttackSpec spec;
  spec.victim = Ipv4Addr(9, 9, 9, 9);
  spec.start = -100.0;  // starts before the window
  spec.duration_s = 400.0;
  spec.victim_pps = 30000.0;
  const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 200.0);
  ASSERT_FALSE(packets.empty());
  double prev = -1e18;
  for (const auto& rec : packets) {
    EXPECT_GE(rec.timestamp(), 0.0);
    EXPECT_LT(rec.timestamp(), 200.0);
    EXPECT_GE(rec.timestamp(), prev);
    prev = rec.timestamp();
  }
}

TEST(Synthesizer, TcpAttackYieldsSynAckAndRst) {
  TelescopeSynthesizer synthesizer(4);
  SpoofedAttackSpec spec;
  spec.victim = Ipv4Addr(9, 9, 9, 9);
  spec.duration_s = 300.0;
  spec.victim_pps = 50000.0;
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  spec.ports = {443};
  const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 300.0);
  int syn_ack = 0, rst = 0;
  for (const auto& rec : packets) {
    ASSERT_TRUE(rec.is_tcp());
    EXPECT_EQ(rec.src_port, 443);
    if ((rec.tcp_flags & net::tcp_flags::kSyn) != 0)
      ++syn_ack;
    else
      ++rst;
    EXPECT_TRUE(is_backscatter(rec));
  }
  EXPECT_GT(syn_ack, rst);  // ~80/20 mix
  EXPECT_GT(rst, 0);
}

TEST(Synthesizer, UdpAttackYieldsQuotedUnreachables) {
  TelescopeSynthesizer synthesizer(5);
  SpoofedAttackSpec spec;
  spec.victim = Ipv4Addr(9, 9, 9, 9);
  spec.duration_s = 300.0;
  spec.victim_pps = 50000.0;
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kUdp);
  spec.ports = {27015};
  const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 300.0);
  ASSERT_FALSE(packets.empty());
  for (const auto& rec : packets) {
    ASSERT_TRUE(rec.is_icmp());
    ASSERT_TRUE(rec.has_quoted);
    EXPECT_EQ(rec.quoted_proto, static_cast<std::uint8_t>(IpProto::kUdp));
    EXPECT_EQ(rec.quoted_dst, spec.victim);
    EXPECT_EQ(rec.quoted_dst_port, 27015);
    const auto info = classify_backscatter(rec);
    EXPECT_EQ(info.victim, spec.victim);
    EXPECT_EQ(info.attack_proto, static_cast<std::uint8_t>(IpProto::kUdp));
  }
}

TEST(Synthesizer, ResponseRateScalesBackscatter) {
  TelescopeSynthesizer synthesizer(6);
  SpoofedAttackSpec full, half;
  full.victim = half.victim = Ipv4Addr(9, 9, 9, 9);
  full.duration_s = half.duration_s = 600.0;
  full.victim_pps = half.victim_pps = 25600.0;
  full.response_rate = 1.0;
  half.response_rate = 0.5;
  const auto a = synthesizer.synthesize({&full, 1}, 0.0, 600.0);
  TelescopeSynthesizer synthesizer2(6);
  const auto b = synthesizer2.synthesize({&half, 1}, 0.0, 600.0);
  EXPECT_NEAR(static_cast<double>(b.size()) / static_cast<double>(a.size()), 0.5,
              0.06);
}

TEST(Synthesizer, NoiseIsNotDetectedAsAttacks) {
  TelescopeSynthesizer synthesizer(7);
  NoiseConfig noise;
  noise.scan_pps = 50.0;
  noise.misconfig_pps = 20.0;
  noise.benign_icmp_pps = 10.0;
  const auto packets = synthesizer.synthesize({}, 0.0, 1200.0, noise);
  EXPECT_GT(packets.size(), 50000u);
  BackscatterDetector detector;
  for (const auto& rec : packets) detector.on_packet(rec);
  EXPECT_EQ(detector.finish().size(), 0u);
  EXPECT_EQ(detector.backscatter_packets(), 0u);
}

TEST(Synthesizer, EndToEndRecoveryOfGroundTruth) {
  // The headline property: ground truth in, matching events out.
  TelescopeSynthesizer synthesizer(8);
  std::vector<SpoofedAttackSpec> specs(3);
  specs[0] = {.victim = Ipv4Addr(1, 0, 0, 1),
              .start = 60.0,
              .duration_s = 900.0,
              .victim_pps = 64000.0,
              .ip_proto = 6,
              .ports = {80}};
  specs[1] = {.victim = Ipv4Addr(2, 0, 0, 2),
              .start = 120.0,
              .duration_s = 600.0,
              .victim_pps = 32000.0,
              .ip_proto = 17,
              .ports = {53}};
  specs[2] = {.victim = Ipv4Addr(3, 0, 0, 3),
              .start = 300.0,
              .duration_s = 300.0,
              .victim_pps = 128000.0,
              .ip_proto = 1,
              .ports = {}};
  const auto packets = synthesizer.synthesize(
      specs, 0.0, 3600.0, {.scan_pps = 20.0, .misconfig_pps = 5.0});
  BackscatterDetector detector;
  for (const auto& rec : packets) detector.on_packet(rec);
  const auto events = detector.finish();
  ASSERT_EQ(events.size(), 3u);
  for (const auto& event : events) {
    bool matched = false;
    for (const auto& spec : specs) {
      if (event.victim != spec.victim) continue;
      matched = true;
      EXPECT_EQ(event.attack_proto, spec.ip_proto);
      EXPECT_NEAR(event.duration(), spec.duration_s, spec.duration_s * 0.05);
      // Observed max pps should be near the thinned ground-truth rate.
      const double expected_pps = spec.victim_pps / 256.0;
      EXPECT_NEAR(event.max_pps, expected_pps, expected_pps * 0.35);
      if (!spec.ports.empty()) {
        EXPECT_EQ(event.top_port, spec.ports[0]);
      }
    }
    EXPECT_TRUE(matched) << "unexpected victim " << event.victim.to_string();
  }
}

}  // namespace
}  // namespace dosm::telescope
