// Analytic observation tests: ground truth -> detected events must respect
// thresholds, coverage scaling, and statistical consistency with the
// packet-level tier.
#include <gtest/gtest.h>

#include "sim/observe.h"
#include "telescope/flow_table.h"
#include "telescope/synthesizer.h"

namespace dosm::sim {
namespace {

using net::Ipv4Addr;

GroundTruthAttack direct_attack(double victim_pps, double duration_s) {
  GroundTruthAttack attack;
  attack.kind = AttackKind::kDirect;
  attack.target = Ipv4Addr(9, 9, 9, 9);
  attack.start = 1000.0;
  attack.duration_s = duration_s;
  attack.victim_pps = victim_pps;
  attack.response_rate = 1.0;
  attack.ip_proto = 6;
  attack.ports = {80};
  return attack;
}

GroundTruthAttack reflection_attack(double rps, double duration_s,
                                    int honeypots) {
  GroundTruthAttack attack;
  attack.kind = AttackKind::kReflection;
  attack.target = Ipv4Addr(9, 9, 9, 9);
  attack.start = 1000.0;
  attack.duration_s = duration_s;
  attack.per_reflector_rps = rps;
  attack.honeypots_hit = honeypots;
  attack.reflector = amppot::ReflectionProtocol::kNtp;
  return attack;
}

TEST(ObserveTelescope, StrongAttackIsDetectedAccurately) {
  Rng rng(1);
  // 25600 pps at the victim -> 100 pps at the telescope.
  const auto attack = direct_attack(25600.0, 600.0);
  const auto event = observe_telescope(attack, rng);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->victim, attack.target);
  EXPECT_NEAR(static_cast<double>(event->packets), 60000.0, 2500.0);
  EXPECT_NEAR(event->duration(), 600.0, 5.0);
  EXPECT_NEAR(event->max_pps, 100.0, 15.0);
  EXPECT_EQ(event->attack_proto, 6);
  EXPECT_EQ(event->top_port, 80);
  EXPECT_EQ(event->num_ports, 1);
}

TEST(ObserveTelescope, WeakAttackIsFiltered) {
  Rng rng(2);
  // 256 pps at victim -> 1 pps at scope, but only 10 seconds: ~10 packets.
  EXPECT_FALSE(observe_telescope(direct_attack(256.0, 10.0), rng).has_value());
  // Long but glacial: 0.05 pps at scope -> fails the max-pps threshold.
  int detections = 0;
  for (int i = 0; i < 20; ++i) {
    if (observe_telescope(direct_attack(12.8, 3600.0), rng)) ++detections;
  }
  EXPECT_EQ(detections, 0);
}

TEST(ObserveTelescope, ReflectionAttacksAreInvisible) {
  Rng rng(3);
  EXPECT_FALSE(observe_telescope(reflection_attack(100.0, 600.0, 24), rng)
                   .has_value());
}

TEST(ObserveTelescope, ResponseRateReducesDetection) {
  Rng rng(4);
  auto attack = direct_attack(25600.0, 600.0);
  attack.response_rate = 0.5;
  const auto event = observe_telescope(attack, rng);
  ASSERT_TRUE(event.has_value());
  EXPECT_NEAR(static_cast<double>(event->packets), 30000.0, 2000.0);
}

TEST(ObserveTelescope, CustomCoverageScales) {
  Rng rng(5);
  ObservationConfig config;
  config.telescope_coverage = 1.0 / 65536.0;  // a /16 telescope
  const auto event = observe_telescope(direct_attack(25600.0, 600.0), rng, config);
  // Expected packets: 25600/65536*600 = 234; still above 25 but rate is
  // ~0.39 pps < 0.5 max-pps threshold -> usually filtered.
  if (event) {
    EXPECT_LT(event->packets, 400u);
  }
}

TEST(ObserveAmppot, StrongAttackIsDetected) {
  Rng rng(6);
  const auto attack = reflection_attack(10.0, 600.0, 12);
  const auto event = observe_amppot(attack, rng);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->victim, attack.target);
  EXPECT_EQ(event->protocol, amppot::ReflectionProtocol::kNtp);
  EXPECT_EQ(event->honeypots, 12u);
  EXPECT_NEAR(static_cast<double>(event->requests), 72000.0, 4000.0);
  EXPECT_NEAR(event->avg_rps(), 10.0, 1.5);
}

TEST(ObserveAmppot, BelowThresholdFiltered) {
  Rng rng(7);
  // 0.1 rps x 600 s = 60 requests per honeypot: under the 100 threshold.
  EXPECT_FALSE(observe_amppot(reflection_attack(0.1, 600.0, 24), rng).has_value());
  // Invisible when no honeypot is on the reflector list.
  EXPECT_FALSE(observe_amppot(reflection_attack(100.0, 600.0, 0), rng).has_value());
  // Direct attacks are invisible to honeypots.
  EXPECT_FALSE(observe_amppot(direct_attack(25600.0, 600.0), rng).has_value());
}

TEST(ObserveAmppot, DurationCappedAt24h) {
  Rng rng(8);
  const auto attack = reflection_attack(5.0, 30.0 * 3600.0, 8);
  const auto event = observe_amppot(attack, rng);
  ASSERT_TRUE(event.has_value());
  EXPECT_LE(event->duration(), 24.0 * 3600.0 + 1.0);
}

TEST(ObserveAll, RoutesByKind) {
  Rng rng(9);
  std::vector<GroundTruthAttack> attacks{direct_attack(25600.0, 600.0),
                                         reflection_attack(10.0, 600.0, 12),
                                         direct_attack(128.0, 30.0)};  // weak
  const auto observed = observe_all(attacks, rng);
  EXPECT_EQ(observed.telescope.size(), 1u);
  EXPECT_EQ(observed.honeypot.size(), 1u);
}

// The ablation check in miniature: the analytic tier and the packet tier
// must agree on the detection verdict and key statistics for identical
// ground truth.
class TierAgreement : public ::testing::TestWithParam<double> {};

TEST_P(TierAgreement, AnalyticMatchesPacketLevel) {
  const double victim_pps = GetParam();
  const double duration = 400.0;

  // Analytic tier: detection probability over repetitions.
  Rng rng(42);
  int analytic_detections = 0;
  constexpr int kReps = 10;
  for (int i = 0; i < kReps; ++i) {
    if (observe_telescope(direct_attack(victim_pps, duration), rng))
      ++analytic_detections;
  }

  // Packet tier: one full synthesis + Moore pipeline.
  telescope::TelescopeSynthesizer synthesizer(43);
  telescope::SpoofedAttackSpec spec;
  spec.victim = Ipv4Addr(9, 9, 9, 9);
  spec.start = 1000.0;
  spec.duration_s = duration;
  spec.victim_pps = victim_pps;
  spec.ports = {80};
  const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 5000.0);
  telescope::BackscatterDetector detector;
  for (const auto& rec : packets) detector.on_packet(rec);
  const auto events = detector.finish();
  const bool packet_detected = !events.empty();

  if (victim_pps >= 2000.0) {
    EXPECT_EQ(analytic_detections, kReps);
    EXPECT_TRUE(packet_detected);
    // Compare max-pps estimates between tiers.
    Rng rng2(44);
    const auto analytic = observe_telescope(direct_attack(victim_pps, duration), rng2);
    ASSERT_TRUE(analytic.has_value());
    EXPECT_NEAR(analytic->max_pps, events[0].max_pps,
                std::max(1.0, 0.5 * analytic->max_pps));
  } else if (victim_pps <= 30.0) {
    EXPECT_EQ(analytic_detections, 0);
    EXPECT_FALSE(packet_detected);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, TierAgreement,
                         ::testing::Values(10.0, 30.0, 2000.0, 25600.0, 256000.0));

}  // namespace
}  // namespace dosm::sim
