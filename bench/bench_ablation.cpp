// Ablations of the design choices DESIGN.md calls out:
//   1. Moore classification thresholds: event counts under sweeps of the
//      packet/duration/rate thresholds and the flow timeout.
//   2. Honeypot fleet size: the paper's claim that 24 instances suffice to
//      catch most reflection attacks.
//   3. Two-tier fidelity: detection agreement between the packet-level
//      pipeline and the analytic observation tier on shared ground truth.
#include "bench_common.h"
#include "amppot/fleet.h"
#include "parallel/detect.h"
#include "sim/observe.h"
#include "telescope/synthesizer.h"

namespace {

using namespace dosm;

// A mixed ground-truth population for the threshold sweeps: steady attacks
// plus pulsed ones (two bursts separated by a 240 s lull) that the flow
// timeout either merges (>=300 s) or splits (60 s) into separate events.
std::vector<telescope::SpoofedAttackSpec> sweep_attacks(Rng& rng, int n) {
  std::vector<telescope::SpoofedAttackSpec> specs;
  for (int i = 0; i < n; ++i) {
    telescope::SpoofedAttackSpec spec;
    spec.victim = net::Ipv4Addr(0x0a000000u + static_cast<std::uint32_t>(i));
    spec.start = rng.uniform(0.0, 43200.0);
    spec.duration_s = rng.lognormal(6.12, 1.9);
    spec.victim_pps = 256.0 * rng.lognormal(0.5, 2.0);
    spec.ports = {80};
    specs.push_back(spec);
  }
  for (int i = 0; i < 30; ++i) {
    telescope::SpoofedAttackSpec burst;
    burst.victim =
        net::Ipv4Addr(0x0c000000u + static_cast<std::uint32_t>(i));
    burst.start = rng.uniform(50000.0, 80000.0);
    burst.duration_s = 300.0;
    burst.victim_pps = 256.0 * 50.0;
    burst.ports = {443};
    specs.push_back(burst);
    burst.start += burst.duration_s + 240.0;  // second pulse after the lull
    specs.push_back(burst);
  }
  return specs;
}

void threshold_sweep() {
  print_section(std::cout, "Ablation 1: Moore thresholds");
  Rng rng(404);
  const auto specs = sweep_attacks(rng, 150);
  telescope::TelescopeSynthesizer synthesizer(405);
  const auto packets =
      synthesizer.synthesize(specs, 0.0, 2.0 * 86400.0,
                             {.scan_pps = 30.0, .misconfig_pps = 10.0});
  std::cout << "ground truth: " << specs.size() << " attacks, "
            << packets.size() << " captured packets\n";

  TextTable table({"min_pkts", "min_dur", "min_pps", "timeout", "events"});
  struct Row {
    telescope::ClassifierThresholds t;
    double timeout;
  };
  const Row rows[] = {
      {{25, 60.0, 0.5}, 300.0},   // paper defaults
      {{5, 60.0, 0.5}, 300.0},    // relaxed packets
      {{100, 60.0, 0.5}, 300.0},  // strict packets
      {{25, 10.0, 0.5}, 300.0},   // relaxed duration
      {{25, 300.0, 0.5}, 300.0},  // strict duration
      {{25, 60.0, 0.1}, 300.0},   // relaxed rate
      {{25, 60.0, 2.0}, 300.0},   // strict rate
      {{25, 60.0, 0.5}, 60.0},    // short flow timeout (splits attacks)
      {{25, 60.0, 0.5}, 1800.0},  // long flow timeout (merges attacks)
  };
  for (const auto& row : rows) {
    parallel::ParallelBackscatterDetector detector({1, 0}, row.t, row.timeout);
    table.add_row({std::to_string(row.t.min_packets),
                   fixed(row.t.min_duration_s, 0) + "s",
                   fixed(row.t.min_max_pps, 1), fixed(row.timeout, 0) + "s",
                   std::to_string(detector.detect(packets).size())});
  }
  std::cout << table;
  std::cout << "Expectation: relaxing any threshold admits more events; the\n"
               "short flow timeout splits intermittent attacks into several\n"
               "events; the paper's conservative defaults sit in between.\n";
}

void fleet_size_sweep() {
  print_section(std::cout,
                "Ablation 2: honeypot fleet size (24 suffice, [7])");
  TextTable table({"fleet size", "attacks detected", "share of 120"});
  for (const int size : {1, 2, 4, 8, 16, 24}) {
    amppot::HoneypotFleet fleet(777, size);
    Rng rng(778);
    std::vector<amppot::ReflectionAttackSpec> specs;
    for (int i = 0; i < 120; ++i) {
      amppot::ReflectionAttackSpec spec;
      spec.victim = net::Ipv4Addr(0x0b000000u + static_cast<std::uint32_t>(i));
      spec.start = rng.uniform(0.0, 43200.0);
      spec.duration_s = 600.0;
      spec.per_reflector_rps = 2.0;
      // The attacker scans for reflectors; each honeypot lands on the list
      // with probability ~0.8 regardless of how many we deploy.
      spec.honeypots_hit = static_cast<int>(rng.binomial(
          static_cast<std::uint64_t>(size), 0.8));
      specs.push_back(spec);
    }
    fleet.run(specs, 0.0, 86400.0);
    const auto events = fleet.harvest();
    table.add_row({std::to_string(size), std::to_string(events.size()),
                   percent(double(events.size()) / 120.0, 1)});
  }
  std::cout << table;
  std::cout << "Expectation: coverage saturates quickly — a handful of\n"
               "instances already catches most attacks; 24 is comfortably\n"
               "past the knee (diminishing returns), matching [7].\n";
}

void tier_agreement() {
  print_section(std::cout, "Ablation 3: packet tier vs analytic tier");
  Rng truth_rng(901);
  int agree = 0, packet_only = 0, analytic_only = 0;
  constexpr int kTrials = 60;
  for (int i = 0; i < kTrials; ++i) {
    const double victim_pps = 256.0 * truth_rng.lognormal(0.0, 2.0);
    const double duration = truth_rng.lognormal(6.0, 1.2);

    telescope::SpoofedAttackSpec spec;
    spec.victim = net::Ipv4Addr(9, 9, 9, 9);
    spec.start = 1000.0;
    spec.duration_s = duration;
    spec.victim_pps = victim_pps;
    spec.ports = {80};
    telescope::TelescopeSynthesizer synthesizer(static_cast<std::uint64_t>(902 + i));
    const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 5e5);
    parallel::ParallelBackscatterDetector detector({1, 0});
    const bool packet_detected = !detector.detect(packets).empty();

    sim::GroundTruthAttack attack;
    attack.kind = sim::AttackKind::kDirect;
    attack.target = spec.victim;
    attack.start = spec.start;
    attack.duration_s = duration;
    attack.victim_pps = victim_pps;
    attack.ports = {80};
    Rng observe_rng(static_cast<std::uint64_t>(1000 + i));
    const bool analytic_detected =
        sim::observe_telescope(attack, observe_rng).has_value();

    if (packet_detected == analytic_detected)
      ++agree;
    else if (packet_detected)
      ++packet_only;
    else
      ++analytic_only;
  }
  std::cout << "verdict agreement: " << agree << "/" << kTrials << " ("
            << percent(double(agree) / kTrials, 1) << "); packet-only "
            << packet_only << ", analytic-only " << analytic_only << "\n";
  std::cout << "Disagreements cluster at the detection threshold where both\n"
               "tiers are coin-flips by construction (Poisson sampling).\n";
}

}  // namespace

int main() {
  bench::print_header("Ablations", "design-choice sensitivity checks");
  threshold_sweep();
  fleet_size_sweep();
  tier_agreement();
  return 0;
}
