// §4 joint attacks — targets hit by both randomly-spoofed and reflection
// attacks simultaneously, with the paper's distribution shifts.
#include <map>

#include "bench_common.h"
#include "core/joint.h"
#include "core/ports.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Joint attacks (§4)",
      "282k common targets, 137k hit simultaneously; joint attacks: 77.1% "
      "single-port, 27015/UDP at 53%, HTTP 50.23%, NTP up to 47.0%, CharGen "
      "halved to 11.5%; OVH is the top joint-target AS (12.3%)");

  const auto& world = bench::shared_world();
  const core::JointAttackAnalysis joint(world.store);
  const auto combined =
      query::summarize(bench::shared_snapshot(), query::Query{});

  std::cout << "common targets: " << joint.common_targets() << " ("
            << percent(double(joint.common_targets()) /
                           double(combined.unique_targets),
                       1)
            << " of all targets; paper 282k/6.34M = 4.4%)\n";
  std::cout << "joint (simultaneous) targets: " << joint.joint_targets() << " ("
            << percent(double(joint.joint_targets()) /
                           double(std::max<std::uint64_t>(joint.common_targets(), 1)),
                       1)
            << " of common; paper 137k/282k = 48.6%)\n\n";

  // Distribution shifts.
  const auto all_split = core::port_cardinality(world.store.events());
  const auto joint_split = core::port_cardinality(joint.telescope_joint_events());
  TextTable shifts({"statistic", "all", "joint", "paper all", "paper joint"});
  shifts.add_row({"single-port share", percent(all_split.single_share(), 1),
                  percent(joint_split.single_share(), 1), "60.6%", "77.1%"});

  const auto all_tcp = core::service_distribution(world.store.events(), true, 1);
  const auto joint_tcp =
      core::service_distribution(joint.telescope_joint_events(), true, 1);
  shifts.add_row({"HTTP share (TCP)", percent(all_tcp[0].share, 2),
                  joint_tcp.empty() ? "n/a" : percent(joint_tcp[0].share, 2),
                  "48.68%", "50.23%"});

  const auto all_udp = core::service_distribution(world.store.events(), false, 1);
  const auto joint_udp =
      core::service_distribution(joint.telescope_joint_events(), false, 1);
  shifts.add_row({"27015 share (UDP)", percent(all_udp[0].share, 2),
                  joint_udp.empty() ? "n/a" : percent(joint_udp[0].share, 2),
                  "18.54%", "53%"});
  std::cout << shifts;

  // Reflection-protocol shift among joint honeypot events.
  std::map<amppot::ReflectionProtocol, std::uint64_t> joint_reflection;
  std::uint64_t joint_total = 0;
  for (const auto& event : joint.honeypot_joint_events()) {
    ++joint_reflection[event.reflection];
    ++joint_total;
  }
  if (joint_total > 0) {
    std::cout << "\nReflection mix in joint attacks: NTP "
              << percent(double(joint_reflection[amppot::ReflectionProtocol::kNtp]) /
                             double(joint_total),
                         1)
              << " (paper 47.0%), CharGen "
              << percent(double(joint_reflection[amppot::ReflectionProtocol::kCharGen]) /
                             double(joint_total),
                         1)
              << " (paper 11.5%, halved)\n";
  }

  // Joint-target AS & country rankings.
  std::cout << "\nTop joint-target ASes (paper: OVH 12.3%, China Telecom "
               "5.4%, China Unicom 3.1%):\n";
  const auto asns = joint.asn_ranking(world.population.pfx2as());
  for (std::size_t i = 0; i < std::min<std::size_t>(3, asns.size()); ++i) {
    std::cout << "  " << (i + 1) << ". "
              << world.population.as_registry().name(asns[i].asn) << "  "
              << asns[i].targets << " targets (" << percent(asns[i].share, 1)
              << ")\n";
  }
  std::cout << "Top joint-target countries (paper: US 24.4%, CN 20.4%, FR "
               "9.5%, DE 6.5%, RU 4.1%):\n";
  const auto countries = joint.country_ranking(world.population.geo());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, countries.size()); ++i) {
    std::cout << "  " << (i + 1) << ". " << countries[i].country.to_string()
              << "  " << percent(countries[i].share, 1) << "\n";
  }
  return 0;
}
