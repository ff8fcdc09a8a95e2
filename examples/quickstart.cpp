// Quickstart: build a small simulated world, run both detection pipelines,
// fuse the events, and print the headline numbers of the paper's analysis.
//
//   $ ./quickstart [seed]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/strings.h"
#include "core/joint.h"
#include "core/ports.h"
#include "query/summary.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace dosm;

  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);

  std::cout << "Building a " << config.window.num_days()
            << "-day world (seed " << config.seed << ")...\n";
  const auto world = sim::build_world(config);

  std::cout << "\nGround truth: " << world->truth.size() << " attacks, "
            << world->dns.num_domains() << " Web domains, "
            << world->hosting.hosters().size() << " hosters\n";

  // Table-1 style summary of what the detectors saw, queried from an
  // indexed snapshot of the fused events.
  const auto snapshot = query::Snapshot::from_store(
      world->store, {world->population.pfx2as(), world->population.geo()});
  for (const auto filter :
       {core::SourceFilter::kTelescope, core::SourceFilter::kHoneypot,
        core::SourceFilter::kCombined}) {
    const auto summary =
        query::summarize(*snapshot, query::Query{}.from_source(filter));
    std::cout << "  " << core::to_string(filter) << ": " << summary.events
              << " events, " << summary.unique_targets << " targets, "
              << summary.unique_slash24 << " /24s, " << summary.unique_slash16
              << " /16s, " << summary.unique_asns << " ASNs\n";
  }

  // Daily view of the busiest day.
  const auto daily = query::summarize_daily(*snapshot, query::Query{});
  const auto busiest = std::max_element(
      daily.begin(), daily.end(),
      [](const auto& a, const auto& b) { return a.events < b.events; });
  std::cout << "\nBusiest day: "
            << to_string(world->window.date_of_day(
                   static_cast<int>(busiest - daily.begin())))
            << " with " << busiest->events << " attacks on "
            << busiest->unique_targets << " targets\n";

  // Joint attacks.
  const core::JointAttackAnalysis joint(world->store);
  std::cout << "Targets in both datasets: " << joint.common_targets()
            << "; hit simultaneously: " << joint.joint_targets() << "\n";

  // Protocol mixes.
  std::cout << "\nRandomly-spoofed attack protocols:";
  for (const auto& row : core::ip_protocol_distribution(world->store))
    std::cout << "  " << row.label << " " << percent(row.share, 1);
  std::cout << "\nReflection vectors:";
  for (const auto& row : core::reflection_distribution(world->store))
    std::cout << "  " << row.label << " " << percent(row.share, 1);
  std::cout << "\n";
  return 0;
}
