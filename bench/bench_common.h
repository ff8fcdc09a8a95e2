// Shared harness for the table/figure reproduction benches.
//
// Every bench binary regenerates one paper table or figure from a shared
// full-window world (built once per process) and prints paper-reported
// values alongside measured ones. Absolute magnitudes are scaled (~1/100 of
// the paper's event volume, ~1/1000 of its namespace); the reproduction
// target is the *shape*: orderings, shares, ratios, crossovers.
#pragma once

#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "common/table.h"
#include "query/snapshot.h"
#include "query/summary.h"
#include "sim/scenario.h"

namespace dosm::bench {

/// The default full-window scenario used by all reproduction benches.
inline sim::ScenarioConfig default_config() {
  sim::ScenarioConfig config;
  config.seed = 20170301;
  return config;  // paper window (731 days), default scale
}

/// Builds (once) and returns the shared world.
inline const sim::World& shared_world() {
  static const std::unique_ptr<sim::World> world = [] {
    std::cerr << "[bench] building 731-day world (this runs once)...\n";
    auto w = sim::build_world(default_config());
    std::cerr << "[bench] world ready: " << w->store.size() << " events, "
              << w->dns.num_domains() << " domains\n";
    return w;
  }();
  return *world;
}

/// Builds (once) and returns the indexed snapshot of the shared world: the
/// executor the paper's aggregate tables and series are queried from.
inline const query::Snapshot& shared_snapshot() {
  static const std::shared_ptr<const query::Snapshot> snapshot = [] {
    const auto& world = shared_world();
    return query::Snapshot::from_store(
        world.store, {world.population.pfx2as(), world.population.geo()});
  }();
  return *snapshot;
}

/// Prints the standard bench header.
inline void print_header(const std::string& experiment,
                         const std::string& paper_claim) {
  std::cout << "=====================================================\n";
  std::cout << experiment << "\n";
  std::cout << "Paper: " << paper_claim << "\n";
  std::cout << "=====================================================\n";
}

/// A perf bench figure and the `perfbench` per-layer metric it predicts
/// (perfbench/README.md), or "none: <why>" when no end-to-end path makes
/// the timed call.
struct Counterpart {
  const char* figure;
  const char* metric;
};

/// Prints each figure's perfbench counterpart and adds them to the open
/// JSON object as "perfbench": {figure: metric}.
inline void report_perfbench(JsonWriter& json,
                             std::initializer_list<Counterpart> counterparts) {
  std::cout << "perfbench counterparts:\n";
  json.key("perfbench").begin_object();
  for (const auto& [figure, metric] : counterparts) {
    std::cout << "  " << figure << " -> " << metric << "\n";
    json.key(figure).value(metric);
  }
  json.end_object();
}

/// Writes a BENCH_<name>.json baseline (compact, trailing newline) and
/// logs the path.
inline void write_json(const std::string& path, const JsonWriter& json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << json.str() << "\n";
  std::cerr << "[bench] wrote " << path << "\n";
}

}  // namespace dosm::bench
