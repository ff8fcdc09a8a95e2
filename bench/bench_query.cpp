// Query-engine baseline bench: index build rate plus indexed (Snapshot) vs
// naive linear-scan (ScanOracle) latency for representative filtered
// queries and top-k aggregations over the full-window world.
//
// Emits BENCH_query.json — the machine-readable baseline CI tracks — next
// to the text report. Every measured query is also cross-checked against
// the oracle, so a correctness regression fails the bench, not just the
// property tests.
//
//   $ ./bench_query [--smoke] [--out FILE]
//     --smoke   small world + short measurement (CI wiring check; the
//               >=10x speedup expectation only applies to the default size)
//     --out F   baseline path (default BENCH_query.json)
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "query/scan.h"
#include "query/snapshot.h"

namespace {

using namespace dosm;

struct Timing {
  double seconds_per_iter = 0.0;
  std::uint64_t iterations = 0;
};

/// Repeats fn until min_seconds of wall time accumulate (at least once),
/// returning the mean per-iteration cost. The checksum sink keeps the
/// optimizer honest without google-benchmark's harness.
Timing measure(double min_seconds, const std::function<std::uint64_t()>& fn) {
  static volatile std::uint64_t sink = 0;
  using clock = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution
  Timing timing;
  const auto begin = clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds || timing.iterations == 0) {
    sink = sink + fn();
    ++timing.iterations;
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  }
  timing.seconds_per_iter = elapsed / static_cast<double>(timing.iterations);
  return timing;
}

struct QueryCase {
  std::string name;
  query::Query query;
};

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_query.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_query [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  const double min_measure_s = smoke ? 0.02 : 0.25;

  sim::ScenarioConfig config = bench::default_config();
  if (smoke) config = sim::ScenarioConfig::small();
  bench::print_header(
      "Query engine: indexed snapshot vs naive scan",
      "serving-layer addition; no paper table — baseline for BENCH_query.json");
  std::cerr << "[bench] building " << config.window.num_days()
            << "-day world...\n";
  const auto world = sim::build_world(config);
  const auto events = world->store.events();
  const auto& pfx2as = world->population.pfx2as();
  const auto& geo = world->population.geo();
  std::cerr << "[bench] " << events.size() << " events\n";

  // --- Index build rate -----------------------------------------------
  // Default single-segment context: this baseline (and its >=10x gate)
  // measures the monolithic layout; bench_incremental covers segmentation.
  const query::BuildContext ctx{pfx2as, geo};
  const auto build_timing = measure(min_measure_s, [&] {
    return query::Snapshot::build(world->window, events, ctx)->size();
  });
  const double build_rate =
      static_cast<double>(events.size()) / build_timing.seconds_per_iter;

  const auto snapshot = query::Snapshot::build(world->window, events, ctx);
  const query::ScanOracle oracle(events, world->window, pfx2as, geo);

  // --- Representative filtered queries --------------------------------
  // Selectivity anchors come from the data itself so the bench stays
  // meaningful across scenario scales.
  const auto busiest_target = snapshot->top_targets(query::Query{}, 1).at(0);
  const auto busiest_asn = snapshot->top_asns(query::Query{}, 1).at(0);
  const auto top_country = snapshot->top_countries(query::Query{}, 1).at(0);
  const double mid = static_cast<double>(
      world->window.day_start(world->window.num_days() / 2));
  const double week = 7.0 * static_cast<double>(kSecondsPerDay);

  std::vector<QueryCase> cases;
  cases.push_back({"week_mid_window", query::Query{}.between(mid, mid + week)});
  cases.push_back({"busiest_target_32",
                   query::Query{}.in_prefix(
                       net::Prefix(busiest_target.target, 32))});
  cases.push_back({"busiest_asn", query::Query{}.in_asn(busiest_asn.asn)});
  cases.push_back(
      {"top_country", query::Query{}.in_country(top_country.country)});
  cases.push_back({"port_80_week", query::Query{}
                                       .on_port(80)
                                       .between(mid, mid + week)});
  cases.push_back({"country_intense_week",
                   query::Query{}
                       .in_country(top_country.country)
                       .between(mid, mid + week)
                       .at_least(1.0)});

  JsonWriter json;
  json.begin_object()
      .key("bench").value("query")
      .key("smoke").value(smoke)
      .key("events").value(static_cast<std::uint64_t>(events.size()))
      .key("days").value(static_cast<std::uint64_t>(world->window.num_days()))
      .key("seed").value(static_cast<std::uint64_t>(config.seed))
      .key("index_build").begin_object()
      .key("ms").value(build_timing.seconds_per_iter * 1e3)
      .key("events_per_sec").value(build_rate)
      .end_object()
      .key("filtered_queries").begin_array();
  TextTable table({"query", "plan", "indexed_us", "scan_us", "speedup"});
  double min_speedup = 0.0;
  bool first = true;
  for (const auto& qc : cases) {
    const std::uint64_t expected = oracle.count(qc.query);
    if (snapshot->count(qc.query) != expected) {
      std::cerr << "bench_query: snapshot disagrees with oracle on "
                << qc.name << "\n";
      return 1;
    }
    const auto indexed =
        measure(min_measure_s, [&] { return snapshot->count(qc.query); });
    const auto scan =
        measure(min_measure_s, [&] { return oracle.count(qc.query); });
    const double speedup = scan.seconds_per_iter / indexed.seconds_per_iter;
    if (first || speedup < min_speedup) min_speedup = speedup;
    first = false;
    const auto plan = snapshot->plan(qc.query);
    table.add_row({qc.name, query::to_string(plan.choice),
                   fixed(indexed.seconds_per_iter * 1e6, 2),
                   fixed(scan.seconds_per_iter * 1e6, 2),
                   fixed(speedup, 1) + "x"});
    json.begin_object()
        .key("name").value(qc.name)
        .key("plan").value(query::to_string(plan.choice))
        .key("candidates").value(plan.candidates)
        .key("matches").value(expected)
        .key("indexed_us").value(indexed.seconds_per_iter * 1e6)
        .key("scan_us").value(scan.seconds_per_iter * 1e6)
        .key("speedup").value(speedup)
        .end_object();
  }
  json.end_array();
  std::cout << table;

  // --- Top-k aggregations (heavier per-row work on both sides) ---------
  const auto topk_indexed = measure(min_measure_s, [&] {
    return snapshot->top_asns(query::Query{}, 10).size();
  });
  const auto topk_scan = measure(min_measure_s, [&] {
    return oracle.top_asns(query::Query{}, 10).size();
  });
  const auto table4_indexed = measure(min_measure_s, [&] {
    return snapshot->country_ranking(query::Query{}).size();
  });
  const auto table4_scan = measure(min_measure_s, [&] {
    return oracle.country_ranking(query::Query{}).size();
  });
  std::cout << "index build: " << human_count(build_rate) << " events/s ("
            << fixed(build_timing.seconds_per_iter * 1e3, 1) << " ms)\n"
            << "top-10 ASNs: " << fixed(topk_indexed.seconds_per_iter * 1e6, 1)
            << " us indexed vs " << fixed(topk_scan.seconds_per_iter * 1e6, 1)
            << " us scan\n"
            << "min filtered-query speedup: " << fixed(min_speedup, 1)
            << "x\n";

  json.key("min_filtered_speedup").value(min_speedup)
      .key("topk_asns").begin_object()
      .key("indexed_us").value(topk_indexed.seconds_per_iter * 1e6)
      .key("scan_us").value(topk_scan.seconds_per_iter * 1e6)
      .end_object()
      .key("country_ranking").begin_object()
      .key("indexed_us").value(table4_indexed.seconds_per_iter * 1e6)
      .key("scan_us").value(table4_scan.seconds_per_iter * 1e6)
      .end_object();
  bench::report_perfbench(
      json,
      {{"index_build", "none: dashboard opens an archive, capture and live "
                       "seal one day per publish (query.publish_ms)"},
       {"indexed_us", "query.exec_summary_ms (count of a filtered query)"},
       {"candidates", "query.candidates_per_match (candidates / matches)"},
       {"topk_asns.indexed_us", "query.exec_top_asns_ms"},
       {"country_ranking.indexed_us",
        "none: dashboard asks top-countries (query.exec_top_countries_ms)"},
       {"scan_us", "none: the oracle runs in no end-to-end path"}});
  json.end_object();
  bench::write_json(out_path, json);

  if (!smoke && min_speedup < 10.0) {
    std::cerr << "bench_query: min filtered-query speedup "
              << fixed(min_speedup, 1) << "x is below the 10x baseline\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_query: " << e.what() << "\n";
  return 1;
}
