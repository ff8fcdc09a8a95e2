// Incremental-snapshot bench: steady-state publish latency of the segmented
// SnapshotPublisher (seal one day, share the rest by pointer) versus the
// pre-segmentation strategy of rebuilding the full frame + index at every
// day boundary.
//
// Emits BENCH_incremental.json. Before any timing, the incrementally
// accumulated snapshot is cross-checked against a batch full rebuild —
// row ids included — so a correctness regression fails the bench outright
// (same policy as bench_parallel's identity check).
//
//   $ ./bench_incremental [--smoke] [--out FILE]
//     --smoke   small world + no speedup gate (CI wiring check; the >=10x
//               steady-state expectation only applies to the default size)
//     --out F   baseline path (default BENCH_incremental.json)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "query/engine.h"
#include "query/snapshot.h"

namespace {

using namespace dosm;
using clock_type = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_incremental [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  sim::ScenarioConfig config = bench::default_config();
  if (smoke) config = sim::ScenarioConfig::small();
  bench::print_header(
      "Incremental snapshots: O(new-day) publish vs full rebuild",
      "serving-layer addition; no paper table — baseline for "
      "BENCH_incremental.json");
  std::cerr << "[bench] building " << config.window.num_days()
            << "-day world...\n";
  const auto world = sim::build_world(config);
  const auto events = world->store.events();
  const query::BuildContext ctx{world->population.pfx2as(),
                                world->population.geo()};
  std::cerr << "[bench] " << events.size() << " events\n";

  // --- Identity cross-check BEFORE any timing --------------------------
  // The publisher's incrementally accumulated snapshot must equal a batch
  // full rebuild exactly: same global row ids, same aggregates.
  {
    query::QueryEngine engine;
    query::SnapshotPublisher publisher(engine, world->window, ctx);
    for (const auto& event : events) publisher.ingest(event);
    publisher.finish();
    const auto incremental = engine.snapshot();
    const auto full = query::Snapshot::build(world->window, events, ctx);
    if (!incremental || incremental->size() != full->size() ||
        incremental->match_rows(query::Query{}) !=
            full->match_rows(query::Query{}) ||
        incremental->unique_targets(query::Query{}) !=
            full->unique_targets(query::Query{})) {
      std::cerr << "bench_incremental: incremental snapshot disagrees with "
                   "full rebuild\n";
      return 1;
    }
    std::cerr << "[bench] identity check passed: "
              << incremental->num_segments() << " sealed segments == 1 full "
              << "rebuild, " << full->size() << " rows\n";
  }

  // --- Incremental path: per-publish latency over a full replay --------
  // Time every ingest; the calls that crossed a day boundary (sealed +
  // published) are the publish costs. Steady state = mean over the last
  // half of the replay, where the snapshot is at its largest and a full
  // rebuild would be at its most expensive.
  std::vector<double> publish_s;
  std::vector<std::size_t> publish_prefix;  // events ingested before each seal
  query::QueryEngine engine;
  query::SnapshotPublisher publisher(engine, world->window, ctx);
  const auto replay_t0 = clock_type::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto before = publisher.snapshots_published();
    const auto t0 = clock_type::now();
    publisher.ingest(events[i]);
    const double elapsed = seconds_since(t0);
    if (publisher.snapshots_published() > before) {
      publish_s.push_back(elapsed);
      publish_prefix.push_back(i);  // events[0, i) were ingested before it
    }
  }
  publisher.finish();  // final partial day: published but not sampled
  const double replay_s = seconds_since(replay_t0);

  if (publish_s.size() < 2) {
    std::cerr << "bench_incremental: need >= 2 day-boundary publishes\n";
    return 1;
  }
  const std::size_t half = publish_s.size() / 2;
  const std::vector<double> steady(publish_s.begin() +
                                       static_cast<std::ptrdiff_t>(half),
                                   publish_s.end());
  const double incremental_steady_s = mean(steady);

  // --- Baseline: full rebuild at sampled boundaries --------------------
  // The old publisher rebuilt frame + index over ALL ingested events at
  // every day boundary. Replaying that for every day would be O(days^2),
  // so sample a handful of boundaries across the steady-state half.
  const std::size_t samples = std::min<std::size_t>(smoke ? 4 : 8, half);
  std::vector<double> rebuild_s;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t pick =
        half + (publish_s.size() - 1 - half) * s / std::max<std::size_t>(1, samples - 1);
    const auto prefix = events.subspan(0, publish_prefix[pick]);
    const auto t0 = clock_type::now();
    const auto snap = query::Snapshot::build(world->window, prefix, ctx);
    rebuild_s.push_back(seconds_since(t0));
    if (snap->size() != prefix.size()) {
      std::cerr << "bench_incremental: rebuild dropped rows\n";
      return 1;
    }
  }
  const double rebuild_steady_s = mean(rebuild_s);
  const double speedup =
      incremental_steady_s > 0.0 ? rebuild_steady_s / incremental_steady_s
                                 : 0.0;

  std::cout << "publishes:            " << publish_s.size() + 1 << " ("
            << publish_s.size() << " day boundaries timed)\n"
            << "replay total:         " << fixed(replay_s, 2) << " s\n"
            << "steady-state publish: " << fixed(incremental_steady_s * 1e3, 3)
            << " ms (mean over last " << steady.size() << ")\n"
            << "full rebuild:         " << fixed(rebuild_steady_s * 1e3, 3)
            << " ms (mean over " << rebuild_s.size() << " sampled boundaries)\n"
            << "steady-state speedup: " << fixed(speedup, 1) << "x\n";

  JsonWriter json;
  json.begin_object()
      .key("bench").value("incremental")
      .key("smoke").value(smoke)
      .key("events").value(static_cast<std::uint64_t>(events.size()))
      .key("days").value(static_cast<std::uint64_t>(world->window.num_days()))
      .key("seed").value(static_cast<std::uint64_t>(config.seed))
      .key("publishes")
      .value(static_cast<std::uint64_t>(publish_s.size() + 1))
      .key("replay_s").value(replay_s)
      .key("segmented").begin_object()
      .key("steady_publish_ms").value(incremental_steady_s * 1e3)
      .key("max_publish_ms")
      .value(*std::max_element(publish_s.begin(), publish_s.end()) * 1e3)
      .end_object()
      .key("full_rebuild").begin_object()
      .key("steady_publish_ms").value(rebuild_steady_s * 1e3)
      .key("sampled_boundaries")
      .value(static_cast<std::uint64_t>(rebuild_s.size()))
      .end_object()
      .key("steady_state_speedup").value(speedup);
  bench::report_perfbench(
      json, {{"segmented.steady_publish_ms", "query.publish_ms"},
             {"full_rebuild.steady_publish_ms",
              "none: the full rebuild runs in no end-to-end path"}});
  json.end_object();
  bench::write_json(out_path, json);

  if (!smoke && speedup < 10.0) {
    std::cerr << "bench_incremental: steady-state speedup " << fixed(speedup, 1)
              << "x is below the 10x baseline\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_incremental: " << e.what() << "\n";
  return 1;
}
