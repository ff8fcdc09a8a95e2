// Parallel detection pipeline bench: sharded telescope + honeypot detection
// throughput and speedup versus the 1-thread path, over the shared synthetic
// packet-level workload (src/parallel/workload.h).
//
// The rows time the same calls as `perfbench capture`, which runs detection
// at 2 threads: telescope_ms at 1 and 2 threads predicts
// telescope.detect_1t_ms and telescope.detect_ms, honeypot_ms at 2 threads
// amppot.consolidate_ms.
//
// Emits BENCH_parallel.json — the machine-readable baseline CI tracks. Every
// measured configuration is first cross-checked event-by-event against the
// sequential detectors, so a determinism or correctness regression fails the
// bench before any timing is reported.
//
//   $ ./bench_parallel [--smoke] [--out FILE]
//     --smoke   tiny workload + short measurement (CI wiring check; the
//               >=3x speedup gate only applies at the default size)
//     --out F   baseline path (default BENCH_parallel.json)
//
// Two timing gates, both skipped under --smoke and recorded as skipped
// rather than failed on machines too small to show parallel speedup:
//  * combined telescope + honeypot speedup >= 3x at 8 threads (needs >= 8
//    hardware threads);
//  * telescope time at 4 threads <= 0.5x its 1-thread time (needs >= 4
//    hardware threads): the partition pass and the shards both scale.
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "parallel/detect.h"
#include "parallel/workload.h"
#include "telescope/flow_table.h"

namespace {

using namespace dosm;

struct Timing {
  double seconds_per_iter = 0.0;
  std::uint64_t iterations = 0;
};

/// Repeats fn until min_seconds of wall time accumulate (at least once),
/// returning the mean per-iteration cost. The checksum sink keeps the
/// optimizer honest.
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

bool same_events(std::span<const telescope::TelescopeEvent> a,
                 std::span<const telescope::TelescopeEvent> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto key = [](const telescope::TelescopeEvent& e) {
      return std::make_tuple(e.victim, e.start, e.end, e.packets, e.bytes,
                             e.unique_sources, e.num_ports, e.top_port,
                             e.attack_proto, e.max_pps);
    };
    if (key(a[i]) != key(b[i])) return false;
  }
  return true;
}

bool same_events(std::span<const amppot::AmpPotEvent> a,
                 std::span<const amppot::AmpPotEvent> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto key = [](const amppot::AmpPotEvent& e) {
      return std::make_tuple(e.victim, e.protocol, e.start, e.end, e.requests,
                             e.honeypots, e.honeypot_id);
    };
    if (key(a[i]) != key(b[i])) return false;
  }
  return true;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_parallel [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  const double min_measure_s = smoke ? 0.02 : 0.5;

  parallel::WorkloadConfig config;
  if (smoke) {
    config.direct_attacks = 60;
    config.reflection_attacks = 12;
    config.window_s = 3600.0;
  } else {
    config.direct_attacks = 200;
    config.reflection_attacks = 40;
    config.window_s = 2.0 * 3600.0;
  }

  bench::print_header(
      "Parallel detection: sharded pipeline vs sequential",
      "execution-layer addition; no paper table — baseline for "
      "BENCH_parallel.json");
  std::cerr << "[bench] generating workload (seed " << config.seed << ")...\n";
  auto workload = parallel::make_workload(config);
  std::vector<parallel::HoneypotLog> logs;
  std::uint64_t total_requests = 0;
  for (const auto& honeypot : workload.fleet->honeypots()) {
    logs.push_back({honeypot.id(), honeypot.log()});
    total_requests += honeypot.log().size();
  }
  std::cerr << "[bench] " << workload.packets.size() << " telescope packets, "
            << total_requests << " honeypot requests\n";

  // --- Sequential references -------------------------------------------
  telescope::BackscatterDetector sequential;
  for (const auto& rec : workload.packets) sequential.on_packet(rec);
  const auto seq_telescope = sequential.finish();

  std::vector<amppot::AmpPotEvent> stage1;
  for (const auto& log : logs) {
    const auto events =
        amppot::consolidate_log(log.requests, {}, log.honeypot_id);
    stage1.insert(stage1.end(), events.begin(), events.end());
  }
  const auto seq_honeypot = amppot::merge_fleet_events(std::move(stage1));

  // --- Parallel correctness + timing per thread count ------------------
  const int thread_counts[] = {1, 2, 4, 8};
  const unsigned hardware = std::thread::hardware_concurrency();
  JsonWriter json;
  json.begin_object()
      .key("bench").value("parallel")
      .key("smoke").value(smoke)
      .key("seed").value(static_cast<std::uint64_t>(config.seed))
      .key("telescope_packets")
      .value(static_cast<std::uint64_t>(workload.packets.size()))
      .key("honeypot_requests").value(total_requests)
      .key("telescope_events")
      .value(static_cast<std::uint64_t>(seq_telescope.size()))
      .key("honeypot_events")
      .value(static_cast<std::uint64_t>(seq_honeypot.size()))
      .key("hardware_threads").value(static_cast<std::uint64_t>(hardware))
      .key("scaling")
      .begin_array();
  TextTable table({"threads", "telescope_ms", "honeypot_ms", "combined_ms",
                   "speedup"});
  double combined_1t = 0.0;
  double combined_8t = 0.0;
  double telescope_1t = 0.0;
  double telescope_4t = 0.0;
  for (const int threads : thread_counts) {
    const parallel::ParallelConfig pc{threads, 0};
    parallel::ParallelBackscatterDetector detector(pc);
    const auto par_telescope = detector.detect(workload.packets);
    const auto par_honeypot = parallel::parallel_consolidate(logs, {}, pc);
    if (!same_events(par_telescope, seq_telescope)) {
      std::cerr << "bench_parallel: telescope output diverged at " << threads
                << " threads\n";
      return 1;
    }
    if (!same_events(par_honeypot, seq_honeypot)) {
      std::cerr << "bench_parallel: honeypot output diverged at " << threads
                << " threads\n";
      return 1;
    }

    const auto telescope_timing = measure(min_measure_s, [&] {
      return detector.detect(workload.packets).size();
    });
    const auto honeypot_timing = measure(min_measure_s, [&] {
      return parallel::parallel_consolidate(logs, {}, pc).size();
    });
    const double combined = telescope_timing.seconds_per_iter +
                            honeypot_timing.seconds_per_iter;
    if (threads == 1) {
      combined_1t = combined;
      telescope_1t = telescope_timing.seconds_per_iter;
    }
    if (threads == 4) telescope_4t = telescope_timing.seconds_per_iter;
    if (threads == 8) combined_8t = combined;
    const double speedup = combined_1t > 0.0 ? combined_1t / combined : 0.0;
    table.add_row({std::to_string(threads),
                   fixed(telescope_timing.seconds_per_iter * 1e3, 2),
                   fixed(honeypot_timing.seconds_per_iter * 1e3, 2),
                   fixed(combined * 1e3, 2), fixed(speedup, 2) + "x"});
    json.begin_object()
        .key("threads").value(static_cast<std::uint64_t>(threads))
        .key("telescope_ms").value(telescope_timing.seconds_per_iter * 1e3)
        .key("honeypot_ms").value(honeypot_timing.seconds_per_iter * 1e3)
        .key("combined_ms").value(combined * 1e3)
        .key("speedup").value(speedup)
        .end_object();
  }
  json.end_array();
  std::cout << table;

  const double speedup_8t = combined_8t > 0.0 ? combined_1t / combined_8t : 0.0;
  const bool gate_applies = !smoke && hardware >= 8;
  const double telescope_ratio_4t =
      telescope_1t > 0.0 ? telescope_4t / telescope_1t : 0.0;
  const bool telescope_gate_applies = !smoke && hardware >= 4;
  const auto gate_state = [&](bool applies, bool passed) {
    return applies ? (passed ? "passed" : "failed")
                   : (smoke ? "skipped (smoke)" : "skipped (insufficient cores)");
  };
  std::cout << "events: " << seq_telescope.size() << " telescope + "
            << seq_honeypot.size() << " honeypot (identical at every thread "
            << "count)\n"
            << "8-thread speedup: " << fixed(speedup_8t, 2) << "x on "
            << hardware << " hardware threads\n"
            << "4-thread telescope time: " << fixed(telescope_ratio_4t, 2)
            << "x the 1-thread time\n";

  bench::report_perfbench(
      json, {{"telescope_ms_1t", "telescope.detect_1t_ms"},
             {"telescope_ms_2t", "telescope.detect_ms"},
             {"honeypot_ms_2t", "amppot.consolidate_ms"}});
  json.key("deterministic").value(true)
      .key("speedup_8t").value(speedup_8t)
      .key("speedup_gate").value(gate_state(gate_applies, speedup_8t >= 3.0))
      .key("telescope_ratio_4t").value(telescope_ratio_4t)
      .key("telescope_gate")
      .value(gate_state(telescope_gate_applies, telescope_ratio_4t <= 0.5))
      .end_object();
  bench::write_json(out_path, json);

  int status = 0;
  if (gate_applies && speedup_8t < 3.0) {
    std::cerr << "bench_parallel: 8-thread speedup " << fixed(speedup_8t, 2)
              << "x is below the 3x baseline\n";
    status = 1;
  }
  if (telescope_gate_applies && telescope_ratio_4t > 0.5) {
    std::cerr << "bench_parallel: 4-thread telescope time is "
              << fixed(telescope_ratio_4t, 2)
              << "x the 1-thread time, above the 0.5x gate\n";
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_parallel: " << e.what() << "\n";
  return 1;
}
