// End-to-end benchmark driver for dosmeter.
//
//   perfbench --workload capture|dashboard|live --seed N --seconds S
//             --trace 0|1 [--smoke] [--work-dir DIR]
//
// Prints a record line (seed, sizes, op count, hardware threads, compiler,
// build type) and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones the workload's traced run measured (run.py completes that
// list from BENCHMARK.json). See perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: perfbench --workload capture|dashboard|live --seed N "
               "--seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--seconds") options.seconds = std::stoi(value());
    else if (arg == "--trace") options.trace = value() != "0";
    else if (arg == "--smoke") options.smoke = true;
    else if (arg == "--work-dir") options.work_dir = value();
    else return usage();
  }
  if (options.seconds < 1) return usage();
  if (!kOptimized || kSanitized) {
    std::cerr << "perfbench: refusing to record results from an "
              << (kSanitized ? "instrumented (sanitizer)" : "unoptimized")
              << " build (" << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  std::filesystem::create_directories(options.work_dir);

  perfbench::Result result;
  if (options.workload == "capture") result = perfbench::run_capture(options);
  else if (options.workload == "dashboard")
    result = perfbench::run_dashboard(options);
  else if (options.workload == "live") result = perfbench::run_live(options);
  else return usage();

  std::string record = "{\"record\": {";
  const auto field = [&](const std::string& key, const std::string& json) {
    if (record.back() != '{') record += ", ";
    record += json_string(key) + ": " + json;
  };
  field("workload", json_string(options.workload));
  field("seed", std::to_string(options.seed));
  field("seconds", std::to_string(options.seconds));
  field("trace", options.trace ? "true" : "false");
  field("smoke", options.smoke ? "true" : "false");
  field("hardware_threads",
        std::to_string(std::thread::hardware_concurrency()));
  field("compiler", json_string(__VERSION__));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  for (const auto& [key, value] : result.record)
    field(key, json_string(value));
  std::cout << record << "}}\n";

  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string line = "{\"correct\": ";
  line += result.checks_passed && result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::cout << line << "}}" << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench: " << e.what() << "\n";
  return 1;
}
