// Microbenchmarks of the hot pipeline kernels (google-benchmark), plus the
// two-tier ablation: packet-level detection vs analytic observation on the
// same ground truth.
//
// With --smoke the binary instead runs the instrumentation-overhead gate:
// the production telescope detector (ParallelBackscatterDetector at one
// thread) is timed over the same synthetic capture with the obs layer
// enabled and disabled in alternating runs, and the min-of-N ratio
// must stay within the <= 3% overhead budget (exit 1 otherwise). The result
// is written as BENCH_micro_pipeline.json for CI to archive.
//
//   $ ./bench_micro_pipeline                 # google-benchmark suite
//   $ ./bench_micro_pipeline --smoke [--out F]
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "dns/snapshot.h"
#include "meta/prefix_map.h"
#include "net/pcap.h"
#include "obs/metrics.h"
#include "parallel/detect.h"
#include "sim/observe.h"
#include "telescope/synthesizer.h"

namespace {

using namespace dosm;

/// One single-threaded pass of the production telescope detector; returns
/// the event count so the optimizer cannot elide the work.
std::size_t detect_events(const std::vector<net::PacketRecord>& packets) {
  parallel::ParallelBackscatterDetector detector({1, 0});
  return detector.detect(packets).size();
}

std::vector<net::PacketRecord> synth_capture(std::size_t target_packets) {
  telescope::TelescopeSynthesizer synthesizer(1);
  telescope::SpoofedAttackSpec spec;
  spec.victim = net::Ipv4Addr(9, 9, 9, 9);
  spec.start = 0.0;
  spec.duration_s = 600.0;
  spec.victim_pps = static_cast<double>(target_packets) / 600.0 * 256.0;
  spec.ports = {80};
  return synthesizer.synthesize({&spec, 1}, 0.0, 600.0,
                                {.scan_pps = 10.0, .misconfig_pps = 5.0});
}

void BM_PacketEncode(benchmark::State& state) {
  net::PacketRecord rec;
  rec.src = net::Ipv4Addr(1, 2, 3, 4);
  rec.dst = net::Ipv4Addr(44, 0, 0, 1);
  rec.proto = 6;
  rec.src_port = 80;
  rec.dst_port = 4242;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  for (auto _ : state) benchmark::DoNotOptimize(net::encode_packet(rec));
}
BENCHMARK(BM_PacketEncode);

void BM_PacketDecode(benchmark::State& state) {
  net::PacketRecord rec;
  rec.src = net::Ipv4Addr(1, 2, 3, 4);
  rec.dst = net::Ipv4Addr(44, 0, 0, 1);
  rec.proto = 6;
  rec.src_port = 80;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  const auto bytes = net::encode_packet(rec);
  for (auto _ : state) benchmark::DoNotOptimize(net::decode_packet(bytes));
}
BENCHMARK(BM_PacketDecode);

void BM_MoorePipeline(benchmark::State& state) {
  const auto packets = synth_capture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(detect_events(packets));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_MoorePipeline)->Arg(10000)->Arg(100000);

void BM_PcapRoundTrip(benchmark::State& state) {
  const auto packets = synth_capture(10000);
  for (auto _ : state) {
    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    net::PcapWriter writer(stream);
    for (const auto& rec : packets) writer.write_packet(rec);
    net::PcapReader reader(stream);
    std::size_t count = 0;
    while (reader.next_packet()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_PcapRoundTrip);

void BM_PrefixMapLookup(benchmark::State& state) {
  meta::PrefixMap<int> map;
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    const auto addr =
        net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()));
    map.insert(net::Prefix(addr, 8 + static_cast<int>(rng.next_below(17))), i);
  }
  Rng query_rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup(
        net::Ipv4Addr(static_cast<std::uint32_t>(query_rng.next_u64()))));
  }
}
BENCHMARK(BM_PrefixMapLookup);

void BM_ReverseDnsJoin(benchmark::State& state) {
  dns::SnapshotStore store(365);
  Rng rng(5);
  for (int d = 0; d < 20000; ++d) {
    const auto id = store.add_domain("site" + std::to_string(d) + ".com", 0);
    dns::WebsiteRecord rec;
    rec.www_a = net::Ipv4Addr(
        static_cast<std::uint32_t>(0x0a000000u + rng.next_below(4000)));
    store.record_change(id, 0, rec);
  }
  store.build_reverse_index();
  Rng query_rng(6);
  for (auto _ : state) {
    const auto ip = net::Ipv4Addr(
        static_cast<std::uint32_t>(0x0a000000u + query_rng.next_below(4000)));
    benchmark::DoNotOptimize(
        store.count_sites_on(ip, static_cast<int>(query_rng.next_below(365))));
  }
}
BENCHMARK(BM_ReverseDnsJoin);

// Ablation: the analytic observation tier vs full packet-level synthesis +
// detection of the same attack.
void BM_AblationAnalyticTier(benchmark::State& state) {
  sim::GroundTruthAttack attack;
  attack.kind = sim::AttackKind::kDirect;
  attack.target = net::Ipv4Addr(9, 9, 9, 9);
  attack.duration_s = 600.0;
  attack.victim_pps = 25600.0;
  attack.ports = {80};
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::observe_telescope(attack, rng));
}
BENCHMARK(BM_AblationAnalyticTier);

void BM_AblationPacketTier(benchmark::State& state) {
  telescope::SpoofedAttackSpec spec;
  spec.victim = net::Ipv4Addr(9, 9, 9, 9);
  spec.duration_s = 600.0;
  spec.victim_pps = 25600.0;
  spec.ports = {80};
  std::uint64_t seed = 8;
  for (auto _ : state) {
    telescope::TelescopeSynthesizer synthesizer(seed++);
    const auto packets = synthesizer.synthesize({&spec, 1}, 0.0, 600.0);
    benchmark::DoNotOptimize(detect_events(packets));
  }
}
BENCHMARK(BM_AblationPacketTier);

// ---------------------------------------------------------------------------
// --smoke: instrumentation-overhead gate.
//
// The no-perturbation invariant (byte-identical dumps with metrics on/off) is
// enforced elsewhere; this gate bounds the *cost* side of the contract. The
// Moore detector is the most counter-dense code path (per-packet
// telescope counters plus per-flow threshold accounting), so it is the
// workload most sensitive to a regression in the striped-counter fast path.
// Enabled and disabled runs alternate so slow drift (thermal, cache state)
// hits both sides equally, and min-of-N is compared because the minimum is
// the least noisy location statistic on a shared machine.
// ---------------------------------------------------------------------------

double time_pass(const std::vector<net::PacketRecord>& packets) {
  static volatile std::size_t sink = 0;
  using clock = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution
  const auto begin = clock::now();
  sink = sink + detect_events(packets);
  return std::chrono::duration<double>(clock::now() - begin).count();
}

int run_smoke(const std::string& out_path) {
  constexpr std::size_t kPackets = 50000;
  constexpr int kRounds = 9;  // alternating pairs; min-of-9 per side
  constexpr double kMaxRatio = 1.03;

  bench::print_header(
      "Micro pipeline: instrumentation overhead gate",
      "obs-layer addition; no paper table — counters must cost <= 3% on the "
      "packet-dense Moore pipeline");
  const auto packets = synth_capture(kPackets);
  std::cerr << "[bench] " << packets.size() << " packets per pass, "
            << kRounds << " alternating rounds per side\n";

  // Warm-up pass on each side so first-touch page faults and lazy metric
  // registration do not land inside a measured run.
  obs::set_enabled(true);
  detect_events(packets);
  obs::set_enabled(false);
  detect_events(packets);

  double min_enabled = 0.0;
  double min_disabled = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    obs::set_enabled(true);
    const double enabled_s = time_pass(packets);
    obs::set_enabled(false);
    const double disabled_s = time_pass(packets);
    if (round == 0 || enabled_s < min_enabled) min_enabled = enabled_s;
    if (round == 0 || disabled_s < min_disabled) min_disabled = disabled_s;
  }
  obs::set_enabled(true);

  const double ratio = min_disabled > 0.0 ? min_enabled / min_disabled : 0.0;
  const bool passed = ratio <= kMaxRatio;
  TextTable table({"side", "min_ms"});
  table.add_row({"metrics enabled", fixed(min_enabled * 1e3, 3)});
  table.add_row({"metrics disabled", fixed(min_disabled * 1e3, 3)});
  std::cout << table;
  std::cout << "overhead ratio: " << fixed(ratio, 4) << " (budget "
            << fixed(kMaxRatio, 2) << ")\n";

  JsonWriter json;
  json.begin_object()
      .key("bench").value("micro_pipeline")
      .key("mode").value("smoke")
      .key("packets_per_pass").value(static_cast<std::uint64_t>(packets.size()))
      .key("rounds").value(static_cast<std::uint64_t>(kRounds))
      .key("min_enabled_ms").value(min_enabled * 1e3)
      .key("min_disabled_ms").value(min_disabled * 1e3)
      .key("overhead_ratio").value(ratio)
      .key("overhead_budget").value(kMaxRatio)
      .key("overhead_gate").value(passed ? "passed" : "failed")
      .end_object();
  bench::write_json(out_path, json);

  if (!passed) {
    std::cerr << "bench_micro_pipeline: instrumentation overhead "
              << fixed((ratio - 1.0) * 100.0, 2) << "% exceeds the 3% budget\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  std::string out_path = "BENCH_micro_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
  }
  if (smoke) return run_smoke(out_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_micro_pipeline: " << e.what() << "\n";
  return 1;
}
