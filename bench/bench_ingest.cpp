// Batched ingest bench: BatchedPcapReader + SPSC ring versus the sequential
// per-packet PcapReader loop, over a synthetic telescope capture. The
// batched pipeline is timed twice: with a counting sink (run_ingest) and
// decoding into one vector (read_packets, the call perfbench's capture
// workload makes).
//
// Emits BENCH_ingest.json — the machine-readable baseline CI tracks. Before
// any timing, every measured (batch_frames, ring_capacity) configuration is
// cross-checked record-by-record against the sequential reader: a identity
// divergence fails the bench before a single throughput number is reported.
//
//   $ ./bench_ingest [--smoke] [--out FILE]
//     --smoke   tiny capture + short measurement (CI wiring check; the
//               >=3x throughput gate only applies at the default size)
//     --out F   baseline path (default BENCH_ingest.json)
//
// The throughput gate additionally requires >= 2 hardware threads; the
// batched front end overlaps capture with decode on separate cores, and a
// 1-core machine serializes the two stages, so (as with bench_parallel's
// speedup gate) the gate is recorded as skipped rather than failed there.
//
// All paths read from an in-memory streambuf that exposes the encoded
// capture without copying it, so the comparison isolates the reader
// architecture (per-record istream reads + per-frame allocation vs chunked
// reads + arena slicing + pipelined decode) rather than buffer management
// of the fixture itself.
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "parallel/workload.h"

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

/// Read-only streambuf over an existing byte string: both readers consume
/// the capture without an istringstream's defensive copy per iteration.
class MemBuf : public std::streambuf {
 public:
  explicit MemBuf(const std::string& data) {
    auto* base = const_cast<char*>(data.data());
    setg(base, base, base + data.size());
  }
};

auto record_key(const net::PacketRecord& rec) {
  return std::make_tuple(rec.ts_sec, rec.ts_usec, rec.src.value(),
                         rec.dst.value(), rec.proto, rec.ip_len, rec.ttl,
                         rec.src_port, rec.dst_port, rec.tcp_flags,
                         rec.icmp_type, rec.icmp_code, rec.has_quoted,
                         rec.quoted_src.value(), rec.quoted_dst.value(),
                         rec.quoted_src_port, rec.quoted_dst_port);
}

std::vector<net::PacketRecord> read_sequential(const std::string& pcap) {
  MemBuf buf(pcap);
  std::istream in(&buf);
  net::PcapReader reader(in);
  std::vector<net::PacketRecord> out;
  while (auto rec = reader.next_packet()) out.push_back(*rec);
  return out;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_ingest [--smoke] [--out FILE]\n";
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
    config.direct_attacks = 400;
    config.reflection_attacks = 80;
    config.window_s = 4.0 * 3600.0;
  }

  bench::print_header(
      "Batched ingest: chunked reader + SPSC ring vs per-packet loop",
      "ingest-layer addition; no paper table — baseline for "
      "BENCH_ingest.json");
  std::cerr << "[bench] generating workload (seed " << config.seed << ")...\n";
  const auto workload = parallel::make_workload(config);
  std::ostringstream encoded(std::ios::binary);
  {
    net::PcapWriter writer(encoded);
    for (const auto& rec : workload.packets) writer.write_packet(rec);
  }
  const std::string pcap = encoded.str();
  std::cerr << "[bench] " << workload.packets.size() << " packets, "
            << pcap.size() << " pcap bytes\n";

  // --- Identity cross-check before any timing --------------------------
  const auto reference = read_sequential(pcap);
  if (reference.size() != workload.packets.size()) {
    std::cerr << "bench_ingest: sequential reader lost packets\n";
    return 1;
  }
  struct IngestConfig {
    std::size_t batch_frames;
    std::size_t ring_capacity;
  };
  const IngestConfig checked[] = {{1, 2}, {64, 8}, {4096, 8}};
  for (const auto& cfg : checked) {
    ingest::IngestOptions options;
    options.batch_frames = cfg.batch_frames;
    options.ring_capacity = cfg.ring_capacity;
    MemBuf buf(pcap);
    std::istream in(&buf);
    const auto batched = ingest::read_packets(in, options);
    bool identical = batched.size() == reference.size();
    for (std::size_t i = 0; identical && i < batched.size(); ++i)
      identical = record_key(batched[i]) == record_key(reference[i]);
    if (!identical) {
      std::cerr << "bench_ingest: batched output diverged at batch="
                << cfg.batch_frames << " ring=" << cfg.ring_capacity << "\n";
      return 1;
    }
  }
  std::cout << "identity: batched == sequential across "
            << sizeof(checked) / sizeof(checked[0]) << " configurations ("
            << reference.size() << " packets)\n";

  // --- Timing ----------------------------------------------------------
  const double packets = static_cast<double>(reference.size());
  const auto seq_timing = measure(min_measure_s, [&] {
    return read_sequential(pcap).size();
  });
  const double seq_pps = packets / seq_timing.seconds_per_iter;

  ingest::IngestOptions timed;  // defaults: batch 4096, ring 8
  const auto batched_timing = measure(min_measure_s, [&] {
    MemBuf buf(pcap);
    std::istream in(&buf);
    std::uint64_t count = 0;
    ingest::run_ingest(in, timed,
                       [&](std::span<const net::PacketRecord> recs) {
                         count += recs.size();
                       });
    return count;
  });
  const double batched_pps = packets / batched_timing.seconds_per_iter;
  // The call perfbench's capture workload makes: the same pipeline decoding
  // straight into one vector reserved from the stream's size.
  const auto read_timing = measure(min_measure_s, [&] {
    MemBuf buf(pcap);
    std::istream in(&buf);
    return ingest::read_packets(in, timed).size();
  });
  const double read_pps = packets / read_timing.seconds_per_iter;
  const double speedup =
      batched_timing.seconds_per_iter > 0.0
          ? seq_timing.seconds_per_iter / batched_timing.seconds_per_iter
          : 0.0;

  TextTable table({"reader", "ms/replay", "packets/sec", "speedup"});
  table.add_row({"sequential", fixed(seq_timing.seconds_per_iter * 1e3, 2),
                 fixed(seq_pps / 1e6, 2) + "M", "1.00x"});
  table.add_row({"batched", fixed(batched_timing.seconds_per_iter * 1e3, 2),
                 fixed(batched_pps / 1e6, 2) + "M", fixed(speedup, 2) + "x"});
  table.add_row({"read_packets", fixed(read_timing.seconds_per_iter * 1e3, 2),
                 fixed(read_pps / 1e6, 2) + "M",
                 fixed(seq_timing.seconds_per_iter /
                           read_timing.seconds_per_iter, 2) + "x"});
  std::cout << table;

  const unsigned hardware = std::thread::hardware_concurrency();
  const bool gate_applies = !smoke && hardware >= 2;
  std::cout << "hardware threads: " << hardware
            << (gate_applies ? "" : " (speedup gate skipped)") << "\n";
  JsonWriter json;
  json.begin_object()
      .key("bench").value("ingest")
      .key("smoke").value(smoke)
      .key("seed").value(static_cast<std::uint64_t>(config.seed))
      .key("packets").value(static_cast<std::uint64_t>(reference.size()))
      .key("pcap_bytes").value(static_cast<std::uint64_t>(pcap.size()))
      .key("batch_frames").value(static_cast<std::uint64_t>(timed.batch_frames))
      .key("ring_capacity")
      .value(static_cast<std::uint64_t>(timed.ring_capacity))
      .key("sequential_pps").value(seq_pps)
      .key("batched_pps").value(batched_pps)
      .key("read_packets_pps").value(read_pps)
      .key("speedup").value(speedup)
      .key("identity").value(true)
      .key("hardware_threads").value(static_cast<std::uint64_t>(hardware))
      .key("speedup_gate")
      .value(gate_applies ? (speedup >= 3.0 ? "passed" : "failed")
                          : (smoke ? "skipped (smoke)"
                                   : "skipped (insufficient cores)"));
  bench::report_perfbench(
      json, {{"read_packets_pps", "ingest.records_per_s"},
             {"batched_pps", "none: capture runs read_packets, not a "
                             "counting sink"},
             {"sequential_pps", "none: the sequential reader runs in no "
                                "end-to-end path"}});
  json.end_object();
  bench::write_json(out_path, json);

  if (gate_applies && speedup < 3.0) {
    std::cerr << "bench_ingest: batched speedup " << fixed(speedup, 2)
              << "x is below the 3x baseline\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_ingest: " << e.what() << "\n";
  return 1;
}
