// Parallel execution layer: shard and work-queue unit tests, plus the
// byte-identity property the whole subsystem is built around — the sharded
// detectors' output equals the sequential detectors' output, field for
// field, for every thread and shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "parallel/detect.h"
#include "parallel/shard.h"
#include "parallel/work_queue.h"
#include "parallel/workload.h"
#include "telescope/backscatter.h"

namespace dosm::parallel {
namespace {

using net::Ipv4Addr;

// --- shard.h ------------------------------------------------------------

TEST(Shard, SingleShardTakesEverything) {
  EXPECT_EQ(shard_of(Ipv4Addr(0, 0, 0, 0), 1), 0u);
  EXPECT_EQ(shard_of(Ipv4Addr(255, 255, 255, 255), 1), 0u);
}

TEST(Shard, StableAndInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Ipv4Addr victim(static_cast<std::uint32_t>(rng.next_u64()));
    for (std::size_t n : {2u, 3u, 8u, 13u}) {
      const std::size_t s = shard_of(victim, n);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, shard_of(victim, n));  // pure function of (victim, n)
    }
  }
}

TEST(Shard, Mix32SpreadsSequentialAddresses) {
  // Victims handed out sequentially (common in synthetic workloads) must
  // not collapse onto a few shards; mix32 avalanches the low bits.
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> counts(kShards, 0);
  for (std::uint32_t v = 0; v < 4096; ++v)
    ++counts[shard_of(Ipv4Addr(0x0a000000u + v), kShards)];
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 4096u / kShards / 2);  // no starved shard
    EXPECT_LT(count, 4096u / kShards * 2);  // no hot shard
  }
}

// --- work_queue.h -------------------------------------------------------

TEST(WorkQueue, RunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    constexpr std::size_t kTasks = 100;
    std::vector<std::atomic<int>> hits(kTasks);
    run_tasks(kTasks, threads,
              [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(WorkQueue, ZeroTasksIsANoOp) {
  run_tasks(0, 4, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(WorkQueue, PropagatesFirstException) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        run_tasks(10, threads,
                  [](std::size_t i) {
                    if (i == 3) throw std::runtime_error("boom");
                  }),
        std::runtime_error);
  }
}

// --- detector byte-identity --------------------------------------------

/// Every (threads, shards) case the telescope tests run: the lone-shard
/// direct scan, the partition pass at 2, 3, 4 and 8 chunks, more shards
/// than threads, and several shards on one thread.
constexpr std::pair<int, int> kConfigs[] = {{1, 0}, {2, 0}, {3, 0}, {4, 0},
                                            {8, 0}, {3, 13}, {1, 5}};

std::string label_of(int threads, int shards) {
  return "threads=" + std::to_string(threads) +
         " shards=" + std::to_string(shards);
}

WorkloadConfig test_config() {
  WorkloadConfig config;
  config.seed = 1234;
  config.direct_attacks = 40;
  config.reflection_attacks = 8;
  config.window_s = 1800.0;
  return config;
}

/// Shared read-only workload (logs are consumed only by the harvest test,
/// which makes its own copies).
const DetectWorkload& shared_workload() {
  static const DetectWorkload workload = make_workload(test_config());
  return workload;
}

std::vector<HoneypotLog> logs_of(const DetectWorkload& workload) {
  std::vector<HoneypotLog> logs;
  for (const auto& honeypot : workload.fleet->honeypots())
    logs.push_back({honeypot.id(), honeypot.log()});
  return logs;
}

void expect_identical(const std::vector<telescope::TelescopeEvent>& actual,
                      const std::vector<telescope::TelescopeEvent>& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual[i];
    const auto& e = expected[i];
    EXPECT_EQ(a.victim, e.victim) << label << " row " << i;
    EXPECT_EQ(a.start, e.start) << label << " row " << i;
    EXPECT_EQ(a.end, e.end) << label << " row " << i;
    EXPECT_EQ(a.packets, e.packets) << label << " row " << i;
    EXPECT_EQ(a.bytes, e.bytes) << label << " row " << i;
    EXPECT_EQ(a.unique_sources, e.unique_sources) << label << " row " << i;
    EXPECT_EQ(a.num_ports, e.num_ports) << label << " row " << i;
    EXPECT_EQ(a.top_port, e.top_port) << label << " row " << i;
    EXPECT_EQ(a.attack_proto, e.attack_proto) << label << " row " << i;
    EXPECT_EQ(a.max_pps, e.max_pps) << label << " row " << i;
  }
}

void expect_identical(const std::vector<amppot::AmpPotEvent>& actual,
                      const std::vector<amppot::AmpPotEvent>& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual[i];
    const auto& e = expected[i];
    EXPECT_EQ(a.victim, e.victim) << label << " row " << i;
    EXPECT_EQ(a.protocol, e.protocol) << label << " row " << i;
    EXPECT_EQ(a.start, e.start) << label << " row " << i;
    EXPECT_EQ(a.end, e.end) << label << " row " << i;
    EXPECT_EQ(a.requests, e.requests) << label << " row " << i;
    EXPECT_EQ(a.honeypots, e.honeypots) << label << " row " << i;
    EXPECT_EQ(a.honeypot_id, e.honeypot_id) << label << " row " << i;
  }
}

TEST(ParallelDetect, TelescopeMatchesSequentialForAnyThreadCount) {
  const auto& workload = shared_workload();

  telescope::BackscatterDetector sequential;
  for (const auto& rec : workload.packets) sequential.on_packet(rec);
  const auto expected = sequential.finish();
  ASSERT_FALSE(expected.empty()) << "workload produced no telescope events";

  for (const auto& [threads, shards] : kConfigs) {
    ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
    const auto events = detector.detect(workload.packets);
    expect_identical(events, expected,
                     "threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
    EXPECT_EQ(detector.stats().packets_seen, sequential.packets_seen());
    EXPECT_EQ(detector.stats().backscatter_packets,
              sequential.backscatter_packets());
    EXPECT_EQ(detector.stats().flows_filtered, sequential.flows_filtered());
    EXPECT_EQ(detector.stats().events_emitted, sequential.events_emitted());
  }
}

TEST(ParallelDetect, ConsolidateMatchesSequentialForAnyThreadCount) {
  const auto& workload = shared_workload();
  const auto logs = logs_of(workload);

  std::vector<amppot::AmpPotEvent> stage1;
  for (const auto& log : logs) {
    const auto events =
        amppot::consolidate_log(log.requests, {}, log.honeypot_id);
    stage1.insert(stage1.end(), events.begin(), events.end());
  }
  const auto expected = amppot::merge_fleet_events(std::move(stage1));
  ASSERT_FALSE(expected.empty()) << "workload produced no honeypot events";

  const std::pair<int, int> configs[] = {{1, 0}, {2, 0}, {8, 0}, {3, 13}};
  for (const auto& [threads, shards] : configs) {
    const auto events =
        parallel_consolidate(logs, {}, ParallelConfig{threads, shards});
    expect_identical(events, expected,
                     "threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
  }
}

TEST(ParallelDetect, HarvestMatchesFleetHarvest) {
  // harvest() consumes the logs, so each side gets its own identically
  // seeded workload.
  auto sequential_side = make_workload(test_config());
  auto parallel_side = make_workload(test_config());

  const auto expected = sequential_side.fleet->harvest();

  const auto events =
      parallel_harvest(*parallel_side.fleet, {}, ParallelConfig{4, 0});
  expect_identical(events, expected, "parallel_harvest threads=4");
  // Logs are cleared afterwards, like HoneypotFleet::harvest.
  for (const auto& honeypot : parallel_side.fleet->honeypots())
    EXPECT_TRUE(honeypot.log().empty());
}

TEST(ParallelDetect, TelescopeRecordsGlobalCounters) {
  // The global telescope.* counters must rise by exactly the packets and
  // backscatter one detect() saw, whatever the shard count: shards feed
  // only their own victims' backscatter, so none may count only that as
  // "seen". How closed flows divide between swept and flushed depends on
  // the shard count (each shard sweeps on its own packets); their sum does
  // not.
  const auto& workload = shared_workload();
  const std::uint64_t backscatter = static_cast<std::uint64_t>(std::count_if(
      workload.packets.begin(), workload.packets.end(),
      [](const net::PacketRecord& rec) {
        return telescope::is_backscatter(rec);
      }));
  ASSERT_GT(backscatter, 0u);
  ASSERT_LT(backscatter, workload.packets.size());

  auto& reg = obs::MetricsRegistry::global();
  const auto read = [&] {
    return std::vector<std::uint64_t>{
        reg.counter("telescope.packets_seen").value(),
        reg.counter("telescope.backscatter_packets").value(),
        reg.counter("telescope.flows_opened").value(),
        reg.counter("telescope.flows_swept").value(),
        reg.counter("telescope.flows_flushed").value(),
        reg.counter("telescope.events_emitted").value()};
  };
  const std::pair<int, int> configs[] = {{1, 0}, {2, 0}, {3, 13}};
  for (const auto& [threads, shards] : configs) {
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " shards=" + std::to_string(shards));
    ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
    const auto before = read();
    const auto events = detector.detect(workload.packets);
    const auto after = read();
    EXPECT_EQ(after[0] - before[0], workload.packets.size());
    EXPECT_EQ(after[1] - before[1], backscatter);
    const std::uint64_t opened = after[2] - before[2];
    EXPECT_GT(opened, 0u);
    EXPECT_EQ((after[3] - before[3]) + (after[4] - before[4]), opened);
    EXPECT_EQ(after[5] - before[5], events.size());
  }
}

TEST(ParallelDetect, TelescopeEmptyAndBackscatterFreeCaptures) {
  std::vector<net::PacketRecord> scans;
  for (const auto& rec : shared_workload().packets)
    if (!telescope::is_backscatter(rec)) scans.push_back(rec);
  ASSERT_FALSE(scans.empty());

  const std::pair<int, int> configs[] = {{1, 0}, {2, 0}, {3, 13}};
  for (const auto& [threads, shards] : configs) {
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " shards=" + std::to_string(shards));
    ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
    EXPECT_TRUE(detector.detect({}).empty());
    EXPECT_EQ(detector.stats().packets_seen, 0u);
    EXPECT_EQ(detector.stats().backscatter_packets, 0u);

    EXPECT_TRUE(detector.detect(scans).empty());
    EXPECT_EQ(detector.stats().packets_seen, scans.size());
    EXPECT_EQ(detector.stats().backscatter_packets, 0u);
    EXPECT_EQ(detector.stats().flows_filtered, 0u);
    EXPECT_EQ(detector.stats().events_emitted, 0u);
  }
}

TEST(ParallelDetect, ConsolidateEmptyLogs) {
  const std::vector<amppot::RequestRecord> none;
  const std::vector<HoneypotLog> empty_logs = {{0, none}, {1, none}, {2, none}};
  for (const int threads : {1, 4}) {
    const ParallelConfig config{threads, 0};
    EXPECT_TRUE(parallel_consolidate({}, {}, config).empty());
    EXPECT_TRUE(parallel_consolidate(empty_logs, {}, config).empty());
  }
}

TEST(ParallelDetect, ConsolidateMoreThreadsThanLogs) {
  auto logs = logs_of(shared_workload());
  // The three busiest logs, so the fleet merge has overlaps to fold.
  std::sort(logs.begin(), logs.end(),
            [](const HoneypotLog& a, const HoneypotLog& b) {
              return a.requests.size() > b.requests.size();
            });
  logs.resize(3);

  std::vector<amppot::AmpPotEvent> stage1;
  for (const auto& log : logs) {
    const auto events =
        amppot::consolidate_log(log.requests, {}, log.honeypot_id);
    stage1.insert(stage1.end(), events.begin(), events.end());
  }
  const auto expected = amppot::merge_fleet_events(std::move(stage1));
  ASSERT_FALSE(expected.empty());
  expect_identical(parallel_consolidate(logs, {}, ParallelConfig{8, 0}),
                   expected, "threads=8 logs=3");
}

// --- partition boundaries and timestamp order ---------------------------

net::PacketRecord syn_ack(Ipv4Addr victim, double ts,
                          Ipv4Addr dst = Ipv4Addr(44, 0, 0, 1)) {
  net::PacketRecord rec;
  rec.ts_sec = static_cast<UnixSeconds>(ts);
  rec.ts_usec = static_cast<std::uint32_t>(
      (ts - static_cast<double>(rec.ts_sec)) * 1e6);
  rec.src = victim;
  rec.dst = dst;
  rec.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  rec.src_port = 80;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  rec.ip_len = 40;
  return rec;
}

net::PacketRecord scan_at(double ts) {
  net::PacketRecord rec = syn_ack(Ipv4Addr(6, 6, 6, 6), ts);
  rec.tcp_flags = net::tcp_flags::kSyn;  // not backscatter
  return rec;
}

/// The telescope.* counters a detect() moves, with swept and flushed
/// summed: how closed flows divide between them depends on the shard
/// count, their sum does not.
std::vector<std::uint64_t> telescope_counters() {
  auto& reg = obs::MetricsRegistry::global();
  return {reg.counter("telescope.packets_seen").value(),
          reg.counter("telescope.backscatter_packets").value(),
          reg.counter("telescope.flows_opened").value(),
          reg.counter("telescope.flows_swept").value() +
              reg.counter("telescope.flows_flushed").value(),
          reg.counter("telescope.events_emitted").value(),
          reg.counter("telescope.reject.min_packets").value(),
          reg.counter("telescope.reject.min_duration").value(),
          reg.counter("telescope.reject.min_pps").value()};
}

std::vector<std::uint64_t> minus(const std::vector<std::uint64_t>& after,
                                 const std::vector<std::uint64_t>& before) {
  std::vector<std::uint64_t> delta(after.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    delta[i] = after[i] - before[i];
  return delta;
}

/// Runs `packets` through the sequential detector and through the
/// parallel one at every kConfigs case: events field for field, stats()
/// and the telescope.* counter deltas must all agree.
void expect_same_at_every_config(
    const std::vector<net::PacketRecord>& packets) {
  const auto seq_before = telescope_counters();
  telescope::BackscatterDetector sequential;
  for (const auto& rec : packets) sequential.on_packet(rec);
  const auto expected = sequential.finish();
  const auto seq_delta = minus(telescope_counters(), seq_before);

  for (const auto& [threads, shards] : kConfigs) {
    const std::string label = label_of(threads, shards);
    SCOPED_TRACE(label);
    ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
    const auto before = telescope_counters();
    const auto events = detector.detect(packets);
    EXPECT_EQ(minus(telescope_counters(), before), seq_delta);
    expect_identical(events, expected, label);
    EXPECT_EQ(detector.stats().packets_seen, sequential.packets_seen());
    EXPECT_EQ(detector.stats().backscatter_packets,
              sequential.backscatter_packets());
    EXPECT_EQ(detector.stats().flows_filtered, sequential.flows_filtered());
    EXPECT_EQ(detector.stats().events_emitted, sequential.events_emitted());
  }
}

TEST(ParallelDetect, FlowsStraddlingChunkBoundaries) {
  // Four victims at 1 pps for 700 s with scans between them, so every
  // chunk boundary cuts through open flows. Victim 3 pauses 310 s in the
  // middle (two flows); victim 5 joins for the last 50 s and sends too
  // little to pass the thresholds.
  std::vector<net::PacketRecord> packets;
  for (int t = 0; t < 700; ++t) {
    const double ts = 1000.0 + t;
    for (std::uint8_t v = 1; v <= 4; ++v) {
      if (v == 3 && t >= 300 && t < 610) continue;
      const Ipv4Addr dst(44, 0, v, static_cast<std::uint8_t>(t));
      packets.push_back(syn_ack(Ipv4Addr(10, 0, 0, v), ts, dst));
    }
    if (t % 3 == 0) packets.push_back(scan_at(ts));
    if (t >= 650 && t % 5 == 0)
      packets.push_back(syn_ack(Ipv4Addr(10, 0, 0, 5), ts));
  }
  expect_same_at_every_config(packets);
}

TEST(ParallelDetect, EqualTimestampsAcrossChunkBoundaries) {
  // Every timestamp is shared by eight packets from rotating victims and a
  // scan, so chunk boundaries fall inside runs of equal stamps.
  std::vector<net::PacketRecord> packets;
  for (int g = 0; g < 120; ++g) {
    const double ts = 5000.0 + 2.0 * g;
    for (int k = 0; k < 8; ++k) {
      const auto v = static_cast<std::uint8_t>((g + k) % 6 + 1);
      packets.push_back(syn_ack(Ipv4Addr(10, 1, 0, v), ts,
                                Ipv4Addr(44, 1, static_cast<std::uint8_t>(g),
                                         static_cast<std::uint8_t>(k))));
    }
    packets.push_back(scan_at(ts));
  }
  expect_same_at_every_config(packets);
}

TEST(ParallelDetect, MoreChunksThanPackets) {
  // Up to eight chunks over captures of zero to five packets: most chunks
  // are empty, and some hold one packet.
  const std::vector<net::PacketRecord> five = {
      syn_ack(Ipv4Addr(10, 2, 0, 1), 100.0), scan_at(100.5),
      syn_ack(Ipv4Addr(10, 2, 0, 2), 101.0),
      syn_ack(Ipv4Addr(10, 2, 0, 1), 102.0), scan_at(103.0)};
  for (std::size_t n = 0; n <= five.size(); ++n) {
    SCOPED_TRACE("packets=" + std::to_string(n));
    expect_same_at_every_config(
        {five.begin(), five.begin() + static_cast<std::ptrdiff_t>(n)});
  }
}

TEST(ParallelDetect, ChunksWithoutBackscatter) {
  // Scans only for the first two thirds of the capture, then three
  // victims; and the mirror image, backscatter only at the start.
  std::vector<net::PacketRecord> late, early;
  for (int t = 0; t < 400; ++t) late.push_back(scan_at(2000.0 + t));
  for (int t = 0; t < 200; ++t) {
    for (std::uint8_t v = 1; v <= 3; ++v) {
      late.push_back(syn_ack(Ipv4Addr(10, 3, 0, v), 2400.0 + t));
      early.push_back(syn_ack(Ipv4Addr(10, 3, 0, v), 2000.0 + t));
    }
  }
  for (int t = 0; t < 400; ++t) early.push_back(scan_at(2200.0 + t));
  expect_same_at_every_config(late);
  expect_same_at_every_config(early);
}

/// How the rejection names packet `index` as the one that steps back.
std::string named(std::size_t index) {
  return "packet " + std::to_string(index) + " is stamped";
}

TEST(ParallelDetect, RejectsOutOfOrderTimestamps) {
  // Victim A sends a SYN/ACK every 2 s for 2,000 s; one packet from victim
  // B, stamped 4.0e9 s, sits in the middle. Accepted, it split A into
  // 501 + 500 packets at {1, 0} (the sweep ran at B's stamp) but left A
  // one 1,001-packet event at {2, 0}, where B sits in the other shard.
  const Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  ASSERT_NE(shard_of(a, 2), shard_of(b, 2));
  std::vector<net::PacketRecord> packets;
  for (int i = 0; i <= 1000; ++i) {
    packets.push_back(syn_ack(a, 1000.0 + 2.0 * i));
    if (i == 500) packets.push_back(syn_ack(b, 4.0e9));
  }
  // Packet 501 is B; packet 502, A again at 2002 s, steps back.
  const auto& workload = shared_workload();
  for (const auto& [threads, shards] : kConfigs) {
    SCOPED_TRACE(label_of(threads, shards));
    ParallelBackscatterDetector detector(ParallelConfig{threads, shards});
    detector.detect(workload.packets);
    const TelescopeDetectStats previous = detector.stats();
    const auto before = telescope_counters();
    try {
      detector.detect(packets);
      ADD_FAILURE() << "an out-of-order capture was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(named(502)), std::string::npos)
          << e.what();
    }
    // The capture is rejected before anything reaches stats(); the
    // partition pass rejects it before any packet is counted.
    EXPECT_EQ(detector.stats().packets_seen, previous.packets_seen);
    EXPECT_EQ(detector.stats().events_emitted, previous.events_emitted);
    const auto delta = minus(telescope_counters(), before);
    EXPECT_EQ(delta[0], 0u);
    EXPECT_EQ(delta[1], 0u);
    if ((shards > 0 ? shards : threads) > 1) {
      EXPECT_EQ(delta, std::vector<std::uint64_t>(delta.size(), 0));
    }
  }
}

TEST(ParallelDetect, NamesTheFirstOutOfOrderPacketAtAnyChunkBoundary) {
  // Twelve packets over 2, 3, 4 and 8 chunks start chunks at packets 1, 3,
  // 4, 6, 7, 8, 9 and 10. Each index in turn steps back, alone and with the
  // last packet stepping back too; the first is named.
  for (std::size_t bad = 1; bad < 12; ++bad) {
    for (const bool last_too : {false, true}) {
      if (last_too && bad == 11) continue;
      std::vector<net::PacketRecord> packets;
      for (std::size_t i = 0; i < 12; ++i) {
        const bool back = i == bad || (last_too && i == 11);
        const double ts = back ? 10.0 : 100.0 + static_cast<double>(i);
        packets.push_back(i % 3 == 0 ? scan_at(ts)
                                     : syn_ack(Ipv4Addr(10, 4, 0, 1), ts));
      }
      for (const auto& [threads, shards] : kConfigs) {
        SCOPED_TRACE(label_of(threads, shards) +
                     " bad=" + std::to_string(bad) +
                     (last_too ? " and 11" : ""));
        try {
          ParallelBackscatterDetector(ParallelConfig{threads, shards})
              .detect(packets);
          ADD_FAILURE() << "accepted";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(named(bad)), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace dosm::parallel
