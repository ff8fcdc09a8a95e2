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

  const std::pair<int, int> configs[] = {{1, 0}, {2, 0}, {8, 0},
                                         {3, 13}, {1, 5}};
  for (const auto& [threads, shards] : configs) {
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

}  // namespace
}  // namespace dosm::parallel
