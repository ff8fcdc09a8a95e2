// Concurrency stress surface for the sanitizer matrix (run under TSan in
// CI). Hammers the work queue, the sharded detectors (the telescope
// partition pass and its shard tasks), and the lazily-sorted
// EmpiricalDistribution from many threads; correctness assertions are
// secondary to giving the race detector real interleavings to chew on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "parallel/detect.h"
#include "parallel/work_queue.h"
#include "parallel/workload.h"

namespace dosm::parallel {
namespace {

TEST(ParallelStress, WorkQueueHammering) {
  // Many small batches: thread startup/shutdown and index claiming are the
  // contended paths, not the task bodies.
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    run_tasks(64, 8, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50ull * (64ull * 65ull / 2ull));
}

TEST(ParallelStress, RepeatedShardedDetects) {
  WorkloadConfig config;
  config.seed = 5;
  config.direct_attacks = 12;
  config.reflection_attacks = 4;
  config.window_s = 900.0;
  const auto workload = make_workload(config);
  std::vector<HoneypotLog> logs;
  for (const auto& honeypot : workload.fleet->honeypots())
    logs.push_back({honeypot.id(), honeypot.log()});

  ParallelBackscatterDetector detector(ParallelConfig{8, 16});
  const auto first = detector.detect(workload.packets);
  const auto first_merged =
      parallel_consolidate(logs, {}, ParallelConfig{8, 16});
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(detector.detect(workload.packets).size(), first.size());
    EXPECT_EQ(parallel_consolidate(logs, {}, ParallelConfig{8, 16}).size(),
              first_merged.size());
  }
}

TEST(ParallelStress, PartitionPassRejectsOutOfOrderCaptures) {
  // Every chunk of the partition pass finds a step back in time at once;
  // the detector must name the first whichever task records it first.
  WorkloadConfig config;
  config.seed = 6;
  config.direct_attacks = 12;
  config.reflection_attacks = 4;
  config.window_s = 900.0;
  auto packets = make_workload(config).packets;
  ASSERT_GT(packets.size(), 64u);
  for (auto& rec : packets) rec.ts_sec += 1000;
  for (std::size_t i = 16; i < packets.size(); i += packets.size() / 16)
    packets[i].ts_sec = 0;
  const std::string first = "packet 16 is stamped";
  ParallelBackscatterDetector detector(ParallelConfig{8, 16});
  for (int round = 0; round < 5; ++round) {
    try {
      detector.detect(packets);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(first), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParallelStress, ConcurrentDistributionReaders) {
  // The lazy sort in EmpiricalDistribution used to be an unguarded mutation
  // under const; concurrent first-queries raced. All readers below hit the
  // cold path together.
  for (int round = 0; round < 20; ++round) {
    EmpiricalDistribution dist;
    for (int i = 1000; i > 0; --i) dist.add(static_cast<double>(i));
    std::vector<std::thread> readers;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {}
        EXPECT_DOUBLE_EQ(dist.median(), 500.5);
        EXPECT_DOUBLE_EQ(dist.cdf(250.0), 0.25);
        EXPECT_DOUBLE_EQ(dist.percentile(100.0), 1000.0);
      });
    }
    while (ready.load() < 8) {}
    go.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
  }
}

}  // namespace
}  // namespace dosm::parallel
