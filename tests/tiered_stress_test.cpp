// Concurrent cold reads: several threads drill into one tiered snapshot at
// once, the way the server's workers do, so TieredStore::fetch's cache,
// LRU and decode paths race. Every answer must equal the resident
// snapshot's. Run under DOSMETER_SANITIZE=thread (the TSan CI job names
// this test) it also checks that the store's shared state is race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "query/query.h"
#include "query/snapshot.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/tiered.h"

namespace dosm::storage {
namespace {

/// Cold drill-downs: 1- to 20-day ranges across the window, some narrowed
/// by a source, port or intensity filter.
std::vector<query::Query> drill_downs(const StudyWindow& window) {
  const double t0 = static_cast<double>(window.start_time());
  std::vector<query::Query> queries;
  for (int i = 0; i < 16; ++i) {
    const int first = (i * 7) % (window.num_days() - 20);
    const int days = 1 + (i * 5) % 20;
    query::Query q;
    q.between(t0 + static_cast<double>(first * kSecondsPerDay),
              t0 + static_cast<double>((first + days) * kSecondsPerDay));
    if (i % 4 == 1) q.from_source(core::SourceFilter::kTelescope);
    if (i % 4 == 2) q.on_port(53);
    if (i % 4 == 3) q.at_least(5.0);
    queries.push_back(q);
  }
  return queries;
}

struct Answer {
  std::uint64_t count = 0;
  std::vector<query::TargetCount> top_targets;
  std::vector<std::uint32_t> rows;
  std::vector<double> listed_starts;

  bool operator==(const Answer&) const = default;
};

Answer answer(const query::Snapshot& snapshot, const query::Query& q) {
  Answer a;
  a.count = snapshot.count(q);
  a.top_targets = snapshot.top_targets(q, 5);
  a.rows = snapshot.match_rows(q);
  const std::span<const std::uint32_t> listed(
      a.rows.data(), std::min<std::size_t>(a.rows.size(), 30));
  for (const auto& row : snapshot.event_rows(listed))
    a.listed_starts.push_back(row.start);
  return a;
}

class TieredStressTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TieredStressTest, ConcurrentColdQueriesMatchResident) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto resident = query::Snapshot::from_store(
      world->store,
      query::BuildContext{.pfx2as = world->population.pfx2as(),
                          .geo = world->population.geo(),
                          .segment_days = 1});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dosm_tiered_stress_" + std::to_string(GetParam()) + ".dosarch"))
          .string();
  write_archive(path, *resident);
  query::BuildContext ctx{world->population.pfx2as(),
                          world->population.geo()};
  ctx.hot_days = 10;
  ctx.cold_cache_bytes = GetParam();
  const auto tiered = open_tiered(path, ctx);
  std::remove(path.c_str());
  ASSERT_FALSE(tiered->fully_resident());

  const auto queries = drill_downs(resident->window());
  std::vector<Answer> expected;
  for (const auto& q : queries) expected.push_back(answer(*resident, q));

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the queries from its own offset, so threads
      // fetch different and overlapping segments at the same time.
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t k = (i + t * 5) % queries.size();
          if (answer(*tiered, queries[k]) != expected[k]) ++mismatches[t];
        }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(CacheBudgets, TieredStressTest,
                         ::testing::Values(std::size_t{0}, std::size_t{4096},
                                           std::size_t{1} << 20));

}  // namespace
}  // namespace dosm::storage
