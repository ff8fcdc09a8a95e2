// End-to-end scenario tests: a small world must be buildable,
// deterministic, and produce events in both datasets with sane invariants.
#include <gtest/gtest.h>

#include "core/ports.h"
#include "dps/classifier.h"
#include "query/summary.h"
#include "sim/scenario.h"

namespace dosm {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = sim::build_world(sim::ScenarioConfig::small()).release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::World* world_;
};

sim::World* ScenarioTest::world_ = nullptr;

TEST_F(ScenarioTest, ProducesEventsInBothDatasets) {
  EXPECT_GT(world_->telescope_events.size(), 100u);
  EXPECT_GT(world_->honeypot_events.size(), 100u);
  EXPECT_EQ(world_->store.size(),
            world_->telescope_events.size() + world_->honeypot_events.size());
}

TEST_F(ScenarioTest, EventsRespectDetectionThresholds) {
  const auto& thresholds = world_->config.observation.telescope_thresholds;
  for (const auto& event : world_->telescope_events) {
    EXPECT_GE(event.packets, thresholds.min_packets);
    EXPECT_GE(event.duration(), thresholds.min_duration_s);
    EXPECT_GE(event.max_pps, thresholds.min_max_pps);
  }
  for (const auto& event : world_->honeypot_events) {
    EXPECT_GT(event.requests, world_->config.observation.amppot_config.min_requests);
    EXPECT_LE(event.duration(),
              world_->config.observation.amppot_config.max_duration_s + 1.0);
  }
}

TEST_F(ScenarioTest, SummariesAreConsistent) {
  const auto snap = query::Snapshot::from_store(
      world_->store, {world_->population.pfx2as(), world_->population.geo()});
  const auto summarize = [&](core::SourceFilter filter) {
    return query::summarize(*snap, query::Query{}.from_source(filter));
  };
  const auto telescope = summarize(core::SourceFilter::kTelescope);
  const auto honeypot = summarize(core::SourceFilter::kHoneypot);
  const auto combined = summarize(core::SourceFilter::kCombined);
  EXPECT_EQ(combined.events, telescope.events + honeypot.events);
  // Unique targets are sub-additive (overlap between datasets).
  EXPECT_LE(combined.unique_targets,
            telescope.unique_targets + honeypot.unique_targets);
  EXPECT_GE(combined.unique_targets,
            std::max(telescope.unique_targets, honeypot.unique_targets));
  // Rollup hierarchy: targets >= /24s >= /16s >= ASNs is not guaranteed in
  // general, but targets >= /24s >= /16s is.
  EXPECT_GE(combined.unique_targets, combined.unique_slash24);
  EXPECT_GE(combined.unique_slash24, combined.unique_slash16);
  EXPECT_GT(combined.unique_asns, 0u);
}

TEST_F(ScenarioTest, TcpDominatesSpoofedAttacks) {
  const auto rows = core::ip_protocol_distribution(world_->store);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].label, "TCP");
  EXPECT_GT(rows[0].share, 0.6);  // paper: 79.4%
  EXPECT_GT(rows[1].share, rows[2].share * 0.5);  // UDP > ICMP roughly
}

TEST_F(ScenarioTest, NtpLeadsReflectionVectors) {
  const auto rows = core::reflection_distribution(world_->store);
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "NTP");
  EXPECT_GT(rows[0].share, 0.30);  // paper: 40.08%
}

TEST_F(ScenarioTest, DeterministicAcrossRebuilds) {
  const auto again = sim::build_world(sim::ScenarioConfig::small());
  EXPECT_EQ(again->truth.size(), world_->truth.size());
  EXPECT_EQ(again->telescope_events.size(), world_->telescope_events.size());
  EXPECT_EQ(again->honeypot_events.size(), world_->honeypot_events.size());
  EXPECT_EQ(again->migrations.size(), world_->migrations.size());
  ASSERT_FALSE(again->truth.empty());
  EXPECT_EQ(again->truth.front().target, world_->truth.front().target);
  EXPECT_DOUBLE_EQ(again->truth.front().start, world_->truth.front().start);
}

TEST_F(ScenarioTest, MigrationsAreDetectableInDns) {
  // Every applied migration must be re-detectable via the DPS classifier.
  const dps::Classifier classifier(world_->providers, world_->names);
  std::size_t checked = 0;
  for (const auto& migration : world_->migrations) {
    const auto record =
        world_->dns.record_on(migration.domain, migration.migration_day);
    ASSERT_TRUE(record.has_value());
    const auto provider = classifier.classify(*record);
    ASSERT_TRUE(provider.has_value());
    EXPECT_EQ(*provider, migration.provider);
    if (++checked > 200) break;  // sample is enough
  }
  EXPECT_GT(world_->migrations.size(), 0u);
}

}  // namespace
}  // namespace dosm
