// Near-realtime streaming fusion tests (§9 extension).
#include <gtest/gtest.h>

#include "core/streaming.h"
#include "query/summary.h"
#include "sim/scenario.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;

AttackEvent event_at(StudyWindow window, int day, double offset_s,
                     EventSource source, Ipv4Addr target) {
  AttackEvent event;
  event.source = source;
  event.target = target;
  event.start = static_cast<double>(window.day_start(day)) + offset_s;
  event.end = event.start + 300.0;
  event.intensity = 1.0;
  return event;
}

class StreamingTest : public ::testing::Test {
 protected:
  StudyWindow window_{};
  std::vector<DaySummary> summaries_;
  CollectSink sink_;
  const std::vector<Alert>& alerts_ = sink_.alerts();

  StreamingFusion make(StreamingFusion::Config config = {}) {
    return StreamingFusion(
        window_, config,
        [this](const DaySummary& s) { summaries_.push_back(s); }, &sink_);
  }
};

TEST_F(StreamingTest, EmitsPerDaySummaries) {
  auto fusion = make();
  fusion.ingest(event_at(window_, 0, 100, EventSource::kTelescope, Ipv4Addr(1, 1, 1, 1)));
  fusion.ingest(event_at(window_, 0, 200, EventSource::kHoneypot, Ipv4Addr(2, 2, 2, 2)));
  fusion.ingest(event_at(window_, 1, 100, EventSource::kTelescope, Ipv4Addr(3, 3, 3, 3)));
  fusion.finish();
  ASSERT_EQ(summaries_.size(), 2u);
  EXPECT_EQ(summaries_[0].day, 0);
  EXPECT_EQ(summaries_[0].attacks, 2u);
  EXPECT_EQ(summaries_[0].telescope_attacks, 1u);
  EXPECT_EQ(summaries_[0].honeypot_attacks, 1u);
  EXPECT_EQ(summaries_[0].unique_targets, 2u);
  EXPECT_EQ(summaries_[1].attacks, 1u);
  EXPECT_EQ(fusion.events_ingested(), 3u);
  EXPECT_EQ(fusion.days_emitted(), 2u);
}

TEST_F(StreamingTest, EmitsEmptyDaysBetweenEvents) {
  auto fusion = make();
  fusion.ingest(event_at(window_, 0, 100, EventSource::kTelescope, Ipv4Addr(1, 1, 1, 1)));
  fusion.ingest(event_at(window_, 3, 100, EventSource::kTelescope, Ipv4Addr(1, 1, 1, 1)));
  fusion.finish();
  ASSERT_EQ(summaries_.size(), 4u);  // days 0,1,2,3
  EXPECT_EQ(summaries_[1].attacks, 0u);
  EXPECT_EQ(summaries_[2].unique_targets, 0u);
}

TEST_F(StreamingTest, CoTargetingDetectedWithinDay) {
  auto fusion = make();
  const Ipv4Addr both(9, 9, 9, 9);
  fusion.ingest(event_at(window_, 0, 100, EventSource::kTelescope, both));
  fusion.ingest(event_at(window_, 0, 200, EventSource::kHoneypot, both));
  fusion.ingest(event_at(window_, 0, 300, EventSource::kTelescope, Ipv4Addr(1, 1, 1, 1)));
  fusion.finish();
  ASSERT_EQ(summaries_.size(), 1u);
  EXPECT_EQ(summaries_[0].unique_targets, 2u);
  EXPECT_EQ(summaries_[0].co_targeted, 1u);
}

TEST_F(StreamingTest, RejectsOutOfOrderEvents) {
  auto fusion = make();
  fusion.ingest(event_at(window_, 1, 100, EventSource::kTelescope, Ipv4Addr(1, 1, 1, 1)));
  EXPECT_THROW(fusion.ingest(event_at(window_, 0, 100, EventSource::kTelescope,
                                      Ipv4Addr(1, 1, 1, 1))),
               std::invalid_argument);
}

TEST_F(StreamingTest, IgnoresEventsOutsideWindow) {
  auto fusion = make();
  AttackEvent early;
  early.start = static_cast<double>(window_.start_time()) - 10.0;
  early.end = early.start + 60.0;
  fusion.ingest(early);
  fusion.finish();
  EXPECT_EQ(fusion.events_ingested(), 0u);
  EXPECT_EQ(summaries_.size(), 0u);
}

TEST_F(StreamingTest, AlertsOnAttackSpike) {
  StreamingFusion::Config config;
  config.min_baseline_days = 3;
  config.spike_factor = 2.0;
  auto fusion = make(config);
  // Baseline: 2 attacks/day for 5 days, then a 10-attack day.
  for (int day = 0; day < 5; ++day) {
    for (int i = 0; i < 2; ++i) {
      fusion.ingest(event_at(window_, day, 100 + i, EventSource::kTelescope,
                             Ipv4Addr(1, 1, static_cast<std::uint8_t>(day),
                                      static_cast<std::uint8_t>(i))));
    }
  }
  for (int i = 0; i < 10; ++i) {
    fusion.ingest(event_at(window_, 5, 100 + i, EventSource::kTelescope,
                           Ipv4Addr(2, 2, 2, static_cast<std::uint8_t>(i))));
  }
  fusion.finish();
  ASSERT_GE(alerts_.size(), 1u);
  EXPECT_EQ(alerts_[0].kind, AlertKind::kAttackSpike);
  EXPECT_EQ(to_string(alerts_[0].kind), "attack-spike");
  EXPECT_EQ(alerts_[0].day, 5);
  EXPECT_DOUBLE_EQ(alerts_[0].value, 10.0);
  EXPECT_DOUBLE_EQ(alerts_[0].baseline, 2.0);
}

TEST_F(StreamingTest, GapDaysDoNotPolluteSpikeBaseline) {
  // Regression: the catch-up loop used to close idle gap days with zero
  // counts into the trailing histories, dragging the mean toward zero; the
  // first ordinary day after a lull then read as a multiple of the baseline
  // and fired a spurious spike alert.
  StreamingFusion::Config config;
  config.min_baseline_days = 3;
  config.spike_factor = 2.0;
  auto fusion = make(config);
  // An ordinary steady level: 4 attacks/day for days 0..4.
  for (int day = 0; day < 5; ++day) {
    for (int i = 0; i < 4; ++i) {
      fusion.ingest(event_at(window_, day, 100 + i, EventSource::kTelescope,
                             Ipv4Addr(1, 1, static_cast<std::uint8_t>(day),
                                      static_cast<std::uint8_t>(i))));
    }
  }
  // A three-week lull, then the same ordinary 4-attack day. With gap days
  // folded into the baseline the mean would be ~0.7 and day 26 would
  // spuriously alert; excluded, the baseline stays 4.0 and stays quiet.
  for (int i = 0; i < 4; ++i) {
    fusion.ingest(event_at(window_, 26, 100 + i, EventSource::kTelescope,
                           Ipv4Addr(2, 2, 2, static_cast<std::uint8_t>(i))));
  }
  fusion.finish();
  EXPECT_EQ(alerts_.size(), 0u);
  // Gap days are still emitted as (empty) summaries: days 0..26.
  EXPECT_EQ(summaries_.size(), 27u);
  // A genuine spike after the lull must still fire against the real level.
  summaries_.clear();
  auto fusion2 = make(config);
  for (int day = 0; day < 5; ++day) {
    for (int i = 0; i < 4; ++i) {
      fusion2.ingest(event_at(window_, day, 100 + i, EventSource::kTelescope,
                              Ipv4Addr(1, 1, static_cast<std::uint8_t>(day),
                                       static_cast<std::uint8_t>(i))));
    }
  }
  for (int i = 0; i < 20; ++i) {
    fusion2.ingest(event_at(window_, 26, 100 + i, EventSource::kTelescope,
                            Ipv4Addr(3, 3, 3, static_cast<std::uint8_t>(i))));
  }
  fusion2.finish();
  ASSERT_GE(alerts_.size(), 1u);
  EXPECT_EQ(alerts_[0].day, 26);
  EXPECT_DOUBLE_EQ(alerts_[0].baseline, 4.0);
}

TEST_F(StreamingTest, NoAlertBeforeBaselineEstablished) {
  StreamingFusion::Config config;
  config.min_baseline_days = 7;
  auto fusion = make(config);
  // A huge spike on day 2: baseline too short to alert.
  fusion.ingest(event_at(window_, 0, 100, EventSource::kTelescope, Ipv4Addr(1, 1, 1, 1)));
  for (int i = 0; i < 100; ++i)
    fusion.ingest(event_at(window_, 2, 100 + i, EventSource::kTelescope,
                           Ipv4Addr(1, 1, 2, static_cast<std::uint8_t>(i))));
  fusion.finish();
  EXPECT_EQ(alerts_.size(), 0u);
}

TEST_F(StreamingTest, RequiresSummaryCallback) {
  EXPECT_THROW(StreamingFusion(window_, {}, nullptr), std::invalid_argument);
}

// Every Config field constraint is enforced at construction, one rejection
// per field, with the field named in the message.
TEST_F(StreamingTest, RejectsNonPositiveBaselineDays) {
  StreamingFusion::Config config;
  config.baseline_days = 0;
  try {
    make(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("baseline_days"), std::string::npos);
  }
  config.baseline_days = -3;
  EXPECT_THROW(make(config), std::invalid_argument);
}

TEST_F(StreamingTest, RejectsSpikeFactorAtOrBelowOne) {
  StreamingFusion::Config config;
  config.spike_factor = 1.0;  // boundary: a spike must EXCEED its baseline
  try {
    make(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spike_factor"), std::string::npos);
  }
  config.spike_factor = 0.5;
  EXPECT_THROW(make(config), std::invalid_argument);
  config.spike_factor = 1.0 + 1e-9;  // any factor strictly above 1 is legal
  EXPECT_NO_THROW(make(config));
}

TEST_F(StreamingTest, RejectsMinBaselineDaysOutsideRange) {
  StreamingFusion::Config config;
  config.min_baseline_days = 0;
  try {
    make(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("min_baseline_days"),
              std::string::npos);
  }
  config.baseline_days = 7;
  config.min_baseline_days = 8;  // cannot require more days than the window
  EXPECT_THROW(make(config), std::invalid_argument);
  config.min_baseline_days = 7;  // boundary: equal is allowed
  EXPECT_NO_THROW(make(config));
}

TEST_F(StreamingTest, MatchesBatchAggregationOnSimulatedWorld) {
  // The streaming path must agree with the batch daily summaries on a
  // real simulated event stream.
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  auto fusion = StreamingFusion(
      world->window, {},
      [this](const DaySummary& s) { summaries_.push_back(s); });
  for (const auto& event : world->store.events()) fusion.ingest(event);
  fusion.finish();

  const auto batch = query::summarize_daily(
      *query::Snapshot::from_store(
          world->store,
          {world->population.pfx2as(), world->population.geo()}),
      query::Query{});
  ASSERT_LE(summaries_.size(),
            static_cast<std::size_t>(world->window.num_days()));
  for (const auto& summary : summaries_) {
    const auto& day = batch.at(static_cast<std::size_t>(summary.day));
    EXPECT_EQ(summary.attacks, day.events) << "day " << summary.day;
    EXPECT_EQ(summary.unique_targets, day.unique_targets);
  }
  // The campaign days should fire spike alerts on a full run with alerts.
  EXPECT_EQ(fusion.events_ingested(), world->store.size());
}

}  // namespace
}  // namespace dosm::core
