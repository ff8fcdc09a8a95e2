// EventStore tests: fusion, summaries, daily series, normalization. The
// Table-1 rows, daily series and country ranking are queried from a
// Snapshot of the store through query/summary.h.
#include <gtest/gtest.h>

#include "core/event_store.h"
#include "meta/pfx2as.h"
#include "query/summary.h"

namespace dosm::core {
namespace {

using net::Ipv4Addr;
using query::Query;

AttackEvent telescope_event(Ipv4Addr target, double start, double duration,
                            double max_pps) {
  AttackEvent event;
  event.source = EventSource::kTelescope;
  event.target = target;
  event.start = start;
  event.end = start + duration;
  event.intensity = max_pps;
  event.packets = 100;
  event.ip_proto = 6;
  event.num_ports = 1;
  event.top_port = 80;
  return event;
}

AttackEvent honeypot_event(Ipv4Addr target, double start, double duration,
                           double rps) {
  AttackEvent event;
  event.source = EventSource::kHoneypot;
  event.target = target;
  event.start = start;
  event.end = start + duration;
  event.intensity = rps;
  event.packets = 500;
  event.reflection = amppot::ReflectionProtocol::kNtp;
  event.honeypots = 3;
  return event;
}

class EventStoreTest : public ::testing::Test {
 protected:
  EventStoreTest() : t0_(static_cast<double>(window_.start_time())) {
    pfx2as_.announce(net::Prefix::parse("10.0.0.0/8"), 100);
    pfx2as_.announce(net::Prefix::parse("20.0.0.0/8"), 200);
    geo_.add(net::Prefix::parse("10.0.0.0/8"), meta::CountryCode("US"));
    geo_.add(net::Prefix::parse("20.0.0.0/8"), meta::CountryCode("CN"));
  }

  std::shared_ptr<const query::Snapshot> snapshot(const EventStore& store) {
    return query::Snapshot::from_store(store, {pfx2as_, geo_});
  }
  static Query source(SourceFilter filter) {
    return Query{}.from_source(filter);
  }

  StudyWindow window_{};
  double t0_;
  meta::PrefixToAsMap pfx2as_;
  meta::GeoDatabase geo_;
};

TEST_F(EventStoreTest, LiftsSourceEventsCorrectly) {
  telescope::TelescopeEvent te;
  te.victim = Ipv4Addr(1, 2, 3, 4);
  te.start = 100.0;
  te.end = 400.0;
  te.max_pps = 7.0;
  te.packets = 210;
  te.attack_proto = 17;
  te.num_ports = 2;
  te.top_port = 53;
  te.unique_sources = 99;
  const auto lifted = from_telescope(te);
  EXPECT_TRUE(lifted.is_telescope());
  EXPECT_EQ(lifted.target, te.victim);
  EXPECT_DOUBLE_EQ(lifted.intensity, 7.0);
  EXPECT_EQ(lifted.num_ports, 2);
  EXPECT_FALSE(lifted.single_port());

  amppot::AmpPotEvent ae;
  ae.victim = Ipv4Addr(5, 6, 7, 8);
  ae.start = 0.0;
  ae.end = 100.0;
  ae.requests = 1000;
  ae.honeypots = 2;
  ae.protocol = amppot::ReflectionProtocol::kSsdp;
  const auto lifted2 = from_amppot(ae);
  EXPECT_TRUE(lifted2.is_honeypot());
  EXPECT_DOUBLE_EQ(lifted2.intensity, 5.0);  // 1000 / 100 / 2
  EXPECT_EQ(lifted2.reflection, amppot::ReflectionProtocol::kSsdp);
}

TEST_F(EventStoreTest, SummarizeCountsRollups) {
  EventStore store(window_);
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 120, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 200, 120, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 1, 1), t0_ + 300, 120, 1.0));
  store.add(honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 400, 300, 50.0));
  store.add(honeypot_event(Ipv4Addr(10, 0, 0, 1), t0_ + 500, 300, 50.0));
  store.finalize();

  const auto snap = snapshot(store);
  const auto combined = query::summarize(*snap, Query{});
  EXPECT_EQ(combined.events, 5u);
  EXPECT_EQ(combined.unique_targets, 4u);
  EXPECT_EQ(combined.unique_slash24, 3u);  // 10.0.0/24, 10.0.1/24, 20.0.0/24
  EXPECT_EQ(combined.unique_slash16, 2u);
  EXPECT_EQ(combined.unique_asns, 2u);

  const auto telescope =
      query::summarize(*snap, source(SourceFilter::kTelescope));
  EXPECT_EQ(telescope.events, 3u);
  EXPECT_EQ(telescope.unique_targets, 3u);
  EXPECT_EQ(telescope.unique_asns, 1u);
}

TEST_F(EventStoreTest, EventsForTargetAreTimeOrdered) {
  EventStore store(window_);
  const Ipv4Addr target(10, 0, 0, 1);
  store.add(telescope_event(target, t0_ + 900, 60, 1.0));
  store.add(telescope_event(target, t0_ + 100, 60, 1.0));
  store.add(honeypot_event(target, t0_ + 500, 60, 5.0));
  store.finalize();
  const auto indices = store.events_for(target);
  ASSERT_EQ(indices.size(), 3u);
  double prev = 0.0;
  for (const auto i : indices) {
    EXPECT_GE(store.events()[i].start, prev);
    prev = store.events()[i].start;
  }
  EXPECT_TRUE(store.events_for(Ipv4Addr(9, 9, 9, 9)).empty());
}

TEST_F(EventStoreTest, RequiresFinalize) {
  EventStore store(window_);
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_, 60, 1.0));
  EXPECT_THROW(store.events_for(Ipv4Addr(10, 0, 0, 1)), std::logic_error);
  EXPECT_THROW(store.targets(SourceFilter::kCombined), std::logic_error);
  store.finalize();
  EXPECT_NO_THROW(store.targets(SourceFilter::kCombined));
}

TEST_F(EventStoreTest, DailyBreakdownPlacesEventsOnStartDay) {
  EventStore store(window_);
  // Two events on day 0, one on day 1, one crossing midnight counts on day 0.
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 1000, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 2000, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 3), t0_ + 86000, 3600, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 4), t0_ + 86400 + 100, 60, 1.0));
  store.finalize();
  const auto daily = query::summarize_daily(*snapshot(store),
                                           source(SourceFilter::kTelescope));
  EXPECT_EQ(daily[0].events, 3u);
  EXPECT_EQ(daily[1].events, 1u);
  EXPECT_EQ(daily[0].unique_targets, 3u);
  EXPECT_EQ(daily[0].unique_slash16, 1u);
  EXPECT_EQ(daily[0].unique_asns, 1u);
}

TEST_F(EventStoreTest, DailyBreakdownDeduplicatesTargets) {
  EventStore store(window_);
  const Ipv4Addr target(10, 0, 0, 1);
  store.add(telescope_event(target, t0_ + 100, 60, 1.0));
  store.add(telescope_event(target, t0_ + 5000, 60, 1.0));
  store.finalize();
  const auto daily = query::summarize_daily(*snapshot(store),
                                           source(SourceFilter::kTelescope));
  EXPECT_EQ(daily[0].events, 2u);
  EXPECT_EQ(daily[0].unique_targets, 1u);
}

TEST_F(EventStoreTest, MediumIntensityFilterUsesSourceMean) {
  EventStore store(window_);
  // Telescope intensities: 1, 1, 10 (mean 4): only the 10 is medium+.
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 200, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 3), t0_ + 300, 60, 10.0));
  // Honeypot intensities: all 50 (mean 50): all medium+ (>=).
  store.add(honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 400, 100, 50.0));
  store.finalize();
  EXPECT_DOUBLE_EQ(store.mean_intensity(EventSource::kTelescope), 4.0);
  const auto events = store.events();
  EXPECT_FALSE(store.is_medium_or_higher(events[0]));
  EXPECT_FALSE(store.is_medium_or_higher(events[1]));
  EXPECT_TRUE(store.is_medium_or_higher(events[2]));
  EXPECT_TRUE(store.is_medium_or_higher(events[3]));
  // The Figure-5 selection: each source at or above its own mean.
  const auto snap = snapshot(store);
  const auto medium = [&](SourceFilter filter, EventSource src) {
    const double threshold = store.mean_intensity(src);
    return snap->daily_attacks(source(filter).at_least(threshold)).at(0);
  };
  EXPECT_DOUBLE_EQ(medium(SourceFilter::kTelescope, EventSource::kTelescope) +
                       medium(SourceFilter::kHoneypot, EventSource::kHoneypot),
                   2.0);  // the 10-pps + the honeypot
}

TEST_F(EventStoreTest, NormalizedIntensityIsLinearPerSource) {
  EventStore store(window_);
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 60, 25.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 200, 60, 100.0));
  store.add(honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 300, 100, 500.0));
  store.finalize();
  EXPECT_DOUBLE_EQ(store.normalized_intensity(store.events()[0]), 0.25);
  EXPECT_DOUBLE_EQ(store.normalized_intensity(store.events()[1]), 1.0);
  // The honeypot event normalizes against its own dataset's max.
  EXPECT_DOUBLE_EQ(store.normalized_intensity(store.events()[2]), 1.0);
}

TEST_F(EventStoreTest, CountryRankingOrdersByTargets) {
  EventStore store(window_);
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 2), t0_ + 100, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(20, 0, 0, 1), t0_ + 100, 60, 1.0));
  store.add(telescope_event(Ipv4Addr(99, 0, 0, 1), t0_ + 100, 60, 1.0));
  store.finalize();
  const auto ranking =
      snapshot(store)->country_ranking(source(SourceFilter::kTelescope));
  ASSERT_EQ(ranking.size(), 3u);  // US, CN, ZZ (unknown)
  EXPECT_EQ(ranking[0].country.to_string(), "US");
  EXPECT_EQ(ranking[0].targets, 2u);
  EXPECT_DOUBLE_EQ(ranking[0].share, 0.5);
}

TEST_F(EventStoreTest, DistributionsSeparateBySource) {
  EventStore store(window_);
  store.add(telescope_event(Ipv4Addr(10, 0, 0, 1), t0_ + 100, 100, 3.0));
  store.add(honeypot_event(Ipv4Addr(20, 0, 0, 1), t0_ + 100, 200, 70.0));
  store.finalize();
  const auto snap = snapshot(store);
  EXPECT_EQ(query::summarize(*snap, source(SourceFilter::kTelescope)).events,
            1u);
  EXPECT_EQ(query::summarize(*snap, Query{}).events, 2u);
  const auto durations = [&](SourceFilter filter) {
    EmpiricalDistribution dist;
    for (const auto& event : store.events())
      if (matches(filter, event.source)) dist.add(event.duration());
    return dist;
  };
  EXPECT_DOUBLE_EQ(durations(SourceFilter::kTelescope).max(), 100.0);
  EXPECT_DOUBLE_EQ(durations(SourceFilter::kHoneypot).max(), 200.0);
}

TEST_F(EventStoreTest, OverlapPredicate) {
  const auto a = telescope_event(Ipv4Addr(1, 1, 1, 1), 100.0, 100.0, 1.0);
  auto b = honeypot_event(Ipv4Addr(1, 1, 1, 1), 150.0, 100.0, 1.0);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  b.start = 201.0;
  b.end = 300.0;
  EXPECT_FALSE(a.overlaps(b));
  b.start = 200.0;  // touching endpoints count as overlap
  EXPECT_TRUE(a.overlaps(b));
}

}  // namespace
}  // namespace dosm::core
