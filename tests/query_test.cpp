// Query engine correctness: seeded property tests comparing the indexed
// Snapshot against the ScanOracle (naive linear scan) for every filter /
// aggregation combination, planner behaviour, and the Table-1 and
// Figure-1 rows composed in query/summary.h.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "query/engine.h"
#include "query/scan.h"
#include "query/snapshot.h"
#include "query/summary.h"
#include "sim/scenario.h"

namespace dosm::query {
namespace {

using core::AttackEvent;
using core::EventSource;
using core::SourceFilter;
using net::Ipv4Addr;

constexpr const char* kCountries[] = {"US", "CN", "DE", "FR",
                                      "GB", "NL", "RU", "BR"};

/// A randomized scenario: prefix-structured metadata and an event
/// population with deliberate key collisions (shared targets, /24s, ASNs,
/// countries) so indexes and tie-breaks are actually exercised.
struct Scenario {
  StudyWindow window;
  meta::PrefixToAsMap pfx2as;
  meta::GeoDatabase geo;
  std::vector<AttackEvent> events;
  std::vector<Ipv4Addr> pool;  // target pool the events draw from
};

Scenario make_scenario(std::uint64_t seed, std::size_t num_events) {
  Rng rng(seed);
  Scenario s;
  s.window.end = civil_from_days(days_from_civil(s.window.start) + 29);

  // Eight /8 country blocks; /16 announcements cover only the low second
  // octets, leaving some targets in unannounced (kUnknownAsn) space.
  for (int i = 0; i < 8; ++i) {
    const auto block = Ipv4Addr(static_cast<std::uint8_t>(10 + i), 0, 0, 0);
    s.geo.add(net::Prefix(block, 8), meta::CountryCode(kCountries[i]));
    for (int j = 0; j < 4; ++j) {
      const auto net16 = Ipv4Addr(static_cast<std::uint8_t>(10 + i),
                                  static_cast<std::uint8_t>(j), 0, 0);
      s.pfx2as.announce(net::Prefix(net16, 16),
                        static_cast<meta::Asn>(100 + i * 4 + j));
    }
  }

  for (int i = 0; i < 160; ++i) {
    s.pool.emplace_back(static_cast<std::uint8_t>(10 + rng.next_below(8)),
                        static_cast<std::uint8_t>(rng.next_below(6)),
                        static_cast<std::uint8_t>(rng.next_below(4)),
                        static_cast<std::uint8_t>(rng.next_below(32)));
  }

  const double t0 = static_cast<double>(s.window.start_time());
  const double t1 = static_cast<double>(s.window.end_time());
  const std::uint16_t ports[] = {0, 53, 80, 123, 443};
  for (std::size_t i = 0; i < num_events; ++i) {
    AttackEvent event;
    event.target = s.pool[rng.next_below(s.pool.size())];
    // ~3% of starts fall outside the window on either side.
    event.start = rng.uniform(t0 - 43200.0, t1 + 43200.0);
    event.end = event.start + rng.uniform(60.0, 3600.0);
    event.source =
        rng.bernoulli(0.7) ? EventSource::kTelescope : EventSource::kHoneypot;
    event.intensity = rng.exponential(0.01);
    if (event.source == EventSource::kTelescope) {
      event.top_port = ports[rng.next_below(5)];
      event.ip_proto = rng.bernoulli(0.8) ? 6 : 17;
    }
    s.events.push_back(event);
  }
  return s;
}

Query random_query(Rng& rng, const Scenario& s) {
  Query q;
  if (rng.bernoulli(0.4)) {
    const double day0 = static_cast<double>(
        s.window.day_start(static_cast<int>(rng.next_below(25))));
    q.between(day0, day0 + static_cast<double>(rng.uniform_int(1, 7)) *
                               static_cast<double>(kSecondsPerDay));
  }
  if (rng.bernoulli(0.4)) {
    const SourceFilter filters[] = {SourceFilter::kTelescope,
                                    SourceFilter::kHoneypot,
                                    SourceFilter::kCombined};
    q.from_source(filters[rng.next_below(3)]);
  }
  if (rng.bernoulli(0.4)) {
    const int lengths[] = {8, 16, 24, 32};
    const auto anchor = s.pool[rng.next_below(s.pool.size())];
    q.in_prefix(net::Prefix(anchor, lengths[rng.next_below(4)]));
  }
  if (rng.bernoulli(0.3))
    q.in_asn(static_cast<meta::Asn>(98 + rng.next_below(36)));
  if (rng.bernoulli(0.3))
    q.in_country(rng.bernoulli(0.9)
                     ? meta::CountryCode(kCountries[rng.next_below(8)])
                     : meta::unknown_country());
  if (rng.bernoulli(0.3)) {
    const std::uint16_t ports[] = {0, 53, 80, 123, 443, 9999};
    q.on_port(ports[rng.next_below(6)]);
  }
  if (rng.bernoulli(0.3)) q.at_least(rng.uniform(0.0, 200.0));
  return q;
}

void expect_equal_results(const Snapshot& snap, const ScanOracle& oracle,
                          const Query& q) {
  const std::string label = to_string(q);
  EXPECT_EQ(snap.count(q), oracle.count(q)) << label;
  EXPECT_EQ(snap.unique_targets(q), oracle.unique_targets(q)) << label;

  const auto snap_daily = snap.daily_attacks(q);
  const auto oracle_daily = oracle.daily_attacks(q);
  ASSERT_EQ(snap_daily.num_days(), oracle_daily.num_days());
  for (int d = 0; d < snap_daily.num_days(); ++d)
    EXPECT_DOUBLE_EQ(snap_daily.at(d), oracle_daily.at(d))
        << label << " day " << d;

  EXPECT_EQ(snap.top_targets(q, 5), oracle.top_targets(q, 5)) << label;
  EXPECT_EQ(snap.top_asns(q, 5), oracle.top_asns(q, 5)) << label;

  const auto snap_countries = snap.country_ranking(q);
  const auto oracle_countries = oracle.country_ranking(q);
  ASSERT_EQ(snap_countries.size(), oracle_countries.size()) << label;
  for (std::size_t i = 0; i < snap_countries.size(); ++i) {
    EXPECT_EQ(snap_countries[i].country, oracle_countries[i].country) << label;
    EXPECT_EQ(snap_countries[i].targets, oracle_countries[i].targets) << label;
    EXPECT_DOUBLE_EQ(snap_countries[i].share, oracle_countries[i].share)
        << label;
  }

  EXPECT_EQ(snap.match_rows(q).size(), snap.count(q)) << label;
}

class QueryPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryPropertyTest, SnapshotMatchesOracleOnRandomQueries) {
  const auto scenario = make_scenario(GetParam(), 2000);
  const auto snap =
      Snapshot::build(scenario.window, scenario.events,
                      BuildContext{scenario.pfx2as, scenario.geo});
  const ScanOracle oracle(scenario.events, scenario.window, scenario.pfx2as,
                          scenario.geo);
  // The unfiltered query plus a battery of random filter combinations.
  expect_equal_results(*snap, oracle, Query{});
  Rng rng(GetParam() ^ 0x9e3779b9u);
  for (int i = 0; i < 60; ++i)
    expect_equal_results(*snap, oracle, random_query(rng, scenario));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 20170301u));

// ---------------------------------------------------------------------------
// Segmented snapshots: any segment_days granularity must produce
// results — global row ids included — identical to a single-segment full
// rebuild and to the oracle. This pins the ordering invariant in segment.h.
// ---------------------------------------------------------------------------

using SegmentedParam = std::tuple<std::uint64_t, int>;

class SegmentedSnapshotPropertyTest
    : public ::testing::TestWithParam<SegmentedParam> {};

TEST_P(SegmentedSnapshotPropertyTest, AnyGranularityMatchesFullRebuild) {
  const auto [seed, segment_days] = GetParam();
  const auto scenario = make_scenario(seed, 2000);
  const auto full =
      Snapshot::build(scenario.window, scenario.events,
                      BuildContext{scenario.pfx2as, scenario.geo});
  const auto segmented = Snapshot::build(
      scenario.window, scenario.events,
      BuildContext{.pfx2as = scenario.pfx2as,
                   .geo = scenario.geo,
                   .segment_days = segment_days});
  const ScanOracle oracle(scenario.events, scenario.window, scenario.pfx2as,
                          scenario.geo);

  ASSERT_EQ(full->num_segments(), 1u);
  EXPECT_GT(segmented->num_segments(), 1u);
  ASSERT_EQ(segmented->size(), full->size());
  EXPECT_EQ(segmented->match_rows(Query{}), full->match_rows(Query{}));

  expect_equal_results(*segmented, oracle, Query{});
  Rng rng(seed ^ 0xa5a5a5a5u);
  for (int i = 0; i < 40; ++i) {
    const Query q = random_query(rng, scenario);
    expect_equal_results(*segmented, oracle, q);
    EXPECT_EQ(segmented->match_rows(q), full->match_rows(q)) << to_string(q);
    // Per-segment index selection can only improve on the monolithic plan:
    // candidate totals never exceed the single-segment estimate.
    EXPECT_LE(segmented->plan(q).candidates, full->plan(q).candidates)
        << to_string(q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Granularity, SegmentedSnapshotPropertyTest,
    ::testing::Combine(::testing::Values<std::uint64_t>(1u, 20170301u),
                       ::testing::Values(1, 3, 7)));

// ---------------------------------------------------------------------------
// FrameBuilder: rows sort on (start, target, source) and rows with equal
// keys keep their insertion order, so the frame is a pure function of the
// added sequence.
// ---------------------------------------------------------------------------

TEST(FrameBuilderTest, EqualKeysKeepInsertionOrder) {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 7);
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  FrameBuilder builder(window, pfx2as, geo);

  Rng rng(99);
  const double t0 = static_cast<double>(window.start_time());
  std::vector<AttackEvent> added;
  for (int i = 0; i < 500; ++i) {
    AttackEvent event;
    // Small key space on purpose: most (start, target, source) keys repeat.
    event.target =
        Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(rng.next_below(16)));
    event.start = t0 + static_cast<double>(rng.next_below(32)) * 3600.0;
    event.end = event.start + 60.0;
    event.source = rng.bernoulli(0.5) ? EventSource::kTelescope
                                      : EventSource::kHoneypot;
    event.intensity = static_cast<double>(i);  // the insertion index
    event.top_port = static_cast<std::uint16_t>(i);
    added.push_back(event);
    builder.add(event);
  }

  const EventFrame frame = builder.build();
  ASSERT_EQ(frame.size(), added.size());
  const auto key = [&](std::size_t row) {
    return std::tuple(frame.start()[row], frame.target()[row],
                      frame.source()[row]);
  };
  std::size_t ties = 0;
  for (std::size_t row = 0; row < frame.size(); ++row) {
    const AttackEvent& event =
        added[static_cast<std::size_t>(frame.intensity()[row])];
    EXPECT_EQ(frame.start()[row], event.start);
    EXPECT_EQ(frame.end()[row], event.end);
    EXPECT_EQ(frame.target()[row], event.target.value());
    EXPECT_EQ(frame.source()[row], static_cast<std::uint8_t>(event.source));
    EXPECT_EQ(frame.top_port()[row], event.top_port);
    if (row == 0) continue;
    // Strictly increasing (key, insertion index): sorted, ties in insertion
    // order, and every added event exactly once.
    EXPECT_LT(std::tuple(key(row - 1), frame.intensity()[row - 1]),
              std::tuple(key(row), frame.intensity()[row]))
        << "row " << row;
    if (key(row - 1) == key(row)) ++ties;
  }
  EXPECT_GT(ties, 0u);
}

TEST(QueryPlannerTest, PicksTheCheapestIndex) {
  const auto scenario = make_scenario(11, 3000);
  const auto snap =
      Snapshot::build(scenario.window, scenario.events,
                      BuildContext{scenario.pfx2as, scenario.geo});

  EXPECT_EQ(snap->plan(Query{}).choice, IndexChoice::kFullScan);
  EXPECT_EQ(snap->plan(Query{}).candidates, snap->size());

  // A /32 target is the most selective filter on offer.
  Query by_target;
  by_target.in_prefix(net::Prefix(scenario.pool[0], 32));
  by_target.in_country(meta::CountryCode("US"));
  EXPECT_EQ(snap->plan(by_target).choice, IndexChoice::kTarget32);

  Query by_slash24;
  by_slash24.in_prefix(net::Prefix(scenario.pool[0], 24));
  EXPECT_EQ(snap->plan(by_slash24).choice, IndexChoice::kSlash24);

  // A /8 prefix has no hash index; with no other filter it full-scans.
  Query by_slash8;
  by_slash8.in_prefix(net::Prefix(scenario.pool[0], 8));
  EXPECT_EQ(snap->plan(by_slash8).choice, IndexChoice::kFullScan);

  Query by_asn;
  by_asn.in_asn(101);
  EXPECT_EQ(snap->plan(by_asn).choice, IndexChoice::kAsn);

  Query by_country;
  by_country.in_country(meta::CountryCode("CN"));
  EXPECT_EQ(snap->plan(by_country).choice, IndexChoice::kCountry);

  // A time filter alone uses the contiguous start-sorted range...
  Query one_day;
  const double day0 = static_cast<double>(scenario.window.day_start(3));
  one_day.between(day0, day0 + static_cast<double>(kSecondsPerDay));
  const auto time_plan = snap->plan(one_day);
  EXPECT_EQ(time_plan.choice, IndexChoice::kTimeRange);
  EXPECT_LE(time_plan.candidates, snap->size() / 10);

  // ...and combined with an equality filter, the postings are clipped to
  // that range first, so they cost even less than the day itself.
  Query narrow_time = by_country;
  narrow_time.between(day0, day0 + static_cast<double>(kSecondsPerDay));
  const auto plan = snap->plan(narrow_time);
  EXPECT_EQ(plan.choice, IndexChoice::kCountry);
  EXPECT_LE(plan.candidates, time_plan.candidates);

  // An unknown key has empty postings: zero candidates.
  Query miss;
  miss.in_asn(424242);
  EXPECT_EQ(snap->plan(miss).choice, IndexChoice::kAsn);
  EXPECT_EQ(snap->plan(miss).candidates, 0u);
  EXPECT_EQ(snap->count(miss), 0u);
}

// ---------------------------------------------------------------------------
// FrameIndex against a naive scan: every key of every family, absent keys,
// and the key extremes, over empty, one-row and collision-heavy frames.
// ---------------------------------------------------------------------------

/// A frame with hand-picked key columns; starts ascend one second apart.
EventFrame frame_of(const std::vector<std::uint32_t>& targets,
                    const std::vector<meta::Asn>& asns,
                    const std::vector<PackedCountry>& countries,
                    const std::vector<std::uint16_t>& ports) {
  const std::size_t n = targets.size();
  FrameColumns columns;
  for (std::size_t i = 0; i < n; ++i) {
    columns.start.push_back(1.0e9 + static_cast<double>(i));
    columns.end.push_back(1.0e9 + static_cast<double>(i) + 60.0);
    columns.intensity.push_back(1.0);
    columns.source.push_back(0);
    columns.ip_proto.push_back(6);
    columns.day.push_back(-1);
  }
  columns.target = targets;
  columns.asn = asns;
  columns.country = countries;
  columns.top_port = ports;
  return EventFrame::from_columns(StudyWindow{}, std::move(columns));
}

/// Rows whose key (under `key_of`) equals `key`, ascending.
template <typename KeyOf>
std::vector<std::uint32_t> scan_rows(std::size_t n, std::uint32_t key,
                                     KeyOf key_of) {
  std::vector<std::uint32_t> rows;
  for (std::uint32_t row = 0; row < n; ++row)
    if (key_of(row) == key) rows.push_back(row);
  return rows;
}

std::vector<std::uint32_t> as_vector(std::span<const std::uint32_t> rows) {
  return {rows.begin(), rows.end()};
}

void expect_index_matches_scan(const EventFrame& frame) {
  const FrameIndex index(frame);
  const std::size_t n = frame.size();
  const auto target = frame.target();
  const auto asn = frame.asn();
  const auto country = frame.country();
  const auto port = frame.top_port();
  // Every present key, its neighbours, and both extremes.
  std::set<std::uint32_t> probes = {0u, 1u, 0xffffu, 0x10000u, 0xffffff00u,
                                    0xffffffffu};
  for (std::size_t row = 0; row < n; ++row)
    for (const std::uint32_t key :
         {target[row], asn[row], static_cast<std::uint32_t>(country[row]),
          static_cast<std::uint32_t>(port[row])}) {
      probes.insert(key);
      probes.insert(key + 1);
      probes.insert(key - 1);
    }
  for (const std::uint32_t key : probes) {
    EXPECT_EQ(as_vector(index.by_target(key)),
              scan_rows(n, key, [&](auto r) { return target[r]; }))
        << key;
    EXPECT_EQ(as_vector(index.by_slash24(key)),
              scan_rows(n, key & 0xffffff00u,
                        [&](auto r) { return target[r] & 0xffffff00u; }))
        << key;
    EXPECT_EQ(as_vector(index.by_asn(key)),
              scan_rows(n, key, [&](auto r) { return asn[r]; }))
        << key;
    if (key > 0xffffu) continue;  // country and port keys are 16-bit
    const auto key16 = static_cast<std::uint16_t>(key);
    EXPECT_EQ(as_vector(index.by_country(key16)),
              scan_rows(n, key, [&](auto r) { return country[r]; }))
        << key;
    EXPECT_EQ(as_vector(index.by_port(key16)),
              scan_rows(n, key, [&](auto r) { return port[r]; }))
        << key;
  }
}

TEST(FrameIndexTest, EmptyAndOneRowFrames) {
  expect_index_matches_scan(frame_of({}, {}, {}, {}));
  const FrameIndex empty(frame_of({}, {}, {}, {}));
  EXPECT_TRUE(empty.by_target(0).empty());
  EXPECT_TRUE(empty.by_port(0).empty());
  expect_index_matches_scan(frame_of({0xffffffffu}, {0xffffffffu}, {0xffffu},
                                     {0xffffu}));
  expect_index_matches_scan(frame_of({0u}, {0u}, {0u}, {0u}));
}

TEST(FrameIndexTest, SharedSlash24AndKeyExtremes) {
  // Four /32s in 10.0.0.0/24 interleaved with other prefixes, plus the
  // extremes 0.0.0.0 and 255.255.255.255 in every family.
  const std::vector<std::uint32_t> targets = {
      0x0a000001u, 0u,          0x0a000002u, 0xffffffffu, 0x0a000001u,
      0x0a0000ffu, 0x0a000100u, 0x0a000003u, 0u,          0xffffffffu};
  const std::vector<meta::Asn> asns = {7, 0, 7, 0xffffffffu, 7,
                                       8, 9, 7, 0, 0xffffffffu};
  const std::vector<PackedCountry> countries = {1, 0, 1, 0xffff, 1,
                                                2, 2, 1, 0, 0xffff};
  const std::vector<std::uint16_t> ports = {53, 0, 80, 0xffff, 53,
                                            53, 0, 123, 0, 0xffff};
  const EventFrame frame = frame_of(targets, asns, countries, ports);
  expect_index_matches_scan(frame);
  const FrameIndex index(frame);
  EXPECT_EQ(as_vector(index.by_slash24(0x0a000042u)),
            (std::vector<std::uint32_t>{0, 2, 4, 5, 7}));
  EXPECT_EQ(as_vector(index.by_target(0u)), (std::vector<std::uint32_t>{1, 8}));
  EXPECT_TRUE(index.by_target(0x0a000004u).empty());
}

TEST(FrameIndexTest, RandomFramesMatchNaiveScan) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Small key pools force collisions; sizes cross the 256-row mark.
    const std::size_t n = rng.next_below(600);
    std::vector<std::uint32_t> targets;
    std::vector<meta::Asn> asns;
    std::vector<PackedCountry> countries;
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < n; ++i) {
      targets.push_back(static_cast<std::uint32_t>(
          rng.next_below(4) << 30 | rng.next_below(3) << 8 |
          rng.next_below(5)));
      asns.push_back(static_cast<meta::Asn>(rng.next_below(9) * 70001));
      countries.push_back(static_cast<PackedCountry>(rng.next_below(6) * 257));
      ports.push_back(static_cast<std::uint16_t>(rng.next_below(4) * 16411));
    }
    expect_index_matches_scan(frame_of(targets, asns, countries, ports));
  }
}

TEST(QuerySnapshotTest, TimeRangeBoundariesAreHalfOpen) {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 4);
  meta::PrefixToAsMap pfx2as;
  meta::GeoDatabase geo;
  const double day1 = static_cast<double>(window.day_start(1));

  std::vector<AttackEvent> events(3);
  events[0].start = day1 - 1.0;  // just before the range
  events[1].start = day1;        // exactly at begin: included
  events[2].start = day1 + static_cast<double>(kSecondsPerDay);  // at end: excluded
  for (auto& event : events) {
    event.target = Ipv4Addr(10, 0, 0, 1);
    event.end = event.start + 60.0;
  }
  const auto snap = Snapshot::build(window, events, BuildContext{pfx2as, geo});
  Query q;
  q.between(day1, day1 + static_cast<double>(kSecondsPerDay));
  EXPECT_EQ(snap->count(q), 1u);
  const auto rows = snap->match_rows(q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(snap->event_rows(rows)[0].start, day1);
}

// ---------------------------------------------------------------------------
// The paper's Table-1 rows and Figure-1 daily rows (query/summary.h) are
// composed of Snapshot aggregations; each must equal the same row composed
// of ScanOracle aggregations.
// ---------------------------------------------------------------------------

DatasetSummary oracle_summary(const ScanOracle& oracle, const Query& q) {
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  DatasetSummary row;
  row.events = oracle.count(q);
  row.unique_targets = oracle.unique_targets(q);
  std::set<std::uint32_t> slash24, slash16;
  for (const auto& t : oracle.top_targets(q, kAll)) {
    slash24.insert(t.target.slash24().value());
    slash16.insert(t.target.slash16().value());
  }
  row.unique_slash24 = slash24.size();
  row.unique_slash16 = slash16.size();
  row.unique_asns = oracle.top_asns(q, kAll).size();
  return row;
}

void expect_same_row(const DatasetSummary& got, const DatasetSummary& want,
                     const std::string& what) {
  EXPECT_EQ(got.events, want.events) << what;
  EXPECT_EQ(got.unique_targets, want.unique_targets) << what;
  EXPECT_EQ(got.unique_slash24, want.unique_slash24) << what;
  EXPECT_EQ(got.unique_slash16, want.unique_slash16) << what;
  EXPECT_EQ(got.unique_asns, want.unique_asns) << what;
}

TEST(QuerySummaryTest, TableOneRowsMatchTheOracle) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto& pfx2as = world->population.pfx2as();
  const auto& geo = world->population.geo();
  const auto snap =
      Snapshot::from_store(world->store, BuildContext{pfx2as, geo});
  const ScanOracle oracle(world->store.events(), world->window, pfx2as, geo);

  for (const auto filter : {SourceFilter::kTelescope, SourceFilter::kHoneypot,
                            SourceFilter::kCombined}) {
    const Query q = Query{}.from_source(filter);
    expect_same_row(summarize(*snap, q), oracle_summary(oracle, q),
                    core::to_string(filter));
  }

  // Figure 1: one row per window day, summing to the in-window events.
  const auto daily = summarize_daily(*snap, Query{});
  const auto attacks = oracle.daily_attacks(Query{});
  ASSERT_EQ(daily.size(), static_cast<std::size_t>(attacks.num_days()));
  for (int d = 0; d < attacks.num_days(); ++d) {
    const auto& row = daily[static_cast<std::size_t>(d)];
    EXPECT_DOUBLE_EQ(static_cast<double>(row.events), attacks.at(d)) << d;
    if (d % 7 == 0) {
      const Query day = Query{}.between(
          static_cast<double>(world->window.day_start(d)),
          static_cast<double>(world->window.day_start(d + 1)));
      expect_same_row(row, oracle_summary(oracle, day),
                      "day " + std::to_string(d));
    }
  }
}

// ---------------------------------------------------------------------------
// Query::cache_key() — the canonical hash the serve result cache keys on.
// ---------------------------------------------------------------------------

/// One mutation per Query field. Extending Query means extending this list
/// (the test below fails when a new field leaves the key unchanged only if
/// the list names it, so keep it exhaustive).
std::vector<std::pair<std::string, Query>> single_field_variants() {
  std::vector<std::pair<std::string, Query>> variants;
  variants.emplace_back("time", Query{}.between(100.0, 200.0));
  variants.emplace_back("time.begin", Query{}.between(101.0, 200.0));
  variants.emplace_back("time.end", Query{}.between(100.0, 201.0));
  variants.emplace_back("source.telescope",
                        Query{}.from_source(core::SourceFilter::kTelescope));
  variants.emplace_back("source.honeypot",
                        Query{}.from_source(core::SourceFilter::kHoneypot));
  variants.emplace_back(
      "prefix", Query{}.in_prefix(net::Prefix(net::Ipv4Addr(0x0a000000u), 8)));
  variants.emplace_back(
      "prefix.length",
      Query{}.in_prefix(net::Prefix(net::Ipv4Addr(0x0a000000u), 9)));
  variants.emplace_back("asn", Query{}.in_asn(65000));
  variants.emplace_back("asn.other", Query{}.in_asn(65001));
  variants.emplace_back("country", Query{}.in_country(meta::CountryCode("US")));
  variants.emplace_back("country.other",
                        Query{}.in_country(meta::CountryCode("DE")));
  variants.emplace_back("port", Query{}.on_port(80));
  variants.emplace_back("port.other", Query{}.on_port(443));
  variants.emplace_back("min_intensity", Query{}.at_least(1.5));
  variants.emplace_back("min_intensity.other", Query{}.at_least(1.6));
  return variants;
}

TEST(QueryCacheKeyTest, AnyFieldChangeChangesTheKey) {
  const std::uint64_t base = Query{}.cache_key();
  const auto variants = single_field_variants();
  // Every single-field mutation moves the key away from the default...
  for (const auto& [name, query] : variants)
    EXPECT_NE(query.cache_key(), base) << name;
  // ...and away from every other mutation (field tags keep e.g. asn=80
  // and port=80 apart).
  for (std::size_t i = 0; i < variants.size(); ++i)
    for (std::size_t j = i + 1; j < variants.size(); ++j)
      EXPECT_NE(variants[i].second.cache_key(), variants[j].second.cache_key())
          << variants[i].first << " vs " << variants[j].first;
}

TEST(QueryCacheKeyTest, KeyIsStableForEqualQueries) {
  const Query a = Query{}.between(100.0, 200.0).on_port(80).at_least(0.5);
  const Query b = Query{}.between(100.0, 200.0).on_port(80).at_least(0.5);
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.cache_key(), a.cache_key());
}

// ---------------------------------------------------------------------------
// ExecBudget enforcement inside Snapshot execution.
// ---------------------------------------------------------------------------

TEST(QueryBudgetTest, RowBudgetAbortsDeterministically) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = Snapshot::from_store(
      world->store, BuildContext{world->population.pfx2as(),
                                 world->population.geo()});
  const Query all;
  ExecBudget tight;
  tight.max_rows = 10;  // far below the small world's event count
  ASSERT_GT(snapshot->count(all), 10u);
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      snapshot->count(all, tight);
      FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kRows);
      EXPECT_EQ(e.limit(), 10u);
    }
  }
  // Aggregations all charge the same accounting.
  EXPECT_THROW(snapshot->unique_targets(all, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->daily_attacks(all, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->top_targets(all, 5, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->top_asns(all, 5, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->top_countries(all, 5, tight), BudgetExceeded);
  EXPECT_THROW(snapshot->match_rows(all, tight), BudgetExceeded);
}

TEST(QueryBudgetTest, SufficientBudgetDoesNotPerturbResults) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = Snapshot::from_store(
      world->store, BuildContext{world->population.pfx2as(),
                                 world->population.geo()});
  const Query all;
  ExecBudget roomy;
  roomy.max_rows = snapshot->size() + 1;
  EXPECT_EQ(snapshot->count(all, roomy), snapshot->count(all));
  EXPECT_EQ(snapshot->top_asns(all, 5, roomy), snapshot->top_asns(all, 5));
}

TEST(QueryBudgetTest, RowBudgetIsIdenticalAcrossSegmentGranularities) {
  // Regression: the row budget must charge MATCHED rows, not visited
  // candidates. Candidate counts depend on which access path each
  // per-segment planner picks, so charging candidates made the same query
  // with the same max_rows succeed at one --segment-days and throw at
  // another. Matched rows are a pure function of (dataset, query).
  const auto scenario = make_scenario(0xb0d6e7, 2000);
  const int granularities[] = {0, 1, 7};
  std::vector<std::shared_ptr<const Snapshot>> snaps;
  for (const int days : granularities)
    snaps.push_back(Snapshot::build(
        scenario.window, scenario.events,
        BuildContext{.pfx2as = scenario.pfx2as,
                     .geo = scenario.geo,
                     .segment_days = days}));

  // Find a query whose candidate counts differ across granularities AND
  // exceed its matched count — exactly the shape where candidate-charging
  // diverges: with max_rows == matched, a candidate-charging executor
  // throws on the granularity that scans more than it matches.
  Rng rng(20260808);
  bool exercised = false;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Query q = random_query(rng, scenario);
    const std::uint64_t matched = snaps[0]->count(q);
    if (matched < 2) continue;
    std::uint64_t max_candidates = 0;
    for (const auto& snap : snaps)
      max_candidates = std::max(max_candidates, snap->plan(q).candidates);
    if (max_candidates <= matched) continue;
    exercised = true;

    ExecBudget exact;
    exact.max_rows = matched;
    for (std::size_t g = 0; g < snaps.size(); ++g) {
      EXPECT_EQ(snaps[g]->count(q, exact), matched)
          << "segment_days=" << granularities[g];
      EXPECT_EQ(snaps[g]->match_rows(q, exact), snaps[0]->match_rows(q, exact))
          << "segment_days=" << granularities[g];
    }
    ExecBudget tight;
    tight.max_rows = matched - 1;
    for (std::size_t g = 0; g < snaps.size(); ++g) {
      try {
        snaps[g]->count(q, tight);
        FAIL() << "expected BudgetExceeded at segment_days="
               << granularities[g];
      } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kRows);
      }
    }
    if (exercised && attempt > 50) break;  // a handful of shapes is plenty
  }
  ASSERT_TRUE(exercised) << "no query separated candidates from matches";
}

TEST(QueryBudgetTest, ExpiredDeadlineSurfacesAsTimeKind) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const auto snapshot = Snapshot::from_store(
      world->store, BuildContext{world->population.pfx2as(),
                                 world->population.geo()});
  ExecBudget expired;
  expired.deadline_ns = 1;  // monotonic epoch start — always in the past
  try {
    snapshot->count(Query{}, expired);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kTime);
  }
}

}  // namespace
}  // namespace dosm::query
