// The subscription layer, bottom to top: predicate semantics and canonical
// text, the posting-index vs scan-all-oracle property suite (exact match
// sets AND delivery order, under churn), and the Dispatcher contracts —
// coalescing, drop policy, cursor determinism, long-poll wake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/alert.h"
#include "subscribe/dispatcher.h"
#include "subscribe/index.h"
#include "subscribe/metrics.h"
#include "subscribe/oracle.h"
#include "subscribe/subscription.h"
#include "vector_queue.h"

namespace dosm::subscribe {
namespace {

core::AttackEvent event_on(std::string_view target, double start = 1000.0,
                           std::uint8_t proto = 6) {
  core::AttackEvent event;
  event.target = net::Ipv4Addr::parse(target);
  event.start = start;
  event.end = start + 60.0;
  event.intensity = 50.0;
  event.ip_proto = proto;
  event.top_port = 80;
  return event;
}

core::Alert alert_on(std::string_view target, std::uint8_t proto = 6,
                     meta::Asn asn = meta::kUnknownAsn,
                     meta::CountryCode country = {}) {
  return core::event_alert(event_on(target, 1000.0, proto), /*day=*/3, asn,
                           country);
}

// ---------------------------------------------------------------------------
// Predicate semantics.
// ---------------------------------------------------------------------------

TEST(PredicateTest, ConjunctionOverEventAttributes) {
  const core::Alert alert =
      alert_on("10.1.2.3", 17, meta::Asn{65001}, meta::CountryCode("DE"));

  EXPECT_TRUE(Predicate{}.matches(alert));  // firehose
  EXPECT_TRUE(
      Predicate{}.match_prefix(net::Prefix::parse("10.1.2.3/32")).matches(alert));
  EXPECT_TRUE(
      Predicate{}.match_prefix(net::Prefix::parse("10.1.2.0/24")).matches(alert));
  EXPECT_FALSE(
      Predicate{}.match_prefix(net::Prefix::parse("10.9.0.0/16")).matches(alert));
  EXPECT_TRUE(Predicate{}.match_asn(meta::Asn{65001}).matches(alert));
  EXPECT_FALSE(Predicate{}.match_asn(meta::Asn{65002}).matches(alert));
  EXPECT_TRUE(
      Predicate{}.match_country(meta::CountryCode("DE")).matches(alert));
  EXPECT_FALSE(
      Predicate{}.match_country(meta::CountryCode("US")).matches(alert));
  EXPECT_TRUE(Predicate{}.match_proto(17).matches(alert));
  EXPECT_FALSE(Predicate{}.match_proto(6).matches(alert));
  EXPECT_TRUE(
      Predicate{}.match_kind(core::AlertKind::kNewAttack).matches(alert));
  EXPECT_FALSE(
      Predicate{}.match_kind(core::AlertKind::kAttackSpike).matches(alert));

  // The conjunction: one failing field rules the alert out.
  EXPECT_FALSE(Predicate{}
                   .match_asn(meta::Asn{65001})
                   .match_proto(6)
                   .matches(alert));
}

TEST(PredicateTest, VictimFieldsNeverMatchVictimlessSpikes) {
  const core::Alert spike =
      core::spike_alert(core::AlertKind::kAttackSpike, /*day=*/5, 100.0, 40.0);
  EXPECT_TRUE(Predicate{}.matches(spike));
  EXPECT_TRUE(
      Predicate{}.match_kind(core::AlertKind::kAttackSpike).matches(spike));
  EXPECT_FALSE(
      Predicate{}.match_kind(core::AlertKind::kTargetSpike).matches(spike));
  EXPECT_FALSE(
      Predicate{}.match_prefix(net::Prefix::parse("0.0.0.0/0")).matches(spike));
  EXPECT_FALSE(Predicate{}.match_asn(meta::Asn{1}).matches(spike));
  EXPECT_FALSE(Predicate{}.match_proto(6).matches(spike));
}

TEST(PredicateTest, CanonicalTextIsOrderedAndComplete) {
  EXPECT_EQ(Predicate{}.to_string(), "*");
  EXPECT_EQ(Predicate{}.match_asn(meta::Asn{65001}).to_string(), "asn=65001");
  const Predicate full = Predicate{}
                             .match_prefix(net::Prefix::parse("10.0.0.0/24"))
                             .match_asn(meta::Asn{65001})
                             .match_country(meta::CountryCode("US"))
                             .match_proto(17)
                             .match_kind(core::AlertKind::kTargetSpike);
  EXPECT_EQ(full.to_string(),
            "pfx=10.0.0.0/24;asn=65001;cc=US;proto=17;kind=target-spike");
}

TEST(PredicateTest, ValidateRejectsUnsetCountry) {
  EXPECT_THROW(validate(Predicate{}.match_country(meta::CountryCode{})),
               std::invalid_argument);
  validate(Predicate{}.match_country(meta::CountryCode("US")));  // fine
}

// ---------------------------------------------------------------------------
// Index vs oracle property suite.
// ---------------------------------------------------------------------------

TEST(SubscriptionIndexTest, InsertionMustBeMonotone) {
  SubscriptionIndex index;
  index.insert(1, Predicate{});
  index.insert(5, Predicate{});
  EXPECT_THROW(index.insert(5, Predicate{}), std::invalid_argument);
  EXPECT_THROW(index.insert(3, Predicate{}), std::invalid_argument);
}

TEST(SubscriptionIndexTest, ShortPrefixesAndFirehoseLandOnTheScanList) {
  SubscriptionIndex index;
  index.insert(1, Predicate{});  // firehose
  index.insert(2, Predicate{}.match_prefix(net::Prefix::parse("10.0.0.0/8")));
  index.insert(3, Predicate{}.match_prefix(net::Prefix::parse("10.0.0.0/24")));
  index.insert(4, Predicate{}.match_prefix(net::Prefix::parse("10.0.0.1/32")));
  EXPECT_EQ(index.scan_list_size(), 2u);
  EXPECT_EQ(index.size(), 4u);
}

/// Pools deliberately small so predicates and alerts collide often — the
/// interesting cases are shared /24s, shared ASNs, shared kinds.
const char* kAddrPool[] = {"10.0.0.1",   "10.0.0.2",  "10.0.1.1",
                           "10.0.1.9",   "10.7.0.1",  "172.16.0.4",
                           "192.0.2.55", "192.0.2.56"};
const char* kPrefixPool[] = {"10.0.0.0/8",    "10.0.0.0/16",  "10.0.0.0/24",
                             "10.0.1.0/24",   "10.0.0.1/32",  "10.0.1.1/32",
                             "192.0.2.0/24",  "192.0.2.55/32"};

Predicate random_predicate(Rng& rng) {
  Predicate p;
  if (rng.bernoulli(0.5))
    p.match_prefix(net::Prefix::parse(kPrefixPool[rng.next_below(8)]));
  if (rng.bernoulli(0.25))
    p.match_asn(meta::Asn{static_cast<meta::Asn>(65001 + rng.next_below(3))});
  if (rng.bernoulli(0.2))
    p.match_country(meta::CountryCode(rng.bernoulli(0.5) ? "US" : "DE"));
  if (rng.bernoulli(0.2)) p.match_proto(rng.bernoulli(0.5) ? 6 : 17);
  if (rng.bernoulli(0.3))
    p.match_kind(static_cast<core::AlertKind>(rng.next_below(3)));
  return p;
}

core::Alert random_alert(Rng& rng) {
  if (rng.bernoulli(0.2)) {
    const auto kind = rng.bernoulli(0.5) ? core::AlertKind::kAttackSpike
                                         : core::AlertKind::kTargetSpike;
    return core::spike_alert(kind, static_cast<int>(rng.next_below(30)),
                             rng.uniform(10.0, 500.0), 25.0);
  }
  const meta::Asn asn =
      rng.bernoulli(0.3) ? meta::kUnknownAsn
                         : static_cast<meta::Asn>(65001 + rng.next_below(3));
  const meta::CountryCode country =
      rng.bernoulli(0.3) ? meta::CountryCode{}
                         : meta::CountryCode(rng.bernoulli(0.5) ? "US" : "DE");
  return core::event_alert(
      event_on(kAddrPool[rng.next_below(8)], rng.uniform(0.0, 1e6),
               rng.bernoulli(0.5) ? 6 : 17),
      static_cast<int>(rng.next_below(30)), asn, country);
}

TEST(SubscriptionIndexTest, MatchesExactlyTheScanOracleUnderChurn) {
  Rng rng(0x5eedu);
  SubscriptionIndex index;
  ScanOracle oracle;
  std::vector<Predicate> predicates;  // id - 1 -> predicate
  const auto lookup = [&predicates](SubscriptionId id) -> const Predicate& {
    return predicates[id - 1];
  };

  constexpr std::size_t kSubs = 400;
  for (SubscriptionId id = 1; id <= kSubs; ++id) {
    const Predicate p = random_predicate(rng);
    predicates.push_back(p);
    index.insert(id, p);
    oracle.insert(id, p);
  }

  std::vector<SubscriptionId> via_index;
  std::vector<SubscriptionId> via_oracle;
  const auto check = [&](const core::Alert& alert, const char* phase) {
    via_index.clear();
    via_oracle.clear();
    index.match(alert, lookup, via_index);
    oracle.match(alert, via_oracle);
    ASSERT_EQ(via_index, via_oracle) << phase;
  };

  constexpr int kAlerts = 600;
  for (int i = 0; i < kAlerts; ++i) check(random_alert(rng), "full");

  // Churn: every third subscription leaves; the survivors must keep
  // matching identically.
  for (SubscriptionId id = 3; id <= kSubs; id += 3) {
    EXPECT_TRUE(index.erase(id, predicates[id - 1]));
    oracle.erase(id);
  }
  EXPECT_FALSE(index.erase(3, predicates[2]));  // already gone
  for (int i = 0; i < kAlerts; ++i) check(random_alert(rng), "after-churn");

  // Late arrivals keep ids monotone and matchable.
  for (SubscriptionId id = kSubs + 1; id <= kSubs + 50; ++id) {
    const Predicate p = random_predicate(rng);
    predicates.push_back(p);
    index.insert(id, p);
    oracle.insert(id, p);
  }
  for (int i = 0; i < kAlerts; ++i) check(random_alert(rng), "after-growth");
}

// ---------------------------------------------------------------------------
// Dispatcher contracts.
// ---------------------------------------------------------------------------

TEST(DispatcherTest, DeliversInDispatchOrderMatchingTheOracle) {
  Rng rng(0xd15cu);
  Dispatcher dispatcher;
  ScanOracle oracle;
  std::vector<Predicate> predicates;
  constexpr std::size_t kSubs = 50;
  for (SubscriptionId want = 1; want <= kSubs; ++want) {
    const Predicate p = random_predicate(rng);
    const SubscriptionId id = dispatcher.subscribe(p);
    ASSERT_EQ(id, want);  // monotone assignment
    predicates.push_back(p);
    oracle.insert(id, p);
  }

  // Distinct victims (and distinct spike days) per alert → no coalescing,
  // so per-subscription delivery must replay the oracle-filtered alert
  // sequence exactly.
  std::vector<core::Alert> history;
  for (int i = 0; i < 200; ++i) {
    core::Alert alert = random_alert(rng);
    if (alert.has_event)
      alert.event.target = net::Ipv4Addr{static_cast<std::uint32_t>(
          0x0a000000u + static_cast<std::uint32_t>(i))};
    else
      alert.day = i;  // unique coalescing bucket per spike
    history.push_back(alert);
    dispatcher.on_alert(alert);
  }
  dispatcher.tick();

  std::vector<SubscriptionId> matched;
  for (SubscriptionId id = 1; id <= kSubs; ++id) {
    std::vector<const core::Alert*> expected;
    for (const core::Alert& alert : history)
      if (predicates[id - 1].matches(alert)) expected.push_back(&alert);
    const auto result = dispatcher.fetch(id, 0, 0);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->notifications.size(), expected.size()) << "sub " << id;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Notification& n = result->notifications[i];
      EXPECT_EQ(n.seq, i + 1) << "sub " << id;
      EXPECT_EQ(n.alert.kind, expected[i]->kind);
      EXPECT_EQ(n.alert.has_event, expected[i]->has_event);
      if (n.alert.has_event) {
        EXPECT_EQ(n.alert.event.target.value(),
                  expected[i]->event.target.value());
      }
    }
  }
}

TEST(DispatcherTest, CoalescesSameVictimWithinATick) {
  Dispatcher dispatcher;
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  dispatcher.ingest(event_on("10.1.1.1", 100.0));
  dispatcher.ingest(event_on("10.1.1.1", 160.0));  // folds
  dispatcher.ingest(event_on("10.2.2.2", 170.0));
  dispatcher.tick();
  // A new tick opens a new bucket for the same victim.
  dispatcher.ingest(event_on("10.1.1.1", 400.0));
  dispatcher.tick();

  const auto result = dispatcher.fetch(id, 0, 0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->notifications.size(), 3u);
  EXPECT_EQ(result->notifications[0].seq, 1u);
  EXPECT_EQ(result->notifications[0].coalesced, 1u);
  EXPECT_EQ(result->notifications[0].alert.event.target.to_string(),
            "10.1.1.1");
  EXPECT_EQ(result->notifications[1].coalesced, 0u);
  EXPECT_EQ(result->notifications[2].seq, 3u);
  EXPECT_EQ(result->notifications[2].coalesced, 0u);
}

TEST(DispatcherTest, DropOldestAtTheQueueBound) {
  DispatcherConfig config;
  config.max_pending = 2;
  Dispatcher dispatcher(config);
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  for (int i = 0; i < 5; ++i) {
    dispatcher.ingest(
        event_on("10.0.0." + std::to_string(i + 1), 100.0 * (i + 1)));
    dispatcher.tick();
  }
  const auto result = dispatcher.fetch(id, 0, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dropped, 3u);
  ASSERT_EQ(result->notifications.size(), 2u);
  // The survivors are the NEWEST two — seqs expose the gap.
  EXPECT_EQ(result->notifications[0].seq, 4u);
  EXPECT_EQ(result->notifications[1].seq, 5u);
}

TEST(DispatcherTest, CursorFetchIsDeterministicAndPaged) {
  Dispatcher dispatcher;
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  for (int i = 0; i < 3; ++i)
    dispatcher.ingest(event_on("10.0.0." + std::to_string(i + 1), 100.0));
  dispatcher.tick();

  const auto page = dispatcher.fetch(id, 0, 2);
  ASSERT_TRUE(page.has_value());
  ASSERT_EQ(page->notifications.size(), 2u);
  EXPECT_EQ(page->next_cursor, 2u);
  EXPECT_EQ(page->pending, 1u);

  const auto rest = dispatcher.fetch(id, page->next_cursor, 0);
  ASSERT_TRUE(rest.has_value());
  ASSERT_EQ(rest->notifications.size(), 1u);
  EXPECT_EQ(rest->notifications[0].seq, 3u);
  EXPECT_EQ(rest->pending, 0u);

  // Replaying any cursor returns identical deliveries.
  const auto replay_a = dispatcher.fetch(id, 0, 2);
  const auto replay_b = dispatcher.fetch(id, 0, 2);
  ASSERT_TRUE(replay_a.has_value() && replay_b.has_value());
  ASSERT_EQ(replay_a->notifications.size(), replay_b->notifications.size());
  for (std::size_t i = 0; i < replay_a->notifications.size(); ++i)
    EXPECT_EQ(replay_a->notifications[i].seq, replay_b->notifications[i].seq);

  const auto drained = dispatcher.fetch(id, 3, 0);
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->notifications.empty());
  EXPECT_EQ(drained->next_cursor, 3u);
}

TEST(DispatcherTest, LongPollWakesOnTickAndOnUnsubscribe) {
  Dispatcher dispatcher;
  const SubscriptionId id = dispatcher.subscribe(Predicate{});

  std::optional<FetchResult> polled;
  std::thread poller([&] { polled = dispatcher.fetch(id, 0, 0, 10000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dispatcher.ingest(event_on("10.5.5.5", 100.0));
  dispatcher.tick();
  poller.join();
  ASSERT_TRUE(polled.has_value());
  ASSERT_EQ(polled->notifications.size(), 1u);

  // A long-poller on an id that is unsubscribed mid-wait must observe the
  // removal, not block out the full window.
  const SubscriptionId doomed = dispatcher.subscribe(Predicate{});
  std::optional<FetchResult> after_removal = FetchResult{};
  std::thread waiter(
      [&] { after_removal = dispatcher.fetch(doomed, 0, 0, 10000); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dispatcher.unsubscribe(doomed);
  waiter.join();
  EXPECT_FALSE(after_removal.has_value());
}

TEST(DispatcherTest, LifecycleEdges) {
  DispatcherConfig zero;
  zero.max_pending = 0;
  EXPECT_THROW(Dispatcher{zero}, std::invalid_argument);

  Dispatcher dispatcher;
  EXPECT_THROW(
      dispatcher.subscribe(Predicate{}.match_country(meta::CountryCode{})),
      std::invalid_argument);
  EXPECT_FALSE(dispatcher.fetch(1, 0, 0).has_value());
  EXPECT_FALSE(dispatcher.unsubscribe(1));

  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  EXPECT_EQ(dispatcher.active_subscriptions(), 1u);
  EXPECT_TRUE(dispatcher.unsubscribe(id));
  EXPECT_FALSE(dispatcher.unsubscribe(id));
  EXPECT_EQ(dispatcher.active_subscriptions(), 0u);
  EXPECT_FALSE(dispatcher.fetch(id, 0, 0).has_value());
  // Ids are never reused after an unsubscribe.
  EXPECT_GT(dispatcher.subscribe(Predicate{}), id);
}


// ---------------------------------------------------------------------------
// The queue ring against a naive vector queue, in lockstep.
// ---------------------------------------------------------------------------

/// The dispatcher's delivery semantics with the reference vector queue of
/// bench/vector_queue.h behind every subscription; the predicate matching
/// and subscription lifecycle are modelled here.
class NaiveDispatcher {
 public:
  explicit NaiveDispatcher(std::size_t bound) : bound_(bound) {}

  SubscriptionId subscribe(const Predicate& predicate) {
    subs_.push_back(Sub{predicate, true, {}});
    return static_cast<SubscriptionId>(subs_.size());
  }

  void unsubscribe(SubscriptionId id) {
    subs_[id - 1].active = false;
    subs_[id - 1].queue = {};
  }

  void on_alert(const core::Alert& alert) {
    for (Sub& sub : subs_)
      if (sub.active && sub.predicate.matches(alert)) sub.queue.stage(alert);
  }

  void tick() {
    for (Sub& sub : subs_)
      if (sub.active) dropped_total_ += sub.queue.flush(bound_);
  }

  std::optional<FetchResult> fetch(SubscriptionId id, std::uint64_t cursor,
                                   std::size_t max_items) const {
    const Sub& sub = subs_[id - 1];
    if (!sub.active) return std::nullopt;
    return sub.queue.fetch(cursor, max_items);
  }

  std::uint64_t pending_total() const {
    std::uint64_t total = 0;
    for (const Sub& sub : subs_) total += sub.queue.queue.size();
    return total;
  }
  std::uint64_t dropped_total() const { return dropped_total_; }
  std::size_t size() const { return subs_.size(); }
  bool active(SubscriptionId id) const { return subs_[id - 1].active; }
  /// Oldest retained and newest flushed seq (0, 0 when empty).
  std::pair<std::uint64_t, std::uint64_t> span(SubscriptionId id) const {
    const auto& queue = subs_[id - 1].queue.queue;
    if (queue.empty()) return {0, 0};
    return {queue.front().seq, queue.back().seq};
  }

 private:
  struct Sub {
    Predicate predicate;
    bool active = true;
    bench::VectorQueue queue;
  };
  std::size_t bound_;
  std::vector<Sub> subs_;
  std::uint64_t dropped_total_ = 0;
};

void expect_same_fetch(const std::optional<FetchResult>& got,
                       const std::optional<FetchResult>& want,
                       const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (got) {
    EXPECT_EQ(bench::fetch_difference(*got, *want), "") << where;
  }
}

/// Compares fetches at cursors around every interesting point: before,
/// at and past the retained span, random ones, and UINT64_MAX; then pages
/// through the whole queue with a small max, which crosses the ring's wrap
/// point once the head has moved.
void expect_same_queues(Dispatcher& ring, const NaiveDispatcher& naive,
                        Rng& rng, std::size_t bound, const std::string& step) {
  for (SubscriptionId id = 1; id <= naive.size(); ++id) {
    const std::string where = step + " sub " + std::to_string(id);
    if (!naive.active(id)) {
      EXPECT_FALSE(ring.fetch(id, 0, 0).has_value()) << where;
      continue;
    }
    const auto [oldest, newest] = naive.span(id);
    std::vector<std::uint64_t> cursors = {
        0, oldest, newest, newest + 1, newest + 7,
        std::numeric_limits<std::uint64_t>::max(),
        rng.next_below(newest + 3)};
    if (oldest > 0) cursors.push_back(oldest - 1);
    for (const std::uint64_t cursor : cursors) {
      for (const std::size_t max :
           {std::size_t{0}, std::size_t{1},
            std::size_t{1} + rng.next_below(bound + 2)}) {
        expect_same_fetch(ring.fetch(id, cursor, max),
                          naive.fetch(id, cursor, max),
                          where + " cursor " + std::to_string(cursor) +
                              " max " + std::to_string(max));
      }
    }
    const std::size_t page = 1 + rng.next_below(bound / 3 + 1);
    std::uint64_t cursor = 0;
    for (;;) {
      const auto want = naive.fetch(id, cursor, page);
      expect_same_fetch(ring.fetch(id, cursor, page), want,
                        where + " page from " + std::to_string(cursor));
      if (::testing::Test::HasFailure() || want->notifications.empty()) break;
      cursor = want->next_cursor;
    }
  }
}

class RingDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingDifferential, MatchesTheNaiveVectorQueue) {
  const std::size_t bound = GetParam();
  Rng rng(0x5eedu + bound);
  DispatcherConfig config;
  config.max_pending = bound;
  Dispatcher ring(config);
  NaiveDispatcher naive(bound);
  Metrics& metrics = Metrics::get();

  const auto add = [&](const Predicate& p) {
    ASSERT_EQ(ring.subscribe(p), naive.subscribe(p));
  };
  add(Predicate{});  // firehose: stages exactly the distinct victims
  add(Predicate{}.match_prefix(net::Prefix::parse("10.0.0.0/24")));
  add(Predicate{}.match_proto(17));
  add(Predicate{}.match_kind(core::AlertKind::kAttackSpike));
  add(Predicate{}.match_asn(meta::Asn{65001}));

  std::uint32_t next_victim = 0;
  for (int step = 0; step < 60; ++step) {
    const std::string name = "bound " + std::to_string(bound) + " step " +
                             std::to_string(step);
    // Distinct victims this tick, below, at or above the bound; the
    // firehose stages exactly that many.
    std::size_t distinct = 0;
    switch (rng.next_below(4)) {
      case 0: distinct = rng.next_below(bound); break;
      case 1: distinct = bound; break;
      case 2: distinct = bound + 1 + rng.next_below(2 * bound); break;
      default: distinct = rng.next_below(3); break;
    }
    std::vector<core::Alert> alerts;
    for (std::size_t i = 0; i < distinct; ++i) {
      const std::uint32_t v = next_victim++;
      core::AttackEvent event;
      event.target = net::Ipv4Addr{0x0a000000u + (v % 1024u)};
      event.start = 1000.0 + v;
      event.end = event.start + 60.0;
      event.ip_proto = rng.bernoulli(0.5) ? 6 : 17;
      alerts.push_back(core::event_alert(
          event, step,
          rng.bernoulli(0.5) ? meta::Asn{65001} : meta::Asn{65002},
          meta::CountryCode("DE")));
      // Repeat a victim of this tick now and then: it coalesces.
      if (rng.bernoulli(0.15))
        alerts.push_back(alerts[rng.next_below(alerts.size())]);
    }
    if (rng.bernoulli(0.3))
      alerts.push_back(core::spike_alert(core::AlertKind::kAttackSpike, step,
                                         100.0, 10.0));
    for (const core::Alert& alert : alerts) {
      ring.on_alert(alert);
      naive.on_alert(alert);
    }

    // Churn: unsubscribe mid-tick (staged, not yet flushed) and add a new
    // watcher that starts with an empty ring.
    if (rng.bernoulli(0.1) && naive.size() > 1) {
      const auto id =
          static_cast<SubscriptionId>(1 + rng.next_below(naive.size()));
      if (naive.active(id)) {
        EXPECT_TRUE(ring.unsubscribe(id)) << name;
        naive.unsubscribe(id);
      }
    }
    if (rng.bernoulli(0.1)) {
      Predicate p;
      if (rng.bernoulli(0.5)) p.match_proto(6);
      add(p);
    }

    const std::uint64_t dropped_before = metrics.dropped.value();
    const std::uint64_t naive_dropped_before = naive.dropped_total();
    ring.tick();
    naive.tick();
    EXPECT_EQ(metrics.dropped.value() - dropped_before,
              naive.dropped_total() - naive_dropped_before)
        << name;
    EXPECT_EQ(metrics.pending.value(),
              static_cast<std::int64_t>(naive.pending_total()))
        << name;
    expect_same_queues(ring, naive, rng, bound, name);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RingDifferential,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{7},
                                           std::size_t{64}));

TEST(DispatcherTest, RingGrowsWhileItsHeadHasMoved) {
  // Bound 64 starts the ring at 8 slots. Five notifications, then 62 in one
  // tick: the flush evicts the three oldest (moving the head) and grows the
  // ring in the same step; the survivors must come out in order.
  DispatcherConfig config;
  config.max_pending = 64;
  Dispatcher dispatcher(config);
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  const auto stage = [&](int count, int base) {
    for (int i = 0; i < count; ++i)
      dispatcher.ingest(event_on(
          net::Ipv4Addr{0x0a000000u + static_cast<std::uint32_t>(base + i)}
              .to_string(),
          100.0 + base + i));
    dispatcher.tick();
  };
  stage(5, 0);
  stage(62, 5);
  const auto all = dispatcher.fetch(id, 0, 0);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->dropped, 3u);
  ASSERT_EQ(all->notifications.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(all->notifications[i].seq, i + 4);
  EXPECT_EQ(all->notifications.front().alert.event.target.to_string(),
            "10.0.0.3");
}

TEST(DispatcherTest, HostileCursorsAreClampedNotWrapped) {
  DispatcherConfig config;
  config.max_pending = 4;
  Dispatcher dispatcher(config);
  const SubscriptionId id = dispatcher.subscribe(Predicate{});
  for (int i = 0; i < 10; ++i)
    dispatcher.ingest(event_on("10.0.0." + std::to_string(i + 1), 100.0 + i));
  dispatcher.tick();  // seqs 1..10 staged; 7..10 retained, 6 dropped

  // Above the newest seq, and UINT64_MAX: nothing, the cursor echoed back,
  // nothing pending.
  for (const std::uint64_t cursor :
       {std::uint64_t{11}, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    const auto result = dispatcher.fetch(id, cursor, 0);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->notifications.empty()) << cursor;
    EXPECT_EQ(result->next_cursor, cursor);
    EXPECT_EQ(result->pending, 0u);
    EXPECT_EQ(result->dropped, 6u);
  }
  // Below the oldest retained seq after drops: everything retained.
  for (const std::uint64_t cursor :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
        std::uint64_t{6}}) {
    const auto result = dispatcher.fetch(id, cursor, 0);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->notifications.size(), 4u) << cursor;
    EXPECT_EQ(result->notifications.front().seq, 7u);
    EXPECT_EQ(result->next_cursor, 10u);
    EXPECT_EQ(result->pending, 0u);
  }
  // Paged from below the span: pending counts what the page left behind.
  const auto page = dispatcher.fetch(id, 2, 3);
  ASSERT_TRUE(page.has_value());
  ASSERT_EQ(page->notifications.size(), 3u);
  EXPECT_EQ(page->next_cursor, 9u);
  EXPECT_EQ(page->pending, 1u);
}

}  // namespace
}  // namespace dosm::subscribe
