// `live`: the operator's path, writes beside reads.
//
// The world's fused events stream in start order through StreamingFusion
// (whose alert sink is the subscribe::Dispatcher), SnapshotPublisher and
// Dispatcher::ingest, with Dispatcher::tick() once per day. Subscriptions
// are drawn from the world's victims (mostly /32 and /24, some ASN, a few
// country); two HTTP /watch long-pollers sit on the busiest ones. One op is
// one stream day, from handing in its first event until tick() returns.
//
// Subscription queues fill to max_pending over the first pass, and op time
// climbs while they do; set-up replays passes until two consecutive passes
// agree, so the timed section starts at steady state. Fusion and publisher
// restart every pass (both need start-ordered input); the dispatcher and
// its queues persist.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/alert.h"
#include "core/streaming.h"
#include "harness.h"
#include "query/engine.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "subscribe/dispatcher.h"
#include "subscribe/oracle.h"

namespace perfbench {
namespace {

using namespace dosm;

struct Sizes {
  int slash32 = 1500;
  int slash24 = 400;
  int asns = 240;
  int countries = 60;
  std::size_t pollers = 1;
  /// Timed passes over the stream per --seconds of run time (rounded up to
  /// an even count, so the two halves of the section do the same work).
  double passes_per_second = 0.5;
  int min_warmup_passes = 3;  // the first pass fills the busy queues
  int max_warmup_passes = 8;
  /// Consecutive warm-up passes whose median op latency agree this closely
  /// mark steady state.
  double steady_tolerance = 0.1;
};

/// Forwards fusion's spike alerts to the dispatcher inside a span.
class TracedSink final : public core::AlertSink {
 public:
  TracedSink(subscribe::Dispatcher& dispatcher, SpanLog*& log)
      : dispatcher_(dispatcher), log_(log) {}
  void on_alert(const core::Alert& alert) override {
    ScopedSpan span(*log_, "subscribe.dispatch");
    dispatcher_.on_alert(alert);
  }

 private:
  subscribe::Dispatcher& dispatcher_;
  SpanLog*& log_;
};

/// Appends every alert fusion raises to the day being streamed.
class RecordingSink final : public core::AlertSink {
 public:
  explicit RecordingSink(std::vector<std::vector<core::Alert>>& days)
      : days_(days) {}
  void on_alert(const core::Alert& alert) override {
    days_[day].push_back(alert);
  }
  std::size_t day = 0;

 private:
  std::vector<std::vector<core::Alert>>& days_;
};

bool same_bucket(const core::Alert& a, const core::Alert& b) {
  if (a.kind != b.kind || a.has_event != b.has_event) return false;
  return a.has_event ? a.event.target == b.event.target : a.day == b.day;
}

struct Expected {
  const core::Alert* alert = nullptr;
  std::uint32_t coalesced = 0;
};

/// The stream, the subscriptions and, for a fixed sample of them, the
/// notifications each day should deliver according to the scan-all oracle.
struct Stream {
  std::unique_ptr<sim::World> world;
  StudyWindow window;
  std::vector<core::AttackEvent> events;                // start order
  std::vector<std::pair<std::size_t, std::size_t>> days;  // event ranges
  std::vector<subscribe::Predicate> predicates;
  std::vector<std::size_t> busiest;  // predicate indexes for the pollers
  std::vector<std::size_t> sample;   // predicate indexes checked per day
  std::vector<std::vector<core::Alert>> day_alerts;
  /// expected[day][k]: what sample[k] gets at that day's tick.
  std::vector<std::vector<std::vector<Expected>>> expected;
};

Stream make_stream(const Sizes& sizes, const sim::ScenarioConfig& scenario) {
  Stream s;
  s.world = sim::build_world(scenario);
  s.window = s.world->window;
  for (const auto& e : s.world->store.events())
    if (s.window.contains(static_cast<UnixSeconds>(e.start)))
      s.events.push_back(e);
  std::sort(s.events.begin(), s.events.end(), core::canonical_less);
  const int num_days = s.window.num_days();
  std::size_t next = 0;
  for (int d = 0; d < num_days; ++d) {
    const std::size_t begin = next;
    while (next < s.events.size() &&
           s.window.day_of(static_cast<UnixSeconds>(s.events[next].start)) == d)
      ++next;
    s.days.emplace_back(begin, next);
  }

  // Subscriptions either fill their queue within one pass (ASN and country
  // watchers with more alerts per pass than max_pending) or never fill
  // within a run (prefix watchers with at most kLightMax alerts per pass).
  // Queues that fill over several passes would make op time drift.
  const auto& pfx2as = s.world->population.pfx2as();
  const auto& geo = s.world->population.geo();
  std::map<std::uint32_t, std::size_t> per32;
  std::map<std::uint32_t, std::size_t> per24;
  std::map<meta::Asn, std::size_t> per_asn;
  std::map<meta::CountryCode, std::size_t> per_country;
  for (const auto& e : s.events) {
    ++per32[e.target.value()];
    ++per24[e.target.value() >> 8];
    ++per_asn[pfx2as.origin(e.target)];
    ++per_country[geo.locate(e.target)];
  }
  Rng rng(scenario.seed ^ 0x51b5u);
  const auto victim = [&] {
    return s.events[rng.next_below(s.events.size())].target;
  };
  constexpr std::size_t kLightMax = 40;
  const std::size_t heavy_min = 2 * subscribe::DispatcherConfig{}.max_pending;
  for (int i = 0; i < sizes.slash32;) {
    const net::Ipv4Addr v = victim();
    if (per32[v.value()] > kLightMax) continue;
    s.predicates.push_back(
        subscribe::Predicate{}.match_prefix(net::Prefix(v, 32)));
    ++i;
  }
  for (int i = 0; i < sizes.slash24;) {
    const net::Ipv4Addr v = victim();
    if (per24[v.value() >> 8] > kLightMax) continue;
    s.predicates.push_back(
        subscribe::Predicate{}.match_prefix(net::Prefix(v, 24)));
    ++i;
  }
  std::vector<std::pair<std::size_t, meta::CountryCode>> ranked;
  for (const auto& [cc, n] : per_country)
    if (cc != meta::unknown_country()) ranked.emplace_back(n, cc);
  std::sort(ranked.rbegin(), ranked.rend());
  bool any_heavy_asn = false;
  for (const auto& [asn, n] : per_asn)
    any_heavy_asn |= asn != meta::kUnknownAsn && n >= heavy_min;
  // Heavy watchers are drawn by alert volume; several operators may watch
  // the same AS or country.
  for (int i = 0; any_heavy_asn && i < sizes.asns;) {
    const meta::Asn asn = pfx2as.origin(victim());
    if (asn == meta::kUnknownAsn || per_asn[asn] < heavy_min) continue;
    s.predicates.push_back(subscribe::Predicate{}.match_asn(asn));
    ++i;
  }
  const bool any_heavy_country =
      !ranked.empty() && ranked.front().first >= heavy_min;
  for (int i = 0; !ranked.empty() && i < sizes.countries; ++i) {
    meta::CountryCode cc;
    if (static_cast<std::size_t>(i) < std::min(sizes.pollers, ranked.size())) {
      cc = ranked[static_cast<std::size_t>(i)].second;  // the busiest first
      s.busiest.push_back(s.predicates.size());
    } else if (any_heavy_country) {
      do cc = geo.locate(victim());
      while (cc == meta::unknown_country() || per_country[cc] < heavy_min);
    } else {
      break;
    }
    s.predicates.push_back(subscribe::Predicate{}.match_country(cc));
  }
  // Four of each kind, the busiest country included.
  const std::size_t bounds[] = {
      0, static_cast<std::size_t>(sizes.slash32),
      static_cast<std::size_t>(sizes.slash32 + sizes.slash24),
      s.busiest.empty() ? s.predicates.size() : s.busiest.front(),
      s.predicates.size()};
  for (std::size_t kind = 0; kind + 1 < std::size(bounds); ++kind)
    for (std::size_t k = bounds[kind]; k < std::min(bounds[kind] + 4, bounds[kind + 1]); ++k)
      s.sample.push_back(k);

  // The alert stream one pass raises, in dispatch order: fusion's spike
  // alerts for closed days, then each event's own alert.
  s.day_alerts.resize(s.days.size());
  RecordingSink recorder(s.day_alerts);
  core::StreamingFusion fusion(s.window, {}, [](const core::DaySummary&) {},
                               &recorder);
  for (std::size_t d = 0; d < s.days.size(); ++d) {
    recorder.day = d;
    for (std::size_t i = s.days[d].first; i < s.days[d].second; ++i) {
      const auto& e = s.events[i];
      fusion.ingest(e);
      s.day_alerts[d].push_back(core::event_alert(
          e, static_cast<int>(d), pfx2as.origin(e.target), geo.locate(e.target)));
    }
    if (d + 1 == s.days.size()) fusion.finish();
  }

  // Scan-all oracle over the sample, with the dispatcher's per-tick
  // coalescing rule.
  subscribe::ScanOracle oracle;
  for (std::size_t k = 0; k < s.sample.size(); ++k)
    oracle.insert(k + 1, s.predicates[s.sample[k]]);
  s.expected.resize(s.days.size());
  std::vector<subscribe::SubscriptionId> matched;
  for (std::size_t d = 0; d < s.days.size(); ++d) {
    auto& staged = s.expected[d];
    staged.resize(s.sample.size());
    for (const auto& alert : s.day_alerts[d]) {
      matched.clear();
      oracle.match(alert, matched);
      for (const auto id : matched) {
        auto& list = staged[id - 1];
        const auto folded =
            std::find_if(list.begin(), list.end(), [&](const Expected& x) {
              return same_bucket(*x.alert, alert);
            });
        if (folded != list.end()) ++folded->coalesced;
        else list.push_back({&alert, 0});
      }
    }
  }
  return s;
}

bool same_notification(const subscribe::Notification& n, std::uint64_t seq,
                       const Expected& x) {
  const core::Alert& a = n.alert;
  const core::Alert& b = *x.alert;
  return n.seq == seq && n.coalesced == x.coalesced && a.kind == b.kind &&
         a.day == b.day && a.value == b.value && a.baseline == b.baseline &&
         a.has_event == b.has_event && a.asn == b.asn &&
         a.country == b.country && a.event.source == b.event.source &&
         a.event.target == b.event.target && a.event.start == b.event.start &&
         a.event.end == b.event.end && a.event.packets == b.event.packets;
}

/// Long-polls /watch on one subscription until stopped, recording the lag
/// from the start of the tick that produced each delivery.
class Poller {
 public:
  Poller(std::uint16_t port, subscribe::SubscriptionId id,
         const std::atomic<std::int64_t>& tick_start_ns)
      : port_(port), id_(id), tick_start_ns_(tick_start_ns),
        thread_([this] { loop(); }) {}
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void stop() {
    stopping_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void set_recording(bool on) {
    const std::lock_guard<std::mutex> lock(mutex_);
    recording_ = on;
  }
  std::vector<double> lags_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lags_ms_;
  }
  bool failed() const { return failed_.load(); }

 private:
  void loop() {
    try {
      HttpClient client(port_, /*spin=*/false);
      std::uint64_t cursor = 0;
      while (!stopping_.load()) {
        const HttpReply reply =
            client.get("/watch?id=" + std::to_string(id_) +
                       "&cursor=" + std::to_string(cursor) +
                       "&max=64&wait_ms=200");
        const auto received = Clock::now();
        const std::size_t at = reply.body.find("\"next_cursor\":");
        if (reply.status != 200 || at == std::string::npos) {
          failed_.store(true);
          return;
        }
        std::uint64_t next = cursor;
        const char* begin = reply.body.data() + at + 14;
        std::from_chars(begin, reply.body.data() + reply.body.size(), next);
        if (next != cursor) {
          const double lag =
              std::chrono::duration<double, std::milli>(
                  received - kProcessStart)
                  .count() -
              static_cast<double>(tick_start_ns_.load()) / 1e6;
          const std::lock_guard<std::mutex> lock(mutex_);
          if (recording_) lags_ms_.push_back(lag);
        }
        cursor = next;
      }
    } catch (...) {
      failed_.store(true);
    }
  }

  std::uint16_t port_;
  subscribe::SubscriptionId id_;
  const std::atomic<std::int64_t>& tick_start_ns_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex mutex_;
  bool recording_ = false;
  std::vector<double> lags_ms_;
  std::thread thread_;  // last: starts after every member it uses
};

struct Section {
  std::vector<double> op_ms;
  std::vector<double> fetch_us;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t failed = 0;
};

class Runner {
 public:
  Runner(const Stream& s, subscribe::Dispatcher& dispatcher,
         std::vector<subscribe::SubscriptionId> sample_ids,
         std::atomic<std::int64_t>& tick_start_ns)
      : s_(s),
        dispatcher_(dispatcher),
        sample_ids_(std::move(sample_ids)),
        cursors_(sample_ids_.size(), 0),
        next_seq_(sample_ids_.size(), 1),
        tick_start_ns_(tick_start_ns),
        sink_(dispatcher, log_) {}

  /// Streams `passes` passes; ops are numbered from 0 within the call.
  Section run(int passes, SpanLog& log) {
    log_ = &log;
    Section out;
    double check_s = 0.0;
    double check_cpu_ms = 0.0;
    const double cpu0 = cpu_ms();
    const auto t0 = Clock::now();
    const query::BuildContext ctx{s_.world->population.pfx2as(),
                                  s_.world->population.geo()};
    for (int p = 0; p < passes; ++p) {
      // The previous pass's snapshot was just freed; the allocator folds
      // those chunks on its next large request. Make that request here,
      // between ops, so the stream restart stays out of day 0's latency.
      ::operator delete(::operator new(64 * 1024));
      query::QueryEngine engine;
      query::SnapshotPublisher publisher(engine, s_.window, ctx);
      core::StreamingFusion fusion(s_.window, {},
                                   [](const core::DaySummary&) {}, &sink_);
      for (std::size_t d = 0; d < s_.days.size(); ++d) {
        log.set_op(static_cast<std::uint32_t>(out.op_ms.size()));
        const auto op0 = Clock::now();
        {
          ScopedSpan op(log, "op");
          for (std::size_t i = s_.days[d].first; i < s_.days[d].second; ++i) {
            const auto& e = s_.events[i];
            {
              ScopedSpan span(log, "core.fusion");
              fusion.ingest(e);
            }
            {
              ScopedSpan span(log, "query.publish");
              publisher.ingest(e);
            }
            ScopedSpan span(log, "subscribe.dispatch");
            dispatcher_.ingest(e);
          }
          if (d + 1 == s_.days.size()) {
            {
              ScopedSpan span(log, "core.fusion");
              fusion.finish();
            }
            ScopedSpan span(log, "query.publish");
            publisher.finish();
          }
          tick_start_ns_.store(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - kProcessStart)
                  .count());
          ScopedSpan span(log, "subscribe.tick");
          dispatcher_.tick();
        }
        out.op_ms.push_back(ms_between(op0, Clock::now()));
        log.set_op(kNoOp);
        // The output check is the benchmark's own work: its time is taken
        // out of the section's wall and CPU time.
        const auto check0 = Clock::now();
        const double check_cpu0 = thread_cpu_ms();
        if (!check_day(d, out.fetch_us)) ++out.failed;
        check_s += seconds_since(check0);
        check_cpu_ms += thread_cpu_ms() - check_cpu0;
      }
    }
    out.wall_s = seconds_since(t0) - check_s;
    out.cpu_ms = cpu_ms() - cpu0 - check_cpu_ms;
    return out;
  }

 private:
  /// Fetches what the day's tick delivered to each sampled subscription
  /// and compares it with the oracle.
  bool check_day(std::size_t d, std::vector<double>& fetch_us) {
    bool ok = true;
    for (std::size_t k = 0; k < sample_ids_.size(); ++k) {
      const auto t0 = Clock::now();
      const auto got = dispatcher_.fetch(sample_ids_[k], cursors_[k], 0);
      fetch_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      const auto& want = s_.expected[d][k];
      // A queue keeps only its newest max_pending notifications.
      const std::size_t kept =
          std::min(want.size(), subscribe::DispatcherConfig{}.max_pending);
      const std::uint64_t first_seq = next_seq_[k] + (want.size() - kept);
      next_seq_[k] += want.size();
      if (!got || got->notifications.size() != kept) {
        ok = false;
        continue;
      }
      for (std::size_t i = 0; i < kept; ++i)
        if (!same_notification(got->notifications[i], first_seq + i,
                               want[want.size() - kept + i]))
          ok = false;
      cursors_[k] = got->next_cursor;
    }
    return ok;
  }

  const Stream& s_;
  subscribe::Dispatcher& dispatcher_;
  std::vector<subscribe::SubscriptionId> sample_ids_;
  std::vector<std::uint64_t> cursors_;
  std::vector<std::uint64_t> next_seq_;
  std::atomic<std::int64_t>& tick_start_ns_;
  SpanLog* log_ = nullptr;
  TracedSink sink_;
};

}  // namespace

Result run_live(const Options& options) {
  Sizes sizes;
  sim::ScenarioConfig scenario;
  if (options.smoke) {
    scenario = sim::ScenarioConfig::small();
    sizes.slash32 = 200;
    sizes.slash24 = 50;
    sizes.asns = 10;
    sizes.countries = 5;
    sizes.min_warmup_passes = 2;
    sizes.max_warmup_passes = 2;
  }
  scenario.seed = options.seed;
  int passes = 2;
  if (!options.smoke)
    passes = std::max(2, 2 * static_cast<int>(std::ceil(
                             sizes.passes_per_second * options.seconds / 2.0)));

  Result result;
  const Stream s = make_stream(sizes, scenario);
  subscribe::DispatcherConfig config;
  config.pfx2as = &s.world->population.pfx2as();
  config.geo = &s.world->population.geo();
  config.window = s.window;
  subscribe::Dispatcher dispatcher(config);
  std::vector<subscribe::SubscriptionId> ids;
  for (const auto& predicate : s.predicates)
    ids.push_back(dispatcher.subscribe(predicate));
  std::vector<subscribe::SubscriptionId> sample_ids;
  for (const std::size_t k : s.sample) sample_ids.push_back(ids[k]);

  // /watch runs on its own server; no /query traffic reaches the engine.
  query::QueryEngine idle_engine;
  serve::ServerConfig server_config;
  server_config.workers = 2;
  serve::Server server(server_config, idle_engine, &dispatcher);
  std::atomic<std::int64_t> tick_start_ns{0};
  std::vector<std::unique_ptr<Poller>> pollers;
  for (const std::size_t k : s.busiest)
    pollers.push_back(
        std::make_unique<Poller>(server.port(), ids[k], tick_start_ns));

  Runner runner(s, dispatcher, sample_ids, tick_start_ns);
  SpanLog untraced(false);
  std::vector<double> pass_p50;
  for (int p = 0; p < sizes.max_warmup_passes; ++p) {
    const Section warm = runner.run(1, untraced);
    if (warm.failed != 0) result.checks_passed = false;
    pass_p50.push_back(median(warm.op_ms));
    const std::size_t n = pass_p50.size();
    if (static_cast<int>(n) >= sizes.min_warmup_passes &&
        std::abs(pass_p50[n - 1] / pass_p50[n - 2] - 1.0) <
            sizes.steady_tolerance)
      break;
  }
  const double setup_s = end_setup();

  const std::uint64_t matches0 = registry_counter("subscribe.matches");
  const std::uint64_t alerts0 = registry_counter("subscribe.alerts_dispatched");
  const std::uint64_t dropped0 = registry_counter("subscribe.dropped");
  for (auto& poller : pollers) poller->set_recording(true);
  const Section timed = runner.run(passes, untraced);
  for (auto& poller : pollers) poller->set_recording(false);
  const double matches =
      static_cast<double>(registry_counter("subscribe.matches") - matches0);
  const double alerts = static_cast<double>(
      registry_counter("subscribe.alerts_dispatched") - alerts0);
  const double dropped =
      static_cast<double>(registry_counter("subscribe.dropped") - dropped0);

  result.attempted = timed.op_ms.size();
  result.failed = timed.failed;
  finish_end_to_end(result, timed.op_ms, timed.wall_s, setup_s);
  result.add_record("days", s.days.size());
  result.add_record("events", s.events.size());
  result.add_record("subscriptions", s.predicates.size());
  result.add_record("heavy_subscriptions",
                    s.predicates.size() - static_cast<std::size_t>(
                                              sizes.slash32 + sizes.slash24));
  result.add_record("sampled_subscriptions", s.sample.size());
  result.add_record("watch_pollers", pollers.size());
  result.add_record("warmup_passes", pass_p50.size());
  std::string pass_list;
  for (const double ms : pass_p50)
    pass_list += (pass_list.empty() ? "" : " ") + std::to_string(ms);
  result.add_record("warmup_pass_p50_ms", pass_list);
  result.add_record("timed_passes", static_cast<std::uint64_t>(passes));

  if (options.trace) {
    SpanLog log(true);
    const Section traced = runner.run(passes / 2, log);
    result.attempted += traced.op_ms.size();
    result.failed += traced.failed;
    const TraceSummary summary = summarize({&log}, traced.op_ms.size());
    std::vector<double> lags;
    for (const auto& poller : pollers) {
      const auto l = poller->lags_ms();
      lags.insert(lags.end(), l.begin(), l.end());
    }
    result.layer("subscribe.tick_ms",
                 median_per_op_ms(summary, "subscribe.tick"), "ms");
    result.layer("subscribe.dispatch_ms",
                 median_per_op_ms(summary, "subscribe.dispatch"), "ms");
    result.layer("subscribe.matches_per_alert",
                 alerts > 0.0 ? matches / alerts : 0.0, "ratio");
    result.layer("subscribe.dropped_per_op",
                 dropped / static_cast<double>(timed.op_ms.size()), "count");
    result.layer("core.fusion_ms", median_per_op_ms(summary, "core.fusion"),
                 "ms");
    result.layer("query.publish_ms",
                 median_per_op_ms(summary, "query.publish"), "ms");
    result.layer("subscribe.fetch_us", median(timed.fetch_us), "us");
    result.layer("serve.watch_lag_p50_ms", percentile(lags, 0.50), "ms");
    result.layer("serve.watch_lag_p99_ms", percentile(lags, 0.99), "ms");
    result.layer("process.cpu_ms_per_op",
                 timed.cpu_ms / static_cast<double>(timed.op_ms.size()), "ms");
    add_trace_metrics(result, summary, timed.op_ms, traced.op_ms);
    write_spans(options, {&log});
  }
  for (auto& poller : pollers) {
    poller->stop();
    if (poller->failed()) result.checks_passed = false;
  }
  server.stop();
  return result;
}

}  // namespace perfbench
