// Subscription-layer bench: a million synthetic watchers on the posting
// index (src/subscribe) vs the scan-all baseline the index replaces, then
// the bounded per-subscription queues at their bound vs the vector queue
// the ring replaced.
//
// The subscription mix mirrors what a live deployment of the paper's §9
// near-realtime loop would carry: mostly exact-victim (/32) watchers, a
// large /24 netblock tier, ASN and country watchers, a protocol tier, and
// a deliberately tiny unindexable tail (firehose + short prefixes) that
// lands on the scan list.
//
// Before any timing runs, an identity check replays a shared alert stream
// through SubscriptionIndex::match and the ScanOracle at the FULL
// subscription count and requires identical match sets in identical order
// — a timing number can never come from an index that dispatches wrong.
//
// The queue phase holds 300 broad (ASN and country) watchers at the
// default max_pending and times Dispatcher::tick plus one fetch per
// watcher from its last cursor, per tick of a fixed alert stream — the
// work perfbench's `live` reports as subscribe.tick_ms and
// subscribe.fetch_us. The same stream runs through the reference vector
// queue of vector_queue.h (front erase on flush, linear cursor scan); every
// fetch must agree with it on seqs, coalesced counts, alerts, dropped and
// pending.
//
// Emits BENCH_subscribe.json and fails when the default-size run speeds up
// dispatch by less than 10x over scan-all, or tick + fetch by less than 5x
// over the vector queue.
//
//   $ ./bench_subscribe [--smoke] [--out FILE]
//     --smoke   20k subscriptions + short stream, 30 queue-phase watchers
//               (CI wiring check; the gates only apply to the default size)
//     --out F   baseline path (default BENCH_subscribe.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/alert.h"
#include "subscribe/dispatcher.h"
#include "subscribe/index.h"
#include "subscribe/oracle.h"
#include "vector_queue.h"

namespace {

using namespace dosm;
using clock_type = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution

/// The watcher mix, as fractions of the total (remainder goes to /32).
struct Mix {
  std::size_t slash24 = 0;
  std::size_t asn = 0;
  std::size_t country = 0;
  std::size_t proto = 0;
  std::size_t scan = 0;  // firehose + /8 — the unindexable tail
};

Mix mix_for(std::size_t total) {
  Mix mix;
  mix.slash24 = total / 4;            // 25% netblock watchers
  mix.asn = (total * 15) / 100;       // 15% ASN watchers
  mix.country = total / 10;           // 10% country watchers
  mix.proto = total / 100;            // 1% protocol watchers (2 hot values —
                                      // any bigger tier and every alert
                                      // would fan out to a fixed fraction
                                      // of ALL watchers, which no posting
                                      // scheme can make sublinear)
  mix.scan = total / 1000;            // 0.1% scan-list tail (small by design)
  return mix;
}

meta::CountryCode random_country(Rng& rng) {
  const char code[2] = {static_cast<char>('A' + rng.next_below(26)),
                        static_cast<char>('A' + rng.next_below(26))};
  return meta::CountryCode(std::string_view(code, 2));
}

/// Victim space: 2^20 addresses under 10.0.0.0/12, so /32 watchers are
/// sparse hits and /24 watchers cluster (4096 distinct /24s).
constexpr std::uint32_t kVictimBase = 0x0a000000u;
constexpr std::uint32_t kVictimSpace = 1u << 20;

subscribe::Predicate random_subscription(Rng& rng, std::size_t i,
                                         const Mix& mix) {
  subscribe::Predicate p;
  if (i < mix.slash24) {
    p.match_prefix(net::Prefix(
        net::Ipv4Addr{kVictimBase + (static_cast<std::uint32_t>(
                                         rng.next_below(kVictimSpace >> 8))
                                     << 8)},
        24));
  } else if (i < mix.slash24 + mix.asn) {
    p.match_asn(
        static_cast<meta::Asn>(64512 + rng.next_below(16384)));
  } else if (i < mix.slash24 + mix.asn + mix.country) {
    p.match_country(random_country(rng));
  } else if (i < mix.slash24 + mix.asn + mix.country + mix.proto) {
    p.match_proto(rng.bernoulli(0.5) ? 6 : 17);
    if (rng.bernoulli(0.5)) p.match_kind(core::AlertKind::kNewAttack);
  } else if (i < mix.slash24 + mix.asn + mix.country + mix.proto + mix.scan) {
    if (rng.bernoulli(0.5))
      p.match_prefix(net::Prefix(net::Ipv4Addr{kVictimBase}, 8));
    // else firehose
  } else {
    p.match_prefix(net::Prefix(
        net::Ipv4Addr{kVictimBase +
                      static_cast<std::uint32_t>(rng.next_below(kVictimSpace))},
        32));
  }
  return p;
}

core::Alert random_alert(Rng& rng) {
  if (rng.bernoulli(0.1)) {
    return core::spike_alert(rng.bernoulli(0.5)
                                 ? core::AlertKind::kAttackSpike
                                 : core::AlertKind::kTargetSpike,
                             static_cast<int>(rng.next_below(731)),
                             rng.uniform(100.0, 5000.0), 80.0);
  }
  core::AttackEvent event;
  event.target = net::Ipv4Addr{
      kVictimBase + static_cast<std::uint32_t>(rng.next_below(kVictimSpace))};
  event.start = rng.uniform(0.0, 1e6);
  event.end = event.start + rng.uniform(60.0, 3600.0);
  event.intensity = rng.uniform(1.0, 1000.0);
  event.ip_proto = rng.bernoulli(0.5) ? 6 : 17;
  event.top_port = rng.bernoulli(0.5) ? 80 : 53;
  return core::event_alert(
      event, static_cast<int>(rng.next_below(731)),
      static_cast<meta::Asn>(64512 + rng.next_below(16384)),
      random_country(rng));
}

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// --- Queue phase -------------------------------------------------------

struct QueuePhase {
  std::size_t watchers = 0;
  std::size_t bound = 0;
  std::size_t warmup_ticks = 0;
  std::size_t timed_ticks = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double ring_tick_ms = 0.0;     // per tick
  double ring_fetch_us = 0.0;    // per fetch
  double vector_tick_ms = 0.0;
  double vector_fetch_us = 0.0;
  double speedup = 0.0;          // vector / ring, tick + fetch per tick
  bool identical = true;
};

/// Watchers 0..asns-1 follow one ASN each, the rest one country each; every
/// alert names one of those ASNs and countries, so it matches exactly two
/// watchers, and each watcher sees alerts_per_tick / its tier size per
/// tick. Warm-up ticks run until every watcher's queue is at the bound.
QueuePhase run_queue_phase(bool smoke) {
  const std::size_t asns = smoke ? 24 : 240;
  const std::size_t countries = smoke ? 6 : 60;
  const std::size_t alerts_per_tick = 1500;
  // A paged /watch: ticks heavier than a page leave notifications pending.
  const std::size_t fetch_max = 32;
  constexpr meta::Asn kAsnBase = 64512;

  QueuePhase phase;
  phase.watchers = asns + countries;
  phase.bound = subscribe::DispatcherConfig{}.max_pending;
  phase.timed_ticks = smoke ? 20 : 200;

  const auto country_code = [](std::size_t j) {
    const char code[2] = {static_cast<char>('A' + j / 26),
                          static_cast<char>('A' + j % 26)};
    return meta::CountryCode(std::string_view(code, 2));
  };
  subscribe::Dispatcher dispatcher;
  std::vector<subscribe::SubscriptionId> ids;
  for (std::size_t i = 0; i < asns; ++i)
    ids.push_back(dispatcher.subscribe(subscribe::Predicate{}.match_asn(
        static_cast<meta::Asn>(kAsnBase + i))));
  for (std::size_t j = 0; j < countries; ++j)
    ids.push_back(dispatcher.subscribe(
        subscribe::Predicate{}.match_country(country_code(j))));
  std::vector<bench::VectorQueue> reference(phase.watchers);

  Rng rng(0x9e7eu);
  std::vector<core::Alert> batch;
  std::vector<std::pair<std::size_t, std::size_t>> targets;  // (asn, country)
  std::vector<std::uint64_t> cursors(phase.watchers, 0);
  std::vector<subscribe::FetchResult> via_ring(phase.watchers);
  std::vector<subscribe::FetchResult> via_vector(phase.watchers);
  double ring_tick_s = 0.0, ring_fetch_s = 0.0;
  double vector_tick_s = 0.0, vector_fetch_s = 0.0;
  std::size_t timed_done = 0;
  for (std::size_t t = 0; timed_done < phase.timed_ticks; ++t) {
    const bool timed = phase.warmup_ticks != 0;
    batch.clear();
    targets.clear();
    for (std::size_t i = 0; i < alerts_per_tick; ++i) {
      if (!batch.empty() && rng.bernoulli(0.05)) {
        // A repeat victim within the tick: it coalesces.
        const std::size_t k = rng.next_below(batch.size());
        batch.push_back(batch[k]);
        targets.push_back(targets[k]);
        continue;
      }
      const std::size_t a = rng.next_below(asns);
      const std::size_t c = rng.next_below(countries);
      core::AttackEvent event;
      const auto victim =
          static_cast<std::uint32_t>(rng.next_below(kVictimSpace));
      event.target = net::Ipv4Addr{kVictimBase + victim};
      event.start = static_cast<double>(t * alerts_per_tick + i);
      event.end = event.start + 600.0;
      event.intensity = 10.0;
      batch.push_back(core::event_alert(event, static_cast<int>(t % 731),
                                        static_cast<meta::Asn>(kAsnBase + a),
                                        country_code(c)));
      targets.emplace_back(a, c);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      dispatcher.on_alert(batch[i]);
      reference[targets[i].first].stage(batch[i]);
      reference[asns + targets[i].second].stage(batch[i]);
    }

    auto t0 = clock_type::now();
    dispatcher.tick();
    auto t1 = clock_type::now();
    for (std::size_t w = 0; w < phase.watchers; ++w)
      via_ring[w] = *dispatcher.fetch(ids[w], cursors[w], fetch_max);
    auto t2 = clock_type::now();
    if (timed) {
      ring_tick_s += std::chrono::duration<double>(t1 - t0).count();
      ring_fetch_s += std::chrono::duration<double>(t2 - t1).count();
    }

    t0 = clock_type::now();
    for (bench::VectorQueue& queue : reference) queue.flush(phase.bound);
    t1 = clock_type::now();
    for (std::size_t w = 0; w < phase.watchers; ++w)
      via_vector[w] = reference[w].fetch(cursors[w], fetch_max);
    t2 = clock_type::now();
    if (timed) {
      vector_tick_s += std::chrono::duration<double>(t1 - t0).count();
      vector_fetch_s += std::chrono::duration<double>(t2 - t1).count();
    }

    for (std::size_t w = 0; w < phase.watchers; ++w) {
      if (!bench::fetch_difference(via_ring[w], via_vector[w]).empty())
        phase.identical = false;
      cursors[w] = via_ring[w].next_cursor;
      if (timed) phase.delivered += via_ring[w].notifications.size();
    }
    if (!phase.identical) return phase;
    if (timed)
      ++timed_done;
    else if (std::all_of(reference.begin(), reference.end(),
                         [&](const bench::VectorQueue& queue) {
                           return queue.queue.size() == phase.bound;
                         }))
      phase.warmup_ticks = t + 1;
  }
  for (std::size_t w = 0; w < phase.watchers; ++w)
    phase.dropped += via_ring[w].dropped;

  const auto ticks = static_cast<double>(phase.timed_ticks);
  const auto fetches = ticks * static_cast<double>(phase.watchers);
  phase.ring_tick_ms = ring_tick_s * 1e3 / ticks;
  phase.ring_fetch_us = ring_fetch_s * 1e6 / fetches;
  phase.vector_tick_ms = vector_tick_s * 1e3 / ticks;
  phase.vector_fetch_us = vector_fetch_s * 1e6 / fetches;
  const double ring_s = ring_tick_s + ring_fetch_s;
  phase.speedup =
      ring_s > 0.0 ? (vector_tick_s + vector_fetch_s) / ring_s : 0.0;
  return phase;
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_subscribe.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_subscribe [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  const std::size_t total = smoke ? 20'000 : 1'000'000;
  const std::size_t identity_alerts = smoke ? 40 : 100;
  const std::size_t index_alerts = smoke ? 400 : 2'000;
  const std::size_t scan_alerts = smoke ? 20 : 50;
  const std::size_t dispatch_alerts = smoke ? 50 : 200;

  bench::print_header(
      "Subscription dispatch: posting index vs scan-all at " +
          std::to_string(total) + " watchers",
      "push-based watch layer for the §9 near-realtime loop; no paper "
      "table — baseline for BENCH_subscribe.json");

  Rng rng(20170301);
  const Mix mix = mix_for(total);
  std::vector<subscribe::Predicate> predicates;
  predicates.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    predicates.push_back(random_subscription(rng, i, mix));

  subscribe::SubscriptionIndex index;
  subscribe::ScanOracle oracle;
  for (std::size_t i = 0; i < total; ++i) {
    const auto id = static_cast<subscribe::SubscriptionId>(i + 1);
    index.insert(id, predicates[i]);
    oracle.insert(id, predicates[i]);
  }
  std::cerr << "[bench] indexed " << index.size() << " subscriptions ("
            << index.scan_list_size() << " on the scan list)\n";
  const auto lookup =
      [&predicates](subscribe::SubscriptionId id) -> const subscribe::Predicate& {
    return predicates[id - 1];
  };

  // One alert stream drives the identity check and both timed paths, so
  // the two sides always see the same work.
  Rng alert_rng(0xa1e47u);
  std::vector<core::Alert> stream;
  stream.reserve(index_alerts);
  for (std::size_t i = 0; i < index_alerts; ++i)
    stream.push_back(random_alert(alert_rng));

  // --- Identity check (must pass before any timing) --------------------
  {
    std::vector<subscribe::SubscriptionId> via_index;
    std::vector<subscribe::SubscriptionId> via_oracle;
    for (std::size_t i = 0; i < identity_alerts; ++i) {
      via_index.clear();
      via_oracle.clear();
      index.match(stream[i], lookup, via_index);
      oracle.match(stream[i], via_oracle);
      if (via_index != via_oracle) {
        std::cerr << "bench_subscribe: identity check FAILED on alert " << i
                  << " (index " << via_index.size() << " matches, oracle "
                  << via_oracle.size() << ")\n";
        return 1;
      }
    }
    std::cout << "identity check: " << identity_alerts
              << " alerts match identically through index and scan oracle\n";
  }

  // --- Timed match: posting index --------------------------------------
  std::vector<subscribe::SubscriptionId> out;
  std::uint64_t index_matches = 0;
  const auto t_index = clock_type::now();
  for (const core::Alert& alert : stream) {
    out.clear();
    index.match(alert, lookup, out);
    index_matches += out.size();
  }
  const double index_s = seconds_since(t_index);
  const double index_us =
      index_s * 1e6 / static_cast<double>(stream.size());

  // --- Timed match: scan-all baseline (fewer alerts; it is the slow side)
  std::uint64_t scan_matches = 0;
  const auto t_scan = clock_type::now();
  for (std::size_t i = 0; i < scan_alerts; ++i) {
    out.clear();
    oracle.match(stream[i], out);
    scan_matches += out.size();
  }
  const double scan_s = seconds_since(t_scan);
  const double scan_us = scan_s * 1e6 / static_cast<double>(scan_alerts);
  const double speedup = index_us > 0.0 ? scan_us / index_us : 0.0;

  // --- End-to-end dispatch through the Dispatcher ----------------------
  // The full path: match + coalescing stage + bounded-queue tick, at the
  // same watcher count. max_pending is small so the drop policy runs too.
  subscribe::DispatcherConfig dispatcher_config;
  dispatcher_config.max_pending = 16;
  subscribe::Dispatcher dispatcher(dispatcher_config);
  for (const auto& predicate : predicates) dispatcher.subscribe(predicate);
  const auto t_dispatch = clock_type::now();
  for (std::size_t i = 0; i < dispatch_alerts; ++i) {
    dispatcher.on_alert(stream[i]);
    if (i % 16 == 15) dispatcher.tick();
  }
  dispatcher.tick();
  const double dispatch_s = seconds_since(t_dispatch);
  const double alerts_per_s =
      static_cast<double>(dispatch_alerts) / dispatch_s;

  // --- Bounded queues at their bound: tick + fetch, ring vs vector ------
  const QueuePhase queues = run_queue_phase(smoke);
  if (!queues.identical) {
    std::cerr << "bench_subscribe: queue identity check FAILED (the ring "
                 "and the vector queue fetched different results)\n";
    return 1;
  }
  std::cout << "queue identity check: " << queues.watchers << " watchers x "
            << queues.warmup_ticks + queues.timed_ticks
            << " ticks fetch identically through the ring and the vector "
               "queue\n";

  TextTable table({"metric", "value"});
  table.add_row({"subscriptions", std::to_string(total)});
  table.add_row({"scan_list", std::to_string(index.scan_list_size())});
  table.add_row({"index_us_per_alert", fixed(index_us, 2)});
  table.add_row({"scan_us_per_alert", fixed(scan_us, 2)});
  table.add_row({"speedup", fixed(speedup, 1) + "x"});
  table.add_row({"matches_per_alert",
                 fixed(static_cast<double>(index_matches) /
                           static_cast<double>(stream.size()),
                       1)});
  table.add_row({"dispatch_alerts_per_s", fixed(alerts_per_s, 0)});
  table.add_row({"queue_watchers_at_bound",
                 std::to_string(queues.watchers) + " x " +
                     std::to_string(queues.bound)});
  table.add_row({"ring_tick_ms (perfbench subscribe.tick_ms)",
                 fixed(queues.ring_tick_ms, 3)});
  table.add_row({"ring_fetch_us (perfbench subscribe.fetch_us)",
                 fixed(queues.ring_fetch_us, 2)});
  table.add_row({"vector_tick_ms", fixed(queues.vector_tick_ms, 3)});
  table.add_row({"vector_fetch_us", fixed(queues.vector_fetch_us, 2)});
  table.add_row({"queue_speedup", fixed(queues.speedup, 1) + "x"});
  std::cout << table;

  JsonWriter json;
  json.begin_object()
      .key("bench").value("subscribe")
      .key("smoke").value(smoke)
      .key("subscriptions").value(static_cast<std::uint64_t>(total))
      .key("scan_list")
      .value(static_cast<std::uint64_t>(index.scan_list_size()))
      .key("identity_check").value(true)
      .key("identity_alerts").value(static_cast<std::uint64_t>(identity_alerts))
      .key("index_alerts").value(static_cast<std::uint64_t>(stream.size()))
      .key("scan_alerts").value(static_cast<std::uint64_t>(scan_alerts))
      .key("index_matches").value(index_matches)
      .key("scan_matches").value(scan_matches)
      .key("index_us_per_alert").value(index_us)
      .key("scan_us_per_alert").value(scan_us)
      .key("speedup").value(speedup)
      .key("dispatch_alerts").value(static_cast<std::uint64_t>(dispatch_alerts))
      .key("dispatch_alerts_per_s").value(alerts_per_s)
      .key("dispatched_total").value(dispatcher.alerts_dispatched())
      .key("queue_identity_check").value(true)
      .key("queue_watchers").value(static_cast<std::uint64_t>(queues.watchers))
      .key("queue_bound").value(static_cast<std::uint64_t>(queues.bound))
      .key("queue_warmup_ticks")
      .value(static_cast<std::uint64_t>(queues.warmup_ticks))
      .key("queue_timed_ticks")
      .value(static_cast<std::uint64_t>(queues.timed_ticks))
      .key("queue_delivered").value(queues.delivered)
      .key("queue_dropped").value(queues.dropped)
      .key("ring_tick_ms").value(queues.ring_tick_ms)
      .key("ring_fetch_us").value(queues.ring_fetch_us)
      .key("vector_tick_ms").value(queues.vector_tick_ms)
      .key("vector_fetch_us").value(queues.vector_fetch_us)
      .key("queue_speedup").value(queues.speedup)
      .end_object();
  bench::write_json(out_path, json);

  int status = 0;
  if (!smoke && speedup < 10.0) {
    std::cerr << "bench_subscribe: " << fixed(speedup, 1)
              << "x is below the 10x index-vs-scan-all baseline\n";
    status = 1;
  }
  if (!smoke && queues.speedup < 5.0) {
    std::cerr << "bench_subscribe: tick + fetch is " << fixed(queues.speedup, 1)
              << "x the vector queue, below the 5x baseline\n";
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_subscribe: " << e.what() << "\n";
  return 1;
}
