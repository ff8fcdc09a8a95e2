// The query server, bottom to top: HTTP parsing (including the hostile
// byte-flip/truncation property in serialize_fuzz_test style — runs under
// ASan in CI), the byte-bounded LRU result cache, the URL→Query API
// mapping, and the live server over loopback TCP — keep-alive, budgets
// (422), admission control (429), snapshot-swap cache invalidation, the
// 1-vs-8-worker byte-determinism contract, and a multi-client stress run
// against a concurrently publishing SnapshotPublisher (the TSan CI job
// runs this file).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "serve/api.h"
#include "serve/cache.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/subscribe_api.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/metrics.h"
#include "storage/tiered.h"
#include "subscribe/dispatcher.h"

namespace dosm::serve {
namespace {

// ---------------------------------------------------------------------------
// HTTP parsing.
// ---------------------------------------------------------------------------

ParseResult parse(std::string_view data) {
  return parse_request(data, HttpLimits{});
}

TEST(HttpParseTest, SimpleGetWithParams) {
  const auto result =
      parse("GET /query?agg=summary&k=5 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(result.status, ParseStatus::kOk);
  EXPECT_EQ(result.request.method, "GET");
  EXPECT_EQ(result.request.path, "/query");
  ASSERT_EQ(result.request.params.size(), 2u);
  EXPECT_EQ(result.request.params[0].first, "agg");
  EXPECT_EQ(result.request.params[0].second, "summary");
  EXPECT_EQ(*result.request.param("k"), "5");
  EXPECT_TRUE(result.request.keep_alive);
  EXPECT_EQ(result.consumed, 48u);  // the full request, nothing beyond
}

TEST(HttpParseTest, PercentAndFormDecoding) {
  const auto result = parse("GET /qu%65ry?name=a+b%21 HTTP/1.1\r\n\r\n");
  ASSERT_EQ(result.status, ParseStatus::kOk);
  EXPECT_EQ(result.request.path, "/query");
  EXPECT_EQ(*result.request.param("name"), "a b!");  // '+' only in params
}

TEST(HttpParseTest, ConnectionHeaderOverridesVersionDefault) {
  EXPECT_FALSE(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                   .request.keep_alive);
  EXPECT_FALSE(parse("GET / HTTP/1.0\r\n\r\n").request.keep_alive);
  EXPECT_TRUE(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                  .request.keep_alive);
}

TEST(HttpParseTest, HeaderNamesAreCaseFolded) {
  const auto result = parse("GET / HTTP/1.1\r\nX-ToKeN: abc\r\n\r\n");
  ASSERT_EQ(result.status, ParseStatus::kOk);
  ASSERT_NE(result.request.header("x-token"), nullptr);
  EXPECT_EQ(*result.request.header("x-token"), "abc");
}

TEST(HttpParseTest, PostBodyAndPipelining) {
  const std::string two =
      "POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\nagg=abc"
      "GET /healthz HTTP/1.1\r\n\r\n";
  const auto first = parse(two);
  ASSERT_EQ(first.status, ParseStatus::kOk);
  EXPECT_EQ(first.request.body, "agg=abc");
  const auto second = parse(std::string_view(two).substr(first.consumed));
  ASSERT_EQ(second.status, ParseStatus::kOk);
  EXPECT_EQ(second.request.path, "/healthz");
}

TEST(HttpParseTest, IncrementalFeedNeedsMoreUntilComplete) {
  const std::string full =
      "POST /q HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  for (std::size_t n = 0; n < full.size(); ++n)
    EXPECT_EQ(parse(std::string_view(full).substr(0, n)).status,
              ParseStatus::kNeedMore)
        << "prefix length " << n;
  EXPECT_EQ(parse(full).status, ParseStatus::kOk);
}

TEST(HttpParseTest, MalformedRequestsRejected) {
  EXPECT_EQ(parse("GET /\r\n\r\n").status, ParseStatus::kBadRequest);
  EXPECT_EQ(parse("GET / HTTP/2.0\r\n\r\n").status, ParseStatus::kBadRequest);
  EXPECT_EQ(parse("GET nope HTTP/1.1\r\n\r\n").status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse("G{}T / HTTP/1.1\r\n\r\n").status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse("GET /%zz HTTP/1.1\r\n\r\n").status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n").status,
            ParseStatus::kBadRequest);
}

TEST(HttpParseTest, LimitsEnforcedBeforeAllocation) {
  // Hostile Content-Length: rejected from the header alone — the parser
  // must not wait for (or reserve) a body it will never accept.
  const auto huge =
      parse("POST /q HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n");
  EXPECT_EQ(huge.status, ParseStatus::kTooLarge);

  const auto line = parse("GET /" + std::string(8192, 'a') + " HTTP/1.1");
  EXPECT_EQ(line.status, ParseStatus::kTooLarge);

  std::string many = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 100; ++i) {
    many += 'h';
    many += std::to_string(i);
    many += ": v\r\n";
  }
  many += "\r\n";
  EXPECT_EQ(parse(many).status, ParseStatus::kTooLarge);

  // A head that never terminates cannot buffer forever.
  EXPECT_EQ(parse("GET / HTTP/1.1\r\n" + std::string(20000, 'a')).status,
            ParseStatus::kTooLarge);
}

// The serialize_fuzz_test property, ported to request parsing: for ANY
// single-byte flip or truncation of a valid request, parsing either
// succeeds or reports kBadRequest/kTooLarge/kNeedMore — it never crashes,
// never throws, and never over-allocates off hostile lengths (ASan in CI
// turns violations into failures).
void expect_parses_or_rejects(std::string_view data) {
  const ParseResult result = parse_request(data, HttpLimits{});
  if (result.status == ParseStatus::kOk) {
    ASSERT_LE(result.consumed, data.size());
    ASSERT_FALSE(result.request.method.empty());
  }
}

std::vector<std::string> valid_requests() {
  return {
      "GET /query?agg=summary&from=2015-01-01&to=2015-03-01 HTTP/1.1\r\n"
      "Host: dash.example\r\nAccept: application/json\r\n\r\n",
      "POST /query HTTP/1.1\r\nContent-Length: 23\r\n\r\n"
      "agg=top-targets&k=10%21",
      "GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
  };
}

TEST(HttpFuzzTest, SingleByteFlipsNeverCrash) {
  Rng rng(20260808);
  for (const std::string& base : valid_requests()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string corrupted = base;
      const auto pos = static_cast<std::size_t>(
          rng.next_below(corrupted.size()));
      corrupted[pos] = static_cast<char>(rng.next_below(256));
      expect_parses_or_rejects(corrupted);
    }
  }
}

TEST(HttpFuzzTest, EveryTruncationNeverCrashes) {
  for (const std::string& base : valid_requests())
    for (std::size_t n = 0; n <= base.size(); ++n)
      expect_parses_or_rejects(std::string_view(base).substr(0, n));
}

TEST(HttpFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    std::string garbage(rng.next_below(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next_below(256));
    expect_parses_or_rejects(garbage);
  }
}

// ---------------------------------------------------------------------------
// JSON writer.
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, CompactNestedOutputWithEscapes) {
  JsonWriter w;
  w.begin_object()
      .key("s")
      .value(std::string_view("a\"b\\c\n\x01"))
      .key("n")
      .value(std::uint64_t{7})
      .key("arr")
      .begin_array()
      .value(1.5)
      .value(true)
      .end_array()
      .end_object();
  EXPECT_EQ(std::move(w).take(),
            "{\"s\":\"a\\\"b\\\\c\\n\\u0001\",\"n\":7,\"arr\":[1.5,true]}");
}

TEST(JsonWriterTest, RefusesNonFiniteNumbers) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.value(bad), std::domain_error) << bad;
  }
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

std::shared_ptr<const CachedResponse> entry(std::uint64_t version,
                                            std::string body) {
  auto e = std::make_shared<CachedResponse>();
  e->status = 200;
  e->content_type = "application/json";
  e->body = std::move(body);
  e->snapshot_version = version;
  return e;
}

TEST(ResultCacheTest, MissThenHitThenLruEviction) {
  ResultCache cache(450);  // three ~146-byte entries fit, a fourth evicts
  EXPECT_EQ(cache.get("a"), nullptr);
  cache.put("a", entry(1, "A"));
  cache.put("b", entry(1, "B"));
  cache.put("c", entry(1, "C"));
  ASSERT_NE(cache.get("a"), nullptr);  // refresh "a": "b" is now oldest
  cache.put("d", entry(1, "D"));       // evicts "b"
  EXPECT_EQ(cache.get("b"), nullptr);
  ASSERT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("a")->body, "A");
  ASSERT_NE(cache.get("d"), nullptr);
}

TEST(ResultCacheTest, PutRefreshesExistingKeyAndAccounting) {
  ResultCache cache(1 << 16);
  cache.put("k", entry(1, "short"));
  cache.put("k", entry(1, std::string(1000, 'x')));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.get("k")->body.size(), 1000u);
}

TEST(ResultCacheTest, OversizedEntryNeverAdmitted) {
  ResultCache cache(256);
  cache.put("big", entry(1, std::string(10000, 'x')));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.get("big"), nullptr);
}

TEST(ResultCacheTest, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.put("k", entry(1, "v"));
  EXPECT_EQ(cache.get("k"), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, PurgeStaleDropsOldVersionsOnly) {
  ResultCache cache(1 << 16);
  cache.put("v1/a", entry(1, "old"));
  cache.put("v1/b", entry(1, "old"));
  cache.put("v2/a", entry(2, "new"));
  cache.purge_stale(2);
  EXPECT_EQ(cache.get("v1/a"), nullptr);
  EXPECT_EQ(cache.get("v1/b"), nullptr);
  ASSERT_NE(cache.get("v2/a"), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCacheTest, PurgeStaleUpdatesResidentGauges) {
  // Gauge-staleness audit note: purge_stale() was already correct — it sets
  // serve.cache.bytes/entries under the same lock as the eviction, as do
  // put() and the LRU eviction loop. This test pins that behavior.
  ResultCache cache(1 << 16);
  cache.put("v1/a", entry(1, "old"));
  cache.put("v1/b", entry(1, "old-too"));
  cache.put("v2/a", entry(2, "new"));
  Metrics& metrics = Metrics::get();
  cache.purge_stale(2);
  EXPECT_EQ(metrics.cache_entries.value(), 1);
  EXPECT_EQ(metrics.cache_bytes.value(),
            static_cast<std::int64_t>(cache.bytes()));
}

TEST(ResultCacheTest, DestructionReleasesResidentGauges) {
  // Regression: a destroyed cache (a stopped Server) used to leave the
  // process-global serve.cache.bytes/entries gauges frozen at its last
  // resident footprint — freed memory reported as resident forever.
  Metrics& metrics = Metrics::get();
  {
    ResultCache cache(1 << 16);
    cache.put("a", entry(1, "alpha"));
    cache.put("b", entry(1, "beta"));
    EXPECT_EQ(metrics.cache_entries.value(), 2);
    EXPECT_GT(metrics.cache_bytes.value(), 0);
  }
  EXPECT_EQ(metrics.cache_entries.value(), 0);
  EXPECT_EQ(metrics.cache_bytes.value(), 0);
}

// ---------------------------------------------------------------------------
// API mapping (no sockets).
// ---------------------------------------------------------------------------

HttpRequest request_for(const std::string& target,
                        const std::string& method = "GET") {
  const std::string raw = method + " " + target + " HTTP/1.1\r\n\r\n";
  const auto parsed = parse(raw);
  EXPECT_EQ(parsed.status, ParseStatus::kOk) << target;
  return parsed.request;
}

/// A route table configured the way the server configures its own (minus
/// /metrics, which the server registers itself).
Router api_router() {
  Router router;
  install_api_routes(router);
  install_subscribe_routes(router);
  return router;
}

TEST(RouterTest, RoutesEndpointsAndMethods) {
  const Router router = api_router();
  const RequestContext context;

  // Known (method, path) pairs resolve to a route.
  for (const auto& [method, target] :
       std::vector<std::pair<std::string, std::string>>{
           {"GET", "/"},
           {"GET", "/healthz"},
           {"GET", "/query"},
           {"POST", "/query"}}) {
    const auto prepared =
        router.prepare(request_for(target, method), context);
    EXPECT_NE(prepared.route, nullptr) << method << " " << target;
  }

  // Unknown paths are final 404s; known paths with wrong methods final 405s.
  EXPECT_EQ(router.prepare(request_for("/nope"), context).route, nullptr);
  EXPECT_EQ(router.prepare(request_for("/nope"), context).response.status,
            404);
  EXPECT_EQ(
      router.prepare(request_for("/query", "DELETE"), context).response.status,
      405);
  EXPECT_EQ(
      router.prepare(request_for("/healthz", "POST"), context).response.status,
      405);

  // Only the query routes are cacheable.
  EXPECT_TRUE(router.prepare(request_for("/query"), context).route->cacheable);
  EXPECT_TRUE(
      router.prepare(request_for("/query", "POST"), context).route->cacheable);
  EXPECT_FALSE(router.prepare(request_for("/"), context).route->cacheable);

  // Parse failures become final 400s without reaching exec.
  const auto bad = router.prepare(request_for("/query?bogus=1"), context);
  EXPECT_EQ(bad.route, nullptr);
  EXPECT_EQ(bad.response.status, 400);
}

TEST(RouterTest, SubscriptionEndpointsRegistered) {
  const Router router = api_router();
  const auto routes = router.routes();
  const auto has = [&routes](std::string_view method, std::string_view path) {
    for (const auto& [m, p] : routes)
      if (m == method && p == path) return true;
    return false;
  };
  EXPECT_TRUE(has("POST", "/subscribe"));
  EXPECT_TRUE(has("DELETE", "/subscribe"));
  EXPECT_TRUE(has("GET", "/watch"));
}

TEST(RouterTest, DuplicateRegistrationThrows) {
  Router router = api_router();
  const auto noop_parse = [](const HttpRequest&, const RequestContext&) {
    return ApiCall{};
  };
  const auto noop_exec = [](const ApiCall&, const RequestContext&) {
    return ApiResponse{};
  };
  EXPECT_THROW(router.add("GET", "/query", noop_parse, noop_exec),
               std::invalid_argument);
  router.add("PUT", "/query", noop_parse, noop_exec);  // new method is fine
}

// Regression: ?asn=1&asn=2 used to apply last-wins silently, so two
// DIFFERENT request strings canonicalized to the same cache-key string and
// aliased one cache entry. Duplicates (across URL and POST body combined)
// are now rejected outright.
TEST(ApiTest, RejectsDuplicateParameters) {
  const StudyWindow window;
  const auto dup = parse_query_request(request_for("/query?asn=1&asn=2"),
                                       window);
  EXPECT_EQ(dup.error, "duplicate parameter: asn");

  // Time keys are tracked too, not just the apply_param ones.
  EXPECT_EQ(parse_query_request(
                request_for("/query?from=2015-01-01&from=2015-01-02"), window)
                .error,
            "duplicate parameter: from");

  // A key in the URL and again in the POST body is the same aliasing hazard.
  const std::string raw =
      "POST /query?k=5 HTTP/1.1\r\nContent-Length: 3\r\n\r\nk=9";
  const auto parsed = parse(raw);
  ASSERT_EQ(parsed.status, ParseStatus::kOk);
  EXPECT_EQ(parse_query_request(parsed.request, window).error,
            "duplicate parameter: k");

  // The first occurrence alone stays valid.
  EXPECT_TRUE(
      parse_query_request(request_for("/query?asn=1"), window).error.empty());
}

TEST(ApiTest, MapsEveryFilterParameter) {
  const StudyWindow window;  // paper defaults; explicit from/to win anyway
  const auto call = parse_query_request(
      request_for("/query?from=2015-02-01&to=2015-02-07&source=telescope"
                  "&prefix=10.0.0.0/8&asn=65000&country=DE&port=80"
                  "&min_intensity=1.5&agg=top-targets&k=25&explain=1"),
      window);
  ASSERT_TRUE(call.error.empty()) << call.error;
  const query::Query& q = call.query;
  ASSERT_TRUE(q.time.has_value());
  EXPECT_EQ(q.time->begin,
            static_cast<double>(unix_from_civil({2015, 2, 1})));
  EXPECT_EQ(q.time->end, static_cast<double>(unix_from_civil({2015, 2, 7}) +
                                             kSecondsPerDay));
  EXPECT_EQ(q.source, core::SourceFilter::kTelescope);
  ASSERT_TRUE(q.prefix.has_value());
  EXPECT_EQ(q.prefix->to_string(), "10.0.0.0/8");
  EXPECT_EQ(q.asn, meta::Asn{65000});
  ASSERT_TRUE(q.country.has_value());
  EXPECT_EQ(q.country->to_string(), "DE");
  EXPECT_EQ(q.port, std::uint16_t{80});
  EXPECT_EQ(q.min_intensity, 1.5);
  EXPECT_EQ(call.agg, "top-targets");
  EXPECT_EQ(call.k, 25u);
  EXPECT_TRUE(call.explain);
  EXPECT_FALSE(call.canonical.empty());
}

TEST(ApiTest, RejectsMalformedParameters) {
  const StudyWindow window;
  for (const std::string target :
       {"/query?from=2015-13-01", "/query?asn=abc", "/query?asn=-1",
        "/query?port=70000", "/query?country=DEU", "/query?prefix=10.0.0.0/33",
        "/query?min_intensity=x", "/query?min_intensity=nan",
        "/query?min_intensity=inf", "/query?min_intensity=-inf",
        "/query?t0=nan", "/query?t1=inf", "/query?agg=median", "/query?k=0",
        "/query?k=9999999", "/query?explain=maybe", "/query?bogus=1",
        "/query?from=2015-01-01&t0=5"}) {
    const auto call = parse_query_request(request_for(target), window);
    EXPECT_FALSE(call.error.empty()) << target;
  }
}

// A non-finite value that does reach a snapshot (built directly, not
// through a validated dump) becomes the 500 error body, never an invalid
// 200 body with a bare `nan`.
TEST(ApiTest, NonFiniteRowIsAServerErrorNotInvalidJson) {
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  const StudyWindow window;
  core::AttackEvent event;
  event.target = net::Ipv4Addr(10, 0, 0, 1);
  event.start = static_cast<double>(window.start_time()) + 60.0;
  event.end = event.start + 60.0;
  event.intensity = std::numeric_limits<double>::quiet_NaN();
  const std::vector<core::AttackEvent> events{event};
  const auto snap = query::Snapshot::build(window, events, {pfx2as, geo});
  const auto call =
      parse_query_request(request_for("/query?agg=events&k=2"), window);
  ASSERT_TRUE(call.error.empty()) << call.error;
  const ApiResponse response = execute_query(*snap, call, {});
  EXPECT_EQ(response.status, 500);
  EXPECT_EQ(response.body.find("nan"), std::string::npos) << response.body;
}

// An events listing resolves each cold segment once per run of listed
// rows, not once per field of every row: at cache budget 0 every resolve
// decodes the segment again, so a k = 30 listing over one archived day
// costs one load for the match and one for the listing.
TEST(ApiTest, EventsListingLoadsEachColdSegmentOnce) {
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 2);
  const double day1 = static_cast<double>(window.day_start(1));
  std::vector<core::AttackEvent> events;
  for (int i = 0; i < 120; ++i) {  // 40 events on each of the three days
    core::AttackEvent event;
    event.target = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(i % 7),
                                 static_cast<std::uint8_t>(i));
    event.start = static_cast<double>(window.start_time()) + i * 2160.0;
    event.end = event.start + 60.0;
    event.intensity = 0.5 * (i % 9);
    event.top_port = static_cast<std::uint16_t>(i % 3 == 0 ? 53 : 80);
    events.push_back(event);
  }
  const auto resident = query::Snapshot::build(
      window, events,
      query::BuildContext{.pfx2as = pfx2as, .geo = geo, .segment_days = 1});
  ASSERT_EQ(resident->num_segments(), 3u);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dosm_serve_listing.dosarch")
          .string();
  storage::write_archive(path, *resident);
  query::BuildContext ctx{pfx2as, geo};
  ctx.hot_days = 0;
  ctx.cold_cache_bytes = 0;
  const auto cold = storage::open_tiered(path, ctx);
  std::remove(path.c_str());

  const auto call = parse_query_request(
      request_for("/query?agg=events&k=30&t0=" + std::to_string(day1) +
                  "&t1=" +
                  std::to_string(day1 + static_cast<double>(kSecondsPerDay))),
      window);
  ASSERT_TRUE(call.error.empty()) << call.error;
  const ApiResponse expected = execute_query(*resident, call, {});
  ASSERT_EQ(expected.status, 200);
  const storage::Metrics& metrics = storage::Metrics::get();
  const std::uint64_t loads_before = metrics.segment_loads.value();
  const ApiResponse actual = execute_query(*cold, call, {});
  EXPECT_EQ(metrics.segment_loads.value() - loads_before, 2u);
  EXPECT_EQ(actual.status, 200);
  EXPECT_EQ(actual.body, expected.body);
}

TEST(ApiTest, CanonicalStringDistinguishesEveryParameter) {
  const StudyWindow window;
  const std::vector<std::string> targets = {
      "/query", "/query?agg=daily", "/query?k=11", "/query?explain=1",
      "/query?from=2015-02-01", "/query?t0=100&t1=200",
      "/query?source=honeypot", "/query?prefix=10.0.0.0/8",
      "/query?prefix=10.0.0.0/9", "/query?asn=1", "/query?country=US",
      "/query?port=80", "/query?min_intensity=2"};
  std::vector<std::string> canonicals;
  for (const auto& target : targets) {
    const auto call = parse_query_request(request_for(target), window);
    ASSERT_TRUE(call.error.empty()) << target << ": " << call.error;
    canonicals.push_back(call.canonical);
  }
  for (std::size_t i = 0; i < canonicals.size(); ++i)
    for (std::size_t j = i + 1; j < canonicals.size(); ++j)
      EXPECT_NE(canonicals[i], canonicals[j])
          << targets[i] << " vs " << targets[j];
}

// ---------------------------------------------------------------------------
// Live server over loopback TCP.
// ---------------------------------------------------------------------------

/// The world/engine every socket test shares (built once per process).
query::QueryEngine& shared_engine() {
  static query::QueryEngine* engine = [] {
    const auto world = sim::build_world(sim::ScenarioConfig::small());
    auto* e = new query::QueryEngine();
    e->publish(query::Snapshot::from_store(
        world->store,
        query::BuildContext{world->population.pfx2as(),
                            world->population.geo()},
        1));
    return e;
  }();
  return *engine;
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly one full HTTP response (headers + Content-Length body).
std::string read_response(int fd) {
  std::string response;
  char chunk[4096];
  std::size_t need = std::string::npos;
  for (;;) {
    if (need == std::string::npos) {
      const std::size_t head_end = response.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t field = response.find("Content-Length: ");
        if (field == std::string::npos || field > head_end) return response;
        std::size_t length = 0;
        std::from_chars(response.data() + field + 16,
                        response.data() + head_end, length);
        need = head_end + 4 + length;
      }
    }
    if (need != std::string::npos && response.size() >= need)
      return response.substr(0, need);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return response;  // closed early — caller asserts on content
    response.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string fetch(int fd, const std::string& target) {
  send_all(fd, "GET " + target + " HTTP/1.1\r\n\r\n");
  return read_response(fd);
}

int status_of(const std::string& response) {
  int status = 0;
  std::from_chars(response.data() + 9, response.data() + 12, status);
  return status;
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

TEST(ServerTest, ServesEndpointsOverRealSockets) {
  ServerConfig config;
  config.workers = 2;
  const Server server(config, shared_engine());
  const int fd = connect_to(server.port());

  const std::string health = fetch(fd, "/healthz");
  EXPECT_EQ(status_of(health), 200);
  EXPECT_NE(body_of(health).find("\"snapshot_version\":1"), std::string::npos);

  // Keep-alive: the same connection answers a second request.
  const std::string summary = fetch(fd, "/query?agg=summary");
  EXPECT_EQ(status_of(summary), 200);
  EXPECT_NE(body_of(summary).find("\"events\":"), std::string::npos);

  EXPECT_EQ(status_of(fetch(fd, "/nope")), 404);
  EXPECT_EQ(status_of(fetch(fd, "/query?bogus=1")), 400);
  EXPECT_EQ(status_of(fetch(fd, "/metrics")), 200);

  send_all(fd, "FLAGRANTLY NOT HTTP\r\n\r\n");
  EXPECT_EQ(status_of(read_response(fd)), 400);  // then the server closes
  ::close(fd);
}

TEST(ServerTest, RowBudgetSurfacesAs422) {
  ServerConfig config;
  config.workers = 1;
  config.max_rows = 5;  // the small world has far more matching rows
  const Server server(config, shared_engine());
  const int fd = connect_to(server.port());
  const std::string response = fetch(fd, "/query?agg=summary");
  EXPECT_EQ(status_of(response), 422);
  EXPECT_NE(body_of(response).find("row budget"), std::string::npos);
  ::close(fd);
}

TEST(ServerTest, SaturatedQueueAnswers429) {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  const Server server(config, shared_engine());

  // Occupy the single worker with an idle connection, fill the 1-slot
  // queue with a second, then a third must be bounced by the acceptor.
  const int busy = connect_to(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int queued = connect_to(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t rejected_before = Metrics::get().admission_rejected.value();
  const int bounced = connect_to(server.port());
  const std::string response = read_response(bounced);
  EXPECT_EQ(status_of(response), 429);
  EXPECT_NE(response.find("Retry-After"), std::string::npos);
  EXPECT_GT(Metrics::get().admission_rejected.value(), rejected_before);
  ::close(bounced);
  ::close(queued);
  ::close(busy);
}

TEST(ServerTest, RejectedPipelinedClientStillReceivesThe429) {
  // Regression: the acceptor's reject path used plain close(). A client
  // that had already pipelined requests the server never read made the
  // kernel answer the unread bytes with RST — and RST discards the peer's
  // receive queue, so the 429 evaporated before the client could read it.
  // The lingering close (shutdown + bounded drain) must keep the response
  // deliverable.
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  const Server server(config, shared_engine());

  const int busy = connect_to(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int queued = connect_to(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A burst of bounced clients, each pipelining two requests in one
  // segment at connect time. The acceptor serializes rejects, so for every
  // connection after the first the pipelined bytes are guaranteed to be in
  // the server's receive queue by the time its reject path closes — the
  // exact shape where close() answered with RST.
  constexpr int kBurst = 48;  // enough trials that the pre-fix RST race
                              // cannot slip through a full run
  int bounced[kBurst];
  for (int i = 0; i < kBurst; ++i) {
    bounced[i] = connect_to(server.port());
    send_all(bounced[i],
             "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
  }
  for (int i = 0; i < kBurst; ++i) {
    const std::string response = read_response(bounced[i]);
    EXPECT_EQ(status_of(response), 429) << "connection " << i << "\n"
                                        << response;
    EXPECT_NE(response.find("saturated"), std::string::npos)
        << "connection " << i;
    // The stream must end in a clean FIN. Pre-fix the unread pipelined
    // bytes made close() emit RST, which surfaces here as ECONNRESET — and
    // on stacks that flush the receive queue on RST, as a lost 429 above.
    char tail[64];
    const ssize_t eof = ::recv(bounced[i], tail, sizeof(tail), 0);
    EXPECT_EQ(eof, 0) << "connection " << i << ": "
                      << (eof < 0 ? std::strerror(errno) : "trailing bytes");
    ::close(bounced[i]);
  }
  ::close(queued);
  ::close(busy);
}

TEST(ServerTest, QueryWithoutSnapshotAnswers503) {
  query::QueryEngine empty_engine;
  ServerConfig config;
  config.workers = 1;
  const Server server(config, empty_engine);
  const int fd = connect_to(server.port());
  EXPECT_EQ(status_of(fetch(fd, "/query?agg=summary")), 503);
  EXPECT_EQ(status_of(fetch(fd, "/healthz")), 503);
  ::close(fd);
}

// The determinism contract: byte-identical responses for the same query +
// snapshot version regardless of worker count and cache state. One server
// runs 1 worker with the cache disabled, the other 8 workers with the
// cache on; every response — cold and cached — must match byte-for-byte.
TEST(ServerTest, ResponsesAreByteIdenticalAcrossWorkersAndCache) {
  ServerConfig plain;
  plain.workers = 1;
  plain.cache_bytes = 0;
  const Server server_plain(plain, shared_engine());
  ServerConfig cached;
  cached.workers = 8;
  const Server server_cached(cached, shared_engine());

  const int fd_plain = connect_to(server_plain.port());
  const int fd_cached = connect_to(server_cached.port());
  for (const std::string target :
       {"/query?agg=summary", "/query?agg=daily",
        "/query?agg=top-targets&k=7", "/query?agg=top-asns&k=7",
        "/query?agg=top-countries&k=7", "/query?agg=events&k=5&explain=1",
        "/query?agg=summary&source=honeypot",
        "/query?agg=summary&min_intensity=0.5"}) {
    const std::string reference = fetch(fd_plain, target);
    const std::string cold = fetch(fd_cached, target);
    const std::string warm = fetch(fd_cached, target);
    EXPECT_EQ(reference, cold) << target;
    EXPECT_EQ(reference, warm) << target << " (cached)";
  }
  ::close(fd_plain);
  ::close(fd_cached);
}

TEST(ServerTest, SnapshotSwapInvalidatesCachedResults) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const query::BuildContext ctx{world->population.pfx2as(),
                                world->population.geo()};
  query::QueryEngine engine;
  engine.publish(query::Snapshot::from_store(world->store, ctx, 1));

  ServerConfig config;
  config.workers = 2;
  const Server server(config, engine);
  const int fd = connect_to(server.port());

  const std::string v1 = fetch(fd, "/query?agg=summary");
  EXPECT_NE(body_of(v1).find("\"snapshot_version\":1"), std::string::npos);
  fetch(fd, "/query?agg=summary");  // now served from cache

  engine.publish(query::Snapshot::from_store(world->store, ctx, 2));
  const std::string v2 = fetch(fd, "/query?agg=summary");
  // The version-keyed cache cannot serve the stale body.
  EXPECT_NE(body_of(v2).find("\"snapshot_version\":2"), std::string::npos);
  EXPECT_GT(server.cache().entries(), 0u);
  ::close(fd);
}

// Multi-client stress against a live publisher: N client threads hammer a
// mixed cached/uncached query load while SnapshotPublisher seals and
// publishes day after day into the same engine. Run under TSan in CI; the
// assertions here are liveness + validity (every response parses, status
// is 200, body names SOME published version).
TEST(ServeStressTest, ConcurrentClientsDuringPublishes) {
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const query::BuildContext ctx{world->population.pfx2as(),
                                world->population.geo()};
  query::QueryEngine engine;
  ServerConfig config;
  config.workers = 4;
  config.queue_capacity = 64;
  const Server server(config, engine);

  std::thread publisher_thread([&] {
    query::SnapshotPublisher publisher(engine, world->window, ctx);
    for (const auto& event : world->store.events()) publisher.ingest(event);
    publisher.finish();
  });
  // Clients only assert 200s, so wait for the first published day.
  while (engine.snapshot() == nullptr)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 150;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string> mix = {
          "/query?agg=summary",                        // cacheable
          "/query?agg=top-countries&k=5",              // cacheable
          "/query?agg=top-targets&k=" + std::to_string(2 + c),  // per-client
          "/healthz",
      };
      const int fd = connect_to(server.port());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string response =
            fetch(fd, mix[static_cast<std::size_t>(i) % mix.size()]);
        if (status_of(response) != 200 ||
            body_of(response).find("\"snapshot_version\":") ==
                std::string::npos)
          failures.fetch_add(1);
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  publisher_thread.join();
  EXPECT_EQ(failures.load(), 0);

  // After the final publish, the engine serves the full world.
  const int fd = connect_to(server.port());
  const std::string final_summary = fetch(fd, "/query?agg=summary");
  EXPECT_EQ(status_of(final_summary), 200);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Subscription endpoints over real sockets.
// ---------------------------------------------------------------------------

/// One request with an explicit method and optional form body, on its own
/// connection.
std::string roundtrip(std::uint16_t port, const std::string& method,
                      const std::string& target, const std::string& body = "") {
  const int fd = connect_to(port);
  std::string raw = method + " " + target + " HTTP/1.1\r\n";
  raw += "Connection: close\r\n";
  if (!body.empty())
    raw += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  raw += "\r\n";
  raw += body;
  send_all(fd, raw);
  const std::string response = read_response(fd);
  ::close(fd);
  return response;
}

/// Pulls the subscription id out of a /subscribe response body.
std::uint64_t subscription_id(const std::string& response) {
  const std::string body = body_of(response);
  const std::size_t at = body.find("\"subscription\":");
  EXPECT_NE(at, std::string::npos) << body;
  std::uint64_t id = 0;
  std::from_chars(body.data() + at + 15, body.data() + body.size(), id);
  return id;
}

core::AttackEvent event_on(std::string_view target, double start) {
  core::AttackEvent event;
  event.target = net::Ipv4Addr::parse(target);
  event.start = start;
  event.end = start + 60.0;
  event.intensity = 100.0;
  event.ip_proto = 6;
  event.top_port = 80;
  return event;
}

TEST(SubscribeServerTest, SubscribeWatchUnsubscribeLifecycle) {
  subscribe::Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 2;
  const Server server(config, shared_engine(), &dispatcher);

  const std::string created =
      roundtrip(server.port(), "POST", "/subscribe?prefix=10.1.2.3/32");
  ASSERT_EQ(status_of(created), 200) << created;
  EXPECT_NE(body_of(created).find("\"predicate\":\"pfx=10.1.2.3/32\""),
            std::string::npos);
  const std::uint64_t id = subscription_id(created);
  ASSERT_GT(id, 0u);

  // A matching and a non-matching event, flushed by one tick.
  dispatcher.ingest(event_on("10.1.2.3", 1000.0));
  dispatcher.ingest(event_on("192.0.2.9", 1000.0));
  dispatcher.tick();

  const std::string target =
      "/watch?id=" + std::to_string(id) + "&cursor=0";
  const std::string watch = roundtrip(server.port(), "GET", target);
  ASSERT_EQ(status_of(watch), 200) << watch;
  const std::string body = body_of(watch);
  EXPECT_NE(body.find("\"target\":\"10.1.2.3\""), std::string::npos) << body;
  EXPECT_EQ(body.find("192.0.2.9"), std::string::npos) << body;
  EXPECT_NE(body.find("\"next_cursor\":1"), std::string::npos) << body;

  // Cursor replay is byte-deterministic — and identical across a second
  // server with a different worker count sharing the dispatcher.
  EXPECT_EQ(watch, roundtrip(server.port(), "GET", target));
  ServerConfig other;
  other.workers = 8;
  const Server server8(other, shared_engine(), &dispatcher);
  EXPECT_EQ(watch, roundtrip(server8.port(), "GET", target));

  // Past the cursor there is nothing new.
  const std::string drained = roundtrip(
      server.port(), "GET", "/watch?id=" + std::to_string(id) + "&cursor=1");
  EXPECT_NE(body_of(drained).find("\"notifications\":[]"), std::string::npos);

  // A cursor far past the newest seq (UINT64_MAX) is clamped, not wrapped:
  // nothing delivered, the cursor echoed back, nothing pending.
  const std::string hostile = roundtrip(
      server.port(), "GET",
      "/watch?id=" + std::to_string(id) +
          "&cursor=18446744073709551615&wait_ms=0");
  ASSERT_EQ(status_of(hostile), 200) << hostile;
  const std::string hostile_body = body_of(hostile);
  EXPECT_NE(hostile_body.find("\"notifications\":[]"), std::string::npos)
      << hostile_body;
  EXPECT_NE(hostile_body.find("\"next_cursor\":18446744073709551615"),
            std::string::npos)
      << hostile_body;
  EXPECT_NE(hostile_body.find("\"pending\":0"), std::string::npos)
      << hostile_body;

  const std::string removed = roundtrip(server.port(), "DELETE",
                                        "/subscribe?id=" + std::to_string(id));
  EXPECT_EQ(status_of(removed), 200);
  EXPECT_NE(body_of(removed).find("\"removed\":true"), std::string::npos);
  EXPECT_EQ(status_of(roundtrip(server.port(), "GET", target)), 404);
  EXPECT_EQ(status_of(roundtrip(server.port(), "DELETE",
                                "/subscribe?id=" + std::to_string(id))),
            404);
}

TEST(SubscribeServerTest, LongPollWakesOnTick) {
  subscribe::Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 2;
  const Server server(config, shared_engine(), &dispatcher);

  const std::uint64_t id = subscription_id(
      roundtrip(server.port(), "POST", "/subscribe?kind=new-attack"));
  ASSERT_GT(id, 0u);

  std::string watched;
  std::thread poller([&] {
    watched = roundtrip(
        server.port(), "GET",
        "/watch?id=" + std::to_string(id) + "&cursor=0&wait_ms=10000");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  dispatcher.ingest(event_on("203.0.113.7", 5000.0));
  dispatcher.tick();
  poller.join();
  ASSERT_EQ(status_of(watched), 200) << watched;
  EXPECT_NE(body_of(watched).find("\"target\":\"203.0.113.7\""),
            std::string::npos)
      << watched;
}

TEST(SubscribeServerTest, ValidationAndDisabledPaths) {
  subscribe::Dispatcher dispatcher;
  ServerConfig config;
  config.workers = 1;
  const Server with(config, shared_engine(), &dispatcher);
  EXPECT_EQ(status_of(roundtrip(with.port(), "POST", "/subscribe?kind=nope")),
            400);
  EXPECT_EQ(status_of(roundtrip(with.port(), "POST",
                                "/subscribe?prefix=10.0.0.1/32&prefix=10.0.0.2/32")),
            400);
  EXPECT_EQ(status_of(roundtrip(with.port(), "GET", "/watch")), 400);
  EXPECT_EQ(status_of(roundtrip(with.port(), "GET", "/watch?id=0")), 400);
  EXPECT_EQ(status_of(roundtrip(with.port(), "GET", "/watch?id=999")), 404);
  // Form-body predicates parse the same as URL ones.
  const std::string via_body =
      roundtrip(with.port(), "POST", "/subscribe", "asn=65000&kind=new-attack");
  ASSERT_EQ(status_of(via_body), 200) << via_body;
  EXPECT_NE(body_of(via_body).find("\"predicate\":\"asn=65000;kind=new-attack\""),
            std::string::npos)
      << via_body;

  const Server without(config, shared_engine());
  for (const auto& [method, target] :
       std::vector<std::pair<std::string, std::string>>{
           {"POST", "/subscribe"},
           {"DELETE", "/subscribe?id=1"},
           {"GET", "/watch?id=1"}}) {
    const std::string response = roundtrip(without.port(), method, target);
    EXPECT_EQ(status_of(response), 503) << method << " " << target;
    EXPECT_NE(body_of(response).find("subscriptions disabled"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dosm::serve
