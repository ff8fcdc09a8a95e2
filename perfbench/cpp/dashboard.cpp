// `dashboard`: the analyst's read path.
//
// The 731-day default world is written to a DOSARCH1 archive and opened
// tiered: the last 60 days resident, older days cold behind a 1 MiB
// decoded-segment budget (well under the ~8 MB cold set). Two keep-alive
// clients drive a 2-worker serve::Server in a closed loop over fixed
// per-client request sequences. One op is one response. Per block of 20
// ops: 8 repeated dashboard panels (result-cache hits), 11 distinct
// drill-downs over 1-60 resident days and 1 distinct drill-down over 1-30
// archived days, so p50 falls inside the resident class and p99 inside the
// cold class.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <malloc.h>
#include <unistd.h>

#include "harness.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "serve/api.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/tiered.h"

namespace perfbench {
namespace {

using namespace dosm;

enum Class : int { kPanel = 0, kHot = 1, kCold = 2 };
constexpr const char* kClassNames[] = {"panel", "hot", "cold"};
/// Ops of each class per block of 20.
constexpr int kBlock[] = {8, 11, 1};
constexpr std::size_t kClients = 2;

struct Sizes {
  int hot_days = 60;
  std::size_t cold_cache_bytes = 1u << 20;
  /// Ops per --seconds of run time (both clients together).
  int ops_per_second = 3600;
  int warmup_ops = 2000;
};

using Params = std::vector<std::pair<std::string, std::string>>;

struct Request {
  Class cls = kPanel;
  std::string target;  // "/query?k=v&..."; values need no escaping
};

Request make_request(Class cls, const Params& params) {
  Request r;
  r.cls = cls;
  r.target = "/query";
  for (std::size_t i = 0; i < params.size(); ++i)
    r.target += (i == 0 ? "?" : "&") + params[i].first + "=" + params[i].second;
  return r;
}

Params params_of(const std::string& target) {
  Params params;
  std::size_t pos = target.find('?');
  while (pos != std::string::npos) {
    const std::size_t next = target.find('&', pos + 1);
    const std::string pair = target.substr(pos + 1, next - pos - 1);
    const std::size_t eq = pair.find('=');
    params.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    pos = next;
  }
  return params;
}

std::vector<Request> panels() {
  const std::vector<Params> p = {
      {{"agg", "summary"}},
      {{"agg", "daily"}},
      {{"agg", "top-targets"}, {"k", "10"}},
      {{"agg", "top-asns"}, {"k", "10"}},
      {{"agg", "top-countries"}, {"k", "10"}},
      {{"agg", "summary"}, {"source", "telescope"}},
      {{"agg", "summary"}, {"source", "honeypot"}},
      {{"agg", "top-countries"}, {"k", "10"}, {"source", "honeypot"}},
  };
  std::vector<Request> out;
  for (const auto& params : p) out.push_back(make_request(kPanel, params));
  return out;
}

/// Draws distinct drill-downs over [first_day, last_day] spanning 1 to
/// max_span days each; `seen` keeps them distinct across every draw.
class DrillDowns {
 public:
  DrillDowns(const StudyWindow& window, std::uint64_t seed)
      : window_(window), rng_(seed) {}

  Request draw(Class cls, int first_day, int last_day, int max_span) {
    static const char* kAggs[] = {"summary", "top-targets", "top-asns",
                                  "top-countries", "events"};
    static const char* kSources[] = {"", "telescope", "honeypot"};
    static const char* kIntensity[] = {"", "1", "5", "20", "100"};
    for (;;) {
      const int span = static_cast<int>(rng_.uniform_int(1, max_span));
      const int day = static_cast<int>(
          rng_.uniform_int(first_day, std::max(first_day, last_day - span + 1)));
      Params p = {{"agg", kAggs[rng_.next_below(5)]},
                  {"k", std::to_string(rng_.uniform_int(5, 30))},
                  {"from", to_string(window_.date_of_day(day))},
                  {"to", to_string(window_.date_of_day(day + span - 1))}};
      if (const char* s = kSources[rng_.next_below(3)]; *s != '\0')
        p.emplace_back("source", s);
      if (const char* m = kIntensity[rng_.next_below(5)]; *m != '\0')
        p.emplace_back("min_intensity", m);
      Request r = make_request(cls, p);
      if (seen_.insert(std::hash<std::string>{}(r.target)).second) return r;
    }
  }

 private:
  StudyWindow window_;
  Rng rng_;
  std::unordered_set<std::size_t> seen_;  // hashes of every target drawn
};

/// A fixed op sequence of `n` ops (a multiple of the block size), classes
/// shuffled within each block.
std::vector<Request> make_sequence(std::size_t n, const std::vector<Request>& panel,
                                   DrillDowns& drill, Rng& rng, int days,
                                   int hot_days) {
  std::vector<Request> ops;
  ops.reserve(n);
  std::size_t next_panel = 0;
  const int cold_last = days - hot_days - 1;
  while (ops.size() < n) {
    std::vector<Class> block;
    for (int c = 0; c < 3; ++c)
      block.insert(block.end(), static_cast<std::size_t>(kBlock[c]),
                   static_cast<Class>(c));
    for (std::size_t i = block.size(); i > 1; --i)
      std::swap(block[i - 1], block[rng.next_below(i)]);
    for (const Class cls : block) {
      if (cls == kPanel)
        ops.push_back(panel[next_panel++ % panel.size()]);
      else if (cls == kHot)
        ops.push_back(drill.draw(kHot, days - hot_days, days - 1, hot_days));
      else
        ops.push_back(drill.draw(kCold, 0, cold_last, 30));
    }
  }
  ops.resize(n);
  return ops;
}

/// A response is kept as its status, length and 64-bit hash, so holding
/// every response of a run costs the benchmark little memory.
struct OpRecord {
  double ms = 0.0;
  int status = 0;
  std::size_t body_size = 0;
  std::size_t body_hash = 0;
};

/// What a response body must be: its length and hash.
struct Expected {
  std::size_t size = 0;
  std::size_t hash = 0;
};

struct Section {
  std::vector<OpRecord> ops;
  double wall_s = 0.0;
  double cpu_ms = 0.0;  // the process minus the (spinning) client threads
};

/// Closed loop: client c sends ops c, c + kClients, ... in order, each only
/// after the previous response arrived.
Section run_loop(std::uint16_t port, const std::vector<Request>& sequence,
                 std::vector<SpanLog>* logs) {
  Section s;
  s.ops.resize(sequence.size());
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  std::vector<double> client_cpu_ms(kClients, 0.0);
  std::exception_ptr error;
  std::mutex error_mutex;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        HttpClient client(port, /*spin=*/true);
        SpanLog disabled(false);
        SpanLog& log = logs != nullptr ? (*logs)[c] : disabled;
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const double cpu0 = thread_cpu_ms();
        for (std::size_t i = c; i < sequence.size(); i += kClients) {
          log.set_op(static_cast<std::uint32_t>(i));
          const auto t0 = Clock::now();
          HttpReply reply;
          {
            ScopedSpan op(log, "op");
            reply = client.get(sequence[i].target);
          }
          s.ops[i] = {ms_between(t0, Clock::now()), reply.status,
                      reply.body.size(), std::hash<std::string>{}(reply.body)};
        }
        log.set_op(kNoOp);
        client_cpu_ms[c] = thread_cpu_ms() - cpu0;
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        error = std::current_exception();
        ready.fetch_add(1);
      }
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  s.wall_s = seconds_since(t0);
  s.cpu_ms = cpu_ms() - cpu0;
  for (const double ms : client_cpu_ms) s.cpu_ms -= ms;
  if (error) std::rethrow_exception(error);
  return s;
}

serve::ApiCall parse(const Request& r, const StudyWindow& window) {
  serve::HttpRequest http;
  http.method = "GET";
  http.target = r.target;
  http.path = "/query";
  http.params = params_of(r.target);
  serve::ApiCall call = serve::parse_query_request(http, window);
  if (!call.error.empty())
    throw std::logic_error("bad drill-down " + r.target + ": " + call.error);
  return call;
}

/// The body each request of `sequence` must get: the same query run
/// in-process on the fully resident snapshot. Four threads; this runs
/// during set-up, before the server starts.
std::vector<Expected> expectations(const std::vector<Request>& sequence,
                                   const query::Snapshot& resident) {
  constexpr std::size_t kThreads = 4;
  std::vector<Expected> out(sequence.size());
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        // Only panels repeat; drill-downs are distinct and run once.
        std::map<std::string, Expected> panels;
        for (std::size_t i = t; i < sequence.size(); i += kThreads) {
          const Request& r = sequence[i];
          if (const auto it = panels.find(r.target); it != panels.end()) {
            out[i] = it->second;
            continue;
          }
          const std::string body =
              serve::execute_query(resident, parse(r, resident.window()), {})
                  .body;
          out[i] = {body.size(), std::hash<std::string>{}(body)};
          if (r.cls == kPanel) panels.emplace(r.target, out[i]);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  return out;
}

/// Counts ops whose status is not 200 or whose body differs from the
/// expected one.
std::uint64_t count_failures(const Section& s,
                             const std::vector<Expected>& expected) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < s.ops.size(); ++i)
    if (s.ops[i].status != 200 || s.ops[i].body_size != expected[i].size ||
        s.ops[i].body_hash != expected[i].hash)
      ++failed;
  return failed;
}

std::vector<double> latencies(const Section& s) {
  std::vector<double> ms;
  ms.reserve(s.ops.size());
  for (const auto& op : s.ops) ms.push_back(op.ms);
  return ms;
}

void add_layer_metrics(Result& result, const std::vector<Request>& sequence,
                       const Section& timed, const query::Snapshot& tiered,
                       const std::string& archive_path) {
  std::vector<double> by_class[3];
  for (std::size_t i = 0; i < sequence.size(); ++i)
    by_class[sequence[i].cls].push_back(timed.ops[i].ms);
  for (int c = 0; c < 3; ++c) {
    const std::string prefix = std::string("serve.") + kClassNames[c];
    result.layer(prefix + "_p50_ms", percentile(by_class[c], 0.50), "ms");
    result.layer(prefix + "_p99_ms", percentile(by_class[c], 0.99), "ms");
  }

  // The resident drill-downs again, in process: the query layer alone
  // through the public Snapshot calls, then with the API's JSON rendering.
  std::map<std::string, std::vector<double>> exec_ms;
  std::vector<double> api_ms;
  double candidates = 0.0;
  double matches = 0.0;
  std::size_t sampled = 0;
  for (const auto& r : sequence) {
    if (r.cls != kHot || sampled++ >= 2000) continue;
    const auto call = parse(r, tiered.window());
    const query::Query& q = call.query;
    auto t0 = Clock::now();
    if (call.agg == "summary") {
      tiered.count(q);
      tiered.unique_targets(q);
    } else if (call.agg == "top-targets") {
      tiered.top_targets(q, call.k);
    } else if (call.agg == "top-asns") {
      tiered.top_asns(q, call.k);
    } else if (call.agg == "top-countries") {
      tiered.top_countries(q, call.k);
    } else {
      tiered.match_rows(q);
    }
    exec_ms[call.agg].push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    serve::execute_query(tiered, call, {});
    api_ms.push_back(ms_between(t0, Clock::now()));
    candidates += static_cast<double>(tiered.plan(q).candidates);
    matches += static_cast<double>(tiered.match_rows(q).size());
  }
  for (const char* agg :
       {"summary", "top-targets", "top-asns", "top-countries", "events"}) {
    std::string name = std::string("query.exec_") + agg + "_ms";
    std::replace(name.begin(), name.end(), '-', '_');
    result.layer(name, median(exec_ms[agg]), "ms");
  }
  result.layer("serve.overhead_ms",
               percentile(by_class[kHot], 0.5) - median(api_ms), "ms");
  result.layer("query.candidates_per_match",
               matches > 0.0 ? candidates / matches : 0.0, "ratio");

  // Decode cost of every archived segment the cold class touches.
  const storage::ArchiveReader reader(archive_path);
  std::set<std::uint32_t> touched;
  for (const auto& r : sequence) {
    if (r.cls != kCold) continue;
    const auto q = parse(r, tiered.window()).query;
    for (std::uint32_t id = 0; id < reader.num_segments(); ++id) {
      const auto& meta = reader.meta(id);
      if (meta.rows > 0 && meta.start_max >= q.time->begin &&
          meta.start_min < q.time->end)
        touched.insert(id);
    }
  }
  std::vector<double> decode_ms;
  for (const std::uint32_t id : touched) {
    const auto t0 = Clock::now();
    reader.load(id);
    decode_ms.push_back(ms_between(t0, Clock::now()));
  }
  result.layer("storage.decode_ms", median(decode_ms), "ms");
}

}  // namespace

Result run_dashboard(const Options& options) {
  Sizes sizes;
  sim::ScenarioConfig scenario;
  if (options.smoke) {
    scenario = sim::ScenarioConfig::small();
    sizes.hot_days = 10;
    sizes.warmup_ops = 200;
  }
  scenario.seed = options.seed;
  const std::size_t n =
      options.smoke ? 400
                    : static_cast<std::size_t>(sizes.ops_per_second) *
                          static_cast<std::size_t>(options.seconds);

  Result result;
  auto world = sim::build_world(scenario);
  const StudyWindow window = world->window;
  const int days = window.num_days();
  const std::uint64_t events = world->store.size();
  query::BuildContext ctx{world->population.pfx2as(), world->population.geo()};
  ctx.segment_days = 1;
  auto resident = query::Snapshot::from_store(world->store, ctx, 1);
  const std::string archive_path = options.work_dir + "/dashboard-" +
                                   std::to_string(::getpid()) + ".dosarch";
  storage::write_archive(archive_path, *resident);
  ctx.hot_days = sizes.hot_days;
  ctx.cold_cache_bytes = sizes.cold_cache_bytes;
  const auto tiered = storage::open_tiered(archive_path, ctx, 1);

  // Warm-up, timed and traced sequences draw from one pool of distinct
  // drill-downs, so no drill-down is ever answered from the result cache.
  const auto panel = panels();
  DrillDowns drill(window, options.seed ^ 0xd5b0a2du);
  Rng rng(options.seed ^ 0x5e9u);
  const auto warmup = make_sequence(static_cast<std::size_t>(sizes.warmup_ops),
                                    panel, drill, rng, days, sizes.hot_days);
  const auto sequence = make_sequence(n, panel, drill, rng, days, sizes.hot_days);
  const auto traced_sequence =
      make_sequence(n / 2, panel, drill, rng, days, sizes.hot_days);

  // Every expected body comes from the fully resident snapshot, which is
  // then freed with the world: only the tiered server's memory is left.
  const auto warmup_expected = expectations(warmup, *resident);
  const auto expected = expectations(sequence, *resident);
  const auto traced_expected = options.trace
                                   ? expectations(traced_sequence, *resident)
                                   : std::vector<Expected>{};
  resident.reset();
  world.reset();
  ::malloc_trim(0);  // hand what they held back to the kernel

  query::QueryEngine engine(tiered);
  serve::ServerConfig config;
  config.workers = kClients;
  serve::Server server(config, engine);

  const Section warm = run_loop(server.port(), warmup, nullptr);
  if (count_failures(warm, warmup_expected) != 0) result.checks_passed = false;
  const double setup_s = end_setup();

  const std::uint64_t serve_hits0 = registry_counter("serve.cache.hits");
  const std::uint64_t serve_misses0 = registry_counter("serve.cache.misses");
  const std::uint64_t storage_hits0 = registry_counter("storage.cache.hits");
  const std::uint64_t storage_misses0 = registry_counter("storage.cache.misses");
  const std::uint64_t loads0 = registry_counter("storage.segment.loads");
  const Section timed = run_loop(server.port(), sequence, nullptr);
  const double serve_hits =
      static_cast<double>(registry_counter("serve.cache.hits") - serve_hits0);
  const double serve_misses = static_cast<double>(
      registry_counter("serve.cache.misses") - serve_misses0);
  const double storage_hits = static_cast<double>(
      registry_counter("storage.cache.hits") - storage_hits0);
  const double storage_misses = static_cast<double>(
      registry_counter("storage.cache.misses") - storage_misses0);
  const double loads =
      static_cast<double>(registry_counter("storage.segment.loads") - loads0);

  finish_end_to_end(result, latencies(timed), timed.wall_s, setup_s);
  result.attempted = sequence.size();
  result.failed = count_failures(timed, expected);
  result.add_record("days", static_cast<std::uint64_t>(days));
  result.add_record("events", events);
  result.add_record("hot_days", static_cast<std::uint64_t>(sizes.hot_days));
  result.add_record("cold_cache_bytes", sizes.cold_cache_bytes);
  result.add_record("archive_bytes", std::filesystem::file_size(archive_path));
  result.add_record("clients", kClients);
  result.add_record("workers", kClients);

  if (options.trace) {
    // The query and storage calls run on the server's worker threads, out
    // of the benchmark's reach, so the trace has one span per op on the
    // client side. The server's own serve.request_seconds timer (request
    // handling plus the response write) is the part of op time attributed
    // to the server; the rest is the loopback round trip and the client.
    std::vector<SpanLog> logs(kClients, SpanLog(true));
    const double served0 = registry_histogram_sum("serve.request_seconds");
    const Section traced = run_loop(server.port(), traced_sequence, &logs);
    const double served_s =
        registry_histogram_sum("serve.request_seconds") - served0;
    result.attempted += traced_sequence.size();
    result.failed += count_failures(traced, traced_expected);
    std::vector<const SpanLog*> log_ptrs;
    for (const auto& log : logs) log_ptrs.push_back(&log);
    const TraceSummary summary = summarize(log_ptrs, traced_sequence.size());

    add_layer_metrics(result, sequence, timed, *tiered, archive_path);
    result.layer("serve.cache_hit_ratio",
                 serve_hits / std::max(1.0, serve_hits + serve_misses), "share");
    result.layer("storage.cache_hit_ratio",
                 storage_hits / std::max(1.0, storage_hits + storage_misses),
                 "share");
    result.layer("storage.cold_fetches_per_op",
                 loads / static_cast<double>(sequence.size()), "count");
    result.layer("process.cpu_ms_per_op",
                 timed.cpu_ms / static_cast<double>(sequence.size()), "ms");
    result.layer("trace.coverage", served_s * 1e9 / summary.op_wall_ns,
                 "share");
    add_trace_overhead(result, latencies(timed), latencies(traced));
    write_spans(options, log_ptrs);
  }
  server.stop();
  std::filesystem::remove(archive_path);
  return result;
}

}  // namespace perfbench
