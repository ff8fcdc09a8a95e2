// The JSON query API: URL/body → ApiCall mapping and deterministic
// execution over a Snapshot.
//
// Endpoints (registered on the Router by install_api_routes /
// install_subscribe_routes / the server's own /metrics entry):
//
//   GET  /            JSON index of endpoints
//   GET  /healthz     {"status":"ok","snapshot_version":N,"events":M}
//   GET  /metrics     Prometheus text of the process-wide obs registry
//   GET  /query       the query API (also POST with a form/query-string
//                     body). Parameters (all optional, ANDed):
//                       from=YYYY-MM-DD  to=YYYY-MM-DD   day-granular window
//                       t0=UNIX  t1=UNIX                 second-granular
//                       source=telescope|honeypot|combined
//                       prefix=A.B.C.D/L   asn=N   country=CC   port=N
//                       min_intensity=X
//                       agg=summary|daily|top-targets|top-asns|top-countries
//                           |events (default summary)
//                       k=N (top-k / listing rows, default 10, capped)
//                       explain=1 (include the planner's access path)
//   POST   /subscribe   register a predicate          (serve/subscribe_api.h)
//   DELETE /subscribe   remove a subscription by id
//   GET    /watch       cursor-keyed long-poll delta fetch
//
// A parameter key given more than once is a 400 ("duplicate parameter:
// <key>") — accepting last-wins would let two DIFFERENT request strings
// canonicalize identically and alias one cache entry.
//
// Parsing is split from execution so the server can consult the result
// cache in between: the route's parse fn produces the canonical request
// (the cache key material), its exec fn produces the response body. Both
// are pure functions of their inputs — the determinism contract
// (byte-identical responses for the same query + snapshot version, any
// worker count, cache on or off) falls out of that purity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "query/budget.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "serve/http.h"
#include "subscribe/subscription.h"

namespace dosm::subscribe {
class Dispatcher;
}  // namespace dosm::subscribe

namespace dosm::serve {

class Router;

/// Everything a route's parse/exec may depend on beyond the request
/// itself; assembled per request by the server. Snapshot may be null
/// before the first publish.
struct RequestContext {
  std::shared_ptr<const query::Snapshot> snapshot;
  StudyWindow window{};            // snapshot's window, or defaults
  query::ExecBudget budget{};      // per-query budgets from ServerConfig
  subscribe::Dispatcher* dispatcher = nullptr;  // null = no subscriptions
};

/// The parsed form of one request — the route's parse output and exec
/// input. Query routes fill the query/agg/k/explain/canonical fields;
/// subscription routes fill predicate/id/cursor/max_items/wait_ms.
struct ApiCall {
  query::Query query;
  std::string agg = "summary";
  std::size_t k = 10;
  bool explain = false;

  subscribe::Predicate predicate;
  std::uint64_t id = 0;
  std::uint64_t cursor = 0;
  std::size_t max_items = 100;
  int wait_ms = 0;

  std::string error;      // non-empty -> the router answers 400 with it
  std::string canonical;  // cache-key material; empty on uncacheable calls
};

struct ApiResponse {
  int status = 200;
  std::string content_type;
  std::string body;
};

/// Maximum rows a top-k / events listing may request.
inline constexpr std::size_t kMaxK = 100000;

/// Decoded request parameters, in request order.
using Params = std::vector<std::pair<std::string, std::string>>;

/// Collects a request's URL parameters plus, on POST, its form body, and
/// rejects a key given twice. Returns the error message, or empty.
std::string collect_params(const HttpRequest& request, Params& params);

/// Full-match decimal parse of a parameter value.
bool parse_u64(const std::string& s, std::uint64_t& out);

/// A call that carries only an error (the router answers 400 with it).
ApiCall bad_request(std::string error);

/// Maps /query parameters onto a call — the one grammar behind both the
/// HTTP route and the `dosmeter query` flags. Time filters resolve against
/// `window`, so the canonical form is fully resolved before caching. A key
/// given twice applies last-wins (collect_params rejects it for HTTP).
/// Never throws; errors land in ApiCall::error.
ApiCall parse_query_params(const Params& params, const StudyWindow& window);

/// Parses a /query request: collect_params, then parse_query_params.
ApiCall parse_query_request(const HttpRequest& request,
                            const StudyWindow& window);

/// Executes a parsed /query call against a snapshot. BudgetExceeded maps to
/// a deterministic 422 error body; anything else to 500. Never throws.
ApiResponse execute_query(const query::Snapshot& snapshot, const ApiCall& call,
                          const query::ExecBudget& budget);

/// Non-query endpoints (root/health). `snapshot` may be null (health then
/// reports "no snapshot" with a 503).
ApiResponse execute_root();
ApiResponse execute_health(const query::Snapshot* snapshot);

/// Renders a JSON error body: {"error":"..."}.
ApiResponse error_response(int status, std::string_view message);

/// Registers /, /healthz, and /query (GET + POST, cacheable).
void install_api_routes(Router& router);

}  // namespace dosm::serve
