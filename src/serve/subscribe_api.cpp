#include "serve/subscribe_api.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "serve/api.h"
#include "serve/router.h"
#include "subscribe/dispatcher.h"

namespace dosm::serve {
namespace {

constexpr std::string_view kJson = "application/json";
constexpr int kMaxWaitMs = 10000;

ApiCall parse_subscribe(const HttpRequest& request, const RequestContext&) {
  Params params;
  if (std::string error = collect_params(request, params); !error.empty())
    return bad_request(std::move(error));
  return parse_predicate_params(params);
}

ApiCall parse_unsubscribe(const HttpRequest& request, const RequestContext&) {
  ApiCall call;
  Params params;
  if (std::string error = collect_params(request, params); !error.empty())
    return bad_request(std::move(error));
  bool have_id = false;
  for (const auto& [key, value] : params) {
    if (key != "id") return bad_request("unknown parameter: " + key);
    if (!parse_u64(value, call.id) || call.id == 0)
      return bad_request("malformed id");
    have_id = true;
  }
  if (!have_id) return bad_request("missing parameter: id");
  return call;
}

ApiCall parse_watch(const HttpRequest& request, const RequestContext&) {
  ApiCall call;
  Params params;
  if (std::string error = collect_params(request, params); !error.empty())
    return bad_request(std::move(error));
  bool have_id = false;
  for (const auto& [key, value] : params) {
    if (key == "id") {
      if (!parse_u64(value, call.id) || call.id == 0)
        return bad_request("malformed id");
      have_id = true;
    } else if (key == "cursor") {
      if (!parse_u64(value, call.cursor)) return bad_request("malformed cursor");
    } else if (key == "max") {
      std::uint64_t max_items = 0;
      if (!parse_u64(value, max_items)) return bad_request("malformed max");
      call.max_items = static_cast<std::size_t>(max_items);
    } else if (key == "wait_ms") {
      std::uint64_t wait = 0;
      if (!parse_u64(value, wait)) return bad_request("malformed wait_ms");
      call.wait_ms = static_cast<int>(
          wait > static_cast<std::uint64_t>(kMaxWaitMs) ? kMaxWaitMs : wait);
    } else {
      return bad_request("unknown parameter: " + key);
    }
  }
  if (!have_id) return bad_request("missing parameter: id");
  return call;
}

void render_notification(JsonWriter& w,
                         const subscribe::Notification& notification) {
  const core::Alert& alert = notification.alert;
  w.begin_object()
      .key("seq")
      .value(notification.seq)
      .key("kind")
      .value(core::to_string(alert.kind))
      .key("coalesced")
      .value(static_cast<std::uint64_t>(notification.coalesced))
      .key("day")
      .value(static_cast<std::int64_t>(alert.day));
  if (alert.has_event) {
    const core::AttackEvent& event = alert.event;
    w.key("target")
        .value(event.target.to_string())
        .key("start")
        .value(event.start)
        .key("end")
        .value(event.end)
        .key("intensity")
        .value(event.intensity)
        .key("proto")
        .value(static_cast<std::uint64_t>(event.ip_proto))
        .key("port")
        .value(static_cast<std::uint64_t>(event.top_port))
        .key("asn")
        .value(static_cast<std::uint64_t>(alert.asn));
    if (alert.country.is_set()) w.key("country").value(alert.country.to_string());
  } else {
    w.key("value").value(alert.value).key("baseline").value(alert.baseline);
  }
  w.end_object();
}

ApiResponse exec_subscribe(const ApiCall& call, const RequestContext& ctx) {
  if (ctx.dispatcher == nullptr)
    return error_response(503, "subscriptions disabled");
  const subscribe::SubscriptionId id = ctx.dispatcher->subscribe(call.predicate);
  JsonWriter w;
  w.begin_object()
      .key("subscription")
      .value(static_cast<std::uint64_t>(id))
      .key("cursor")
      .value(std::uint64_t{0})
      .key("predicate")
      .value(call.predicate.to_string())
      .end_object();
  return ApiResponse{200, std::string(kJson), std::move(w).take()};
}

ApiResponse exec_unsubscribe(const ApiCall& call, const RequestContext& ctx) {
  if (ctx.dispatcher == nullptr)
    return error_response(503, "subscriptions disabled");
  if (!ctx.dispatcher->unsubscribe(call.id))
    return error_response(404, "no such subscription");
  JsonWriter w;
  w.begin_object()
      .key("removed")
      .value(true)
      .key("subscription")
      .value(call.id)
      .end_object();
  return ApiResponse{200, std::string(kJson), std::move(w).take()};
}

ApiResponse exec_watch(const ApiCall& call, const RequestContext& ctx) {
  if (ctx.dispatcher == nullptr)
    return error_response(503, "subscriptions disabled");
  const std::optional<subscribe::FetchResult> result =
      ctx.dispatcher->fetch(call.id, call.cursor, call.max_items, call.wait_ms);
  if (!result) return error_response(404, "no such subscription");
  JsonWriter w;
  w.begin_object()
      .key("subscription")
      .value(call.id)
      .key("cursor")
      .value(call.cursor)
      .key("next_cursor")
      .value(result->next_cursor)
      .key("dropped")
      .value(result->dropped)
      .key("pending")
      .value(result->pending)
      .key("notifications")
      .begin_array();
  for (const subscribe::Notification& notification : result->notifications)
    render_notification(w, notification);
  w.end_array().end_object();
  return ApiResponse{200, std::string(kJson), std::move(w).take()};
}

}  // namespace

ApiCall parse_predicate_params(const Params& params) {
  ApiCall call;
  for (const auto& [key, value] : params) {
    try {
      if (key == "prefix") {
        call.predicate.match_prefix(net::Prefix::parse(value));
      } else if (key == "asn") {
        std::uint64_t asn = 0;
        if (!parse_u64(value, asn) || asn > 0xffffffffull)
          return bad_request("malformed asn");
        call.predicate.match_asn(static_cast<meta::Asn>(asn));
      } else if (key == "country") {
        call.predicate.match_country(meta::CountryCode(value));
      } else if (key == "proto") {
        std::uint64_t proto = 0;
        if (!parse_u64(value, proto) || proto > 0xff)
          return bad_request("malformed proto");
        call.predicate.match_proto(static_cast<std::uint8_t>(proto));
      } else if (key == "kind") {
        const auto kind = core::parse_alert_kind(value);
        if (!kind) return bad_request("unknown kind: " + value);
        call.predicate.match_kind(*kind);
      } else {
        return bad_request("unknown parameter: " + key);
      }
    } catch (const std::invalid_argument& e) {
      return bad_request(std::string("malformed ") + key + ": " + e.what());
    }
  }
  return call;
}

void install_subscribe_routes(Router& router) {
  router.add("POST", "/subscribe", parse_subscribe, exec_subscribe);
  router.add("DELETE", "/subscribe", parse_unsubscribe, exec_unsubscribe);
  router.add("GET", "/watch", parse_watch, exec_watch);
}

}  // namespace dosm::serve
