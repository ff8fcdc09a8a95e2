#include "amppot/consolidator.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace dosm::amppot {

namespace {

struct Session {
  double start = 0.0;
  double end = 0.0;
  std::uint64_t requests = 0;
};

struct ConsolidatorMetrics {
  obs::Counter& sessions_opened;
  obs::Counter& sessions_split_gap;
  obs::Counter& sessions_split_cap;
  obs::Counter& sessions_below_threshold;
  obs::Counter& events_emitted;
  obs::Counter& merge_folds;

  static ConsolidatorMetrics& get() {
    static ConsolidatorMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ConsolidatorMetrics{
          reg.counter("amppot.sessions_opened",
                      "Attack sessions opened during log consolidation"),
          reg.counter("amppot.sessions_split_gap",
                      "Sessions closed by the inactivity gap timeout"),
          reg.counter("amppot.sessions_split_cap",
                      "Sessions closed by the maximum-duration cap"),
          reg.counter("amppot.sessions_below_threshold",
                      "Sessions dropped for too few requests"),
          reg.counter("amppot.events_emitted",
                      "Per-honeypot attack events emitted"),
          reg.counter("amppot.merge_folds",
                      "Overlapping events folded during fleet-wide merge"),
      };
    }();
    return metrics;
  }
};

}  // namespace

std::vector<AmpPotEvent> consolidate_log(std::span<const RequestRecord> log,
                                         const ConsolidatorConfig& config,
                                         std::int32_t honeypot_id) {
  std::vector<AmpPotEvent> events;
  // Keyed by (victim << 8) | protocol; logs are time-ordered so a linear
  // pass with open sessions suffices. The events are sorted at the end, so
  // the map's order never reaches the output.
  std::unordered_map<std::uint64_t, Session> open;

  ConsolidatorMetrics& metrics = ConsolidatorMetrics::get();
  auto close = [&](net::Ipv4Addr victim, ReflectionProtocol protocol,
                   const Session& s) {
    if (s.requests <= config.min_requests) {  // "exceeding 100 requests"
      metrics.sessions_below_threshold.inc();
      return;
    }
    metrics.events_emitted.inc();
    AmpPotEvent event;
    event.victim = victim;
    event.protocol = protocol;
    event.start = s.start;
    event.end = s.end;
    event.requests = s.requests;
    event.honeypots = 1;
    event.honeypot_id = honeypot_id;
    events.push_back(event);
  };

  for (const auto& req : log) {
    const std::uint64_t key =
        (std::uint64_t{req.source.value()} << 8) |
        static_cast<std::uint8_t>(req.protocol);
    auto it = open.find(key);
    if (it != open.end()) {
      Session& s = it->second;
      const bool gap = req.ts - s.end > config.gap_timeout_s;
      const bool capped = req.ts - s.start > config.max_duration_s;
      if (gap || capped) {
        if (gap)
          metrics.sessions_split_gap.inc();
        else
          metrics.sessions_split_cap.inc();
        close(req.source, req.protocol, s);
        s = Session{req.ts, req.ts, 1};
        metrics.sessions_opened.inc();
        continue;
      }
      s.end = req.ts;
      ++s.requests;
    } else {
      open.emplace(key, Session{req.ts, req.ts, 1});
      metrics.sessions_opened.inc();
    }
  }
  for (const auto& [key, s] : open) {
    close(net::Ipv4Addr(static_cast<std::uint32_t>(key >> 8)),
          static_cast<ReflectionProtocol>(key & 0xff), s);
  }
  std::sort(events.begin(), events.end(),
            [](const AmpPotEvent& a, const AmpPotEvent& b) {
              return std::tie(a.start, a.victim, a.protocol) <
                     std::tie(b.start, b.victim, b.protocol);
            });
  return events;
}

std::vector<AmpPotEvent> merge_fleet_events(std::vector<AmpPotEvent> events) {
  // Group by (victim, protocol), sort each group by start, merge overlaps.
  // The key is a total order (std::sort is unstable) so the merge result is
  // a pure function of the event *set*, independent of input order.
  std::sort(events.begin(), events.end(),
            [](const AmpPotEvent& a, const AmpPotEvent& b) {
              return std::tie(a.victim, a.protocol, a.start, a.end, a.requests,
                              a.honeypot_id) <
                     std::tie(b.victim, b.protocol, b.start, b.end, b.requests,
                              b.honeypot_id);
            });
  std::vector<AmpPotEvent> merged;
  // Distinct contributors of the group currently being merged into
  // merged.back(): known honeypot ids are deduped (one honeypot emitting
  // several overlapping sessions counts once); events with unknown identity
  // (honeypot_id < 0) conservatively keep their own counts.
  std::vector<std::int32_t> group_ids;
  std::uint32_t group_unknown = 0;
  for (const auto& event : events) {
    if (!merged.empty()) {
      AmpPotEvent& last = merged.back();
      if (last.victim == event.victim && last.protocol == event.protocol &&
          event.start <= last.end) {
        ConsolidatorMetrics::get().merge_folds.inc();
        last.end = std::max(last.end, event.end);
        last.requests += event.requests;
        if (event.honeypot_id >= 0) {
          if (std::find(group_ids.begin(), group_ids.end(),
                        event.honeypot_id) == group_ids.end())
            group_ids.push_back(event.honeypot_id);
        } else {
          group_unknown += event.honeypots;
        }
        last.honeypots =
            static_cast<std::uint32_t>(group_ids.size()) + group_unknown;
        if (last.honeypot_id != event.honeypot_id) last.honeypot_id = -1;
        continue;
      }
    }
    merged.push_back(event);
    group_ids.clear();
    group_unknown = 0;
    if (event.honeypot_id >= 0)
      group_ids.push_back(event.honeypot_id);
    else
      group_unknown = event.honeypots;
  }
  std::sort(merged.begin(), merged.end(),
            [](const AmpPotEvent& a, const AmpPotEvent& b) {
              return std::tie(a.start, a.victim, a.protocol) <
                     std::tie(b.start, b.victim, b.protocol);
            });
  return merged;
}

}  // namespace dosm::amppot
