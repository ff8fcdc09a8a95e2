#include "telescope/flow_table.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "obs/metrics.h"

namespace dosm::telescope {
namespace {

/// Telescope-layer metrics, registered once and cached for the hot path.
/// Counters are write-only observers: no detection decision ever reads them.
struct Metrics {
  obs::Counter& packets_seen;
  obs::Counter& backscatter_packets;
  obs::Counter& flows_opened;
  obs::Counter& flows_swept;
  obs::Counter& flows_flushed;
  obs::Counter& events_emitted;
  obs::Counter& reject_min_packets;
  obs::Counter& reject_min_duration;
  obs::Counter& reject_min_pps;

  static Metrics& get() {
    static Metrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return Metrics{
          reg.counter("telescope.packets_seen",
                      "Packets fed to the backscatter detector"),
          reg.counter("telescope.backscatter_packets",
                      "Packets classified as backscatter"),
          reg.counter("telescope.flows_opened",
                      "Per-victim flows opened in the flow table"),
          reg.counter("telescope.flows_swept",
                      "Flows closed by the inactivity timeout"),
          reg.counter("telescope.flows_flushed",
                      "Flows closed at end of trace"),
          reg.counter("telescope.events_emitted",
                      "Flows that passed all classification thresholds"),
          reg.counter("telescope.reject.min_packets",
                      "Flows rejected for too few backscatter packets"),
          reg.counter("telescope.reject.min_duration",
                      "Flows rejected for too short a duration"),
          reg.counter("telescope.reject.min_pps",
                      "Flows rejected for too low a peak packet rate"),
      };
    }();
    return metrics;
  }
};

}  // namespace

bool event_less(const TelescopeEvent& a, const TelescopeEvent& b) {
  return std::tie(a.start, a.victim) < std::tie(b.start, b.victim);
}

bool passes_thresholds(const TelescopeEvent& event,
                       const ClassifierThresholds& thresholds) {
  Metrics& metrics = Metrics::get();
  if (event.packets < thresholds.min_packets) {
    metrics.reject_min_packets.inc();
    return false;
  }
  if (event.duration() < thresholds.min_duration_s) {
    metrics.reject_min_duration.inc();
    return false;
  }
  // max_pps is per one-minute bucket; the threshold (0.5 pps at the
  // telescope = ~128 pps at the victim after the x256 correction) is
  // expressed in packets/sec.
  if (event.max_pps < thresholds.min_max_pps) {
    metrics.reject_min_pps.inc();
    return false;
  }
  metrics.events_emitted.inc();
  return true;
}

FlowTable::FlowTable(FlowCallback on_flow, double flow_timeout_s)
    : on_flow_(std::move(on_flow)), flow_timeout_s_(flow_timeout_s) {}

void FlowTable::add(double ts, const BackscatterInfo& info, std::uint16_t ip_len,
                    net::Ipv4Addr telescope_dst) {
  sweep(ts);
  Flow& flow = flows_[info.victim];
  // The victim's own gap ends its flow, whatever other traffic has (or has
  // not) triggered a sweep meanwhile.
  if (flow.packets != 0 && ts - flow.last_ts > flow_timeout_s_) {
    Metrics::get().flows_swept.inc();
    on_flow_(finalize(info.victim, flow));
    flow = Flow{};
  }
  if (flow.packets == 0) {
    flow.first_ts = ts;
    Metrics::get().flows_opened.inc();
  }
  flow.last_ts = std::max(flow.last_ts, ts);
  ++flow.packets;
  flow.bytes += ip_len;
  if (!flow.sources_saturated) {
    flow.sources.insert(telescope_dst.value());
    if (flow.sources.size() >= kMaxTrackedSources) flow.sources_saturated = true;
  }
  if (info.has_port) {
    // The cap bounds how many *distinct* ports we track; counts for ports
    // already tracked must keep incrementing past it or top_port skews
    // toward whichever ports appeared before saturation.
    const auto port_it = flow.ports.find(info.victim_port);
    if (port_it != flow.ports.end()) {
      ++port_it->second;
    } else if (flow.ports.size() < kMaxTrackedPorts) {
      flow.ports.emplace(info.victim_port, 1u);
    }
  }
  ++flow.proto_votes[info.attack_proto];

  const auto minute = static_cast<std::int64_t>(std::floor(ts / 60.0));
  if (minute != flow.current_minute) {
    flow.max_per_minute = std::max(flow.max_per_minute, flow.count_in_minute);
    flow.current_minute = minute;
    flow.count_in_minute = 0;
  }
  ++flow.count_in_minute;
}

void FlowTable::sweep(double now) {
  // Sweep at most once per 60 simulated seconds. add() splits a victim's
  // flow on its own gap, so the sweep decides only when an expired flow is
  // emitted and its memory reclaimed, never where a flow ends.
  if (now - last_sweep_ < 60.0) return;
  last_sweep_ = now;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_ts > flow_timeout_s_) {
      Metrics::get().flows_swept.inc();
      on_flow_(finalize(it->first, it->second));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
}

void FlowTable::flush() {
  Metrics::get().flows_flushed.add(flows_.size());
  for (const auto& [victim, flow] : flows_) on_flow_(finalize(victim, flow));
  flows_.clear();
}

TelescopeEvent FlowTable::finalize(net::Ipv4Addr victim, const Flow& flow) const {
  TelescopeEvent event;
  event.victim = victim;
  event.start = flow.first_ts;
  event.end = flow.last_ts;
  event.packets = flow.packets;
  event.bytes = flow.bytes;
  event.unique_sources = static_cast<std::uint32_t>(flow.sources.size());
  event.num_ports = static_cast<std::uint16_t>(flow.ports.size());
  // Hash-order iteration: break count ties toward the lowest port/proto so
  // the argmax is a total order and the winner never depends on bucket
  // layout.
  std::uint32_t best = 0;
  for (const auto& [port, count] : flow.ports) {
    if (count > best || (count == best && best > 0 && port < event.top_port)) {
      best = count;
      event.top_port = port;
    }
  }
  std::uint64_t best_votes = 0;
  for (const auto& [proto, votes] : flow.proto_votes) {
    if (votes > best_votes ||
        (votes == best_votes && best_votes > 0 && proto < event.attack_proto)) {
      best_votes = votes;
      event.attack_proto = proto;
    }
  }
  const std::uint64_t max_minute =
      std::max(flow.max_per_minute, flow.count_in_minute);
  event.max_pps = static_cast<double>(max_minute) / 60.0;
  return event;
}

BackscatterDetector::BackscatterDetector(ClassifierThresholds thresholds,
                                         double flow_timeout_s)
    : thresholds_(thresholds),
      flows_(
          [this](const TelescopeEvent& event) {
            if (passes_thresholds(event, thresholds_)) {
              ++events_emitted_;
              events_.push_back(event);
            } else {
              ++flows_filtered_;
            }
          },
          flow_timeout_s) {}

void BackscatterDetector::on_packet(const net::PacketRecord& rec) {
  // Per-packet tallies stay in plain members; the obs counters are folded
  // once at finish() so the hottest loop in the codebase never touches an
  // atomic (the striped-counter fast path still costs a TLS load + fetch_add,
  // which is real money at packet granularity).
  ++packets_seen_;
  if (!is_backscatter(rec)) return;
  ++backscatter_packets_;
  flows_.add(rec.timestamp(), classify_backscatter(rec), rec.ip_len, rec.dst);
}

std::vector<TelescopeEvent> BackscatterDetector::finish() {
  flows_.flush();
  Metrics& metrics = Metrics::get();
  metrics.packets_seen.add(packets_seen_);
  metrics.backscatter_packets.add(backscatter_packets_);
  std::sort(events_.begin(), events_.end(), event_less);
  return std::exchange(events_, {});
}

}  // namespace dosm::telescope
