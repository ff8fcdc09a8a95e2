#include "telescope/flow_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "common/sanitize.h"
#include "common/strings.h"
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

/// Fibonacci hashing onto 2^(32 - shift) slots: the top bits of the
/// product mix every bit of the value.
DOSM_ALLOW_UNSIGNED_WRAP std::size_t slot_of(std::uint32_t value, int shift) {
  return (value * 0x9e3779b1U) >> shift;
}

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
    : on_flow_(std::move(on_flow)), flow_timeout_s_(flow_timeout_s) {
  reindex();
}

void FlowTable::add(double ts, const BackscatterInfo& info, std::uint16_t ip_len,
                    net::Ipv4Addr telescope_dst) {
  sweep(ts);
  Flow& flow = flow_of(info.victim);
  // The victim's own gap ends its flow, whatever other traffic has (or has
  // not) triggered a sweep meanwhile.
  if (flow.packets != 0 && ts - flow.last_ts > flow_timeout_s_) {
    Metrics::get().flows_swept.inc();
    on_flow_(finalize(flow));
    flow = Flow(info.victim);
  }
  if (flow.packets == 0) {
    flow.first_ts = ts;
    Metrics::get().flows_opened.inc();
  }
  flow.last_ts = std::max(flow.last_ts, ts);
  ++flow.packets;
  flow.bytes += ip_len;
  if (flow.sources.size() < kMaxTrackedSources)
    flow.sources.insert(telescope_dst.value());
  if (info.has_port) {
    // The cap bounds how many *distinct* ports we track; counts for ports
    // already tracked must keep incrementing past it or top_port skews
    // toward whichever ports appeared before saturation.
    const auto port_it = std::find_if(
        flow.ports.begin(), flow.ports.end(),
        [&](const PortCount& p) { return p.port == info.victim_port; });
    if (port_it != flow.ports.end()) {
      ++port_it->count;
    } else if (flow.ports.size() < kMaxTrackedPorts) {
      flow.ports.push_back({info.victim_port, 1u});
    }
  }
  const auto vote_it = std::find_if(
      flow.proto_votes.begin(), flow.proto_votes.end(),
      [&](const ProtoVotes& v) { return v.proto == info.attack_proto; });
  if (vote_it != flow.proto_votes.end()) {
    ++vote_it->votes;
  } else {
    flow.proto_votes.push_back({info.attack_proto, 1u});
  }

  // floor(q) == minute exactly when minute <= q < minute + 1, so a packet
  // in the current minute costs no floor() call.
  const double q = ts / 60.0;
  if (!(q >= flow.minute && q < flow.minute + 1.0)) {
    flow.max_per_minute = std::max(flow.max_per_minute, flow.count_in_minute);
    flow.minute = std::floor(q);
    flow.count_in_minute = 0;
  }
  ++flow.count_in_minute;
}

FlowTable::Flow& FlowTable::flow_of(net::Ipv4Addr victim) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slot_of(victim.value(), index_shift_);
  for (; index_[i] != 0; i = (i + 1) & mask) {
    Flow& flow = flows_[index_[i] - 1];
    if (flow.victim == victim) return flow;
  }
  flows_.emplace_back(victim);
  if (2 * flows_.size() > index_.size())
    reindex();
  else
    index_[i] = static_cast<std::uint32_t>(flows_.size());
  return flows_.back();
}

void FlowTable::reindex() {
  std::size_t slots = 16;
  while (slots < 2 * flows_.size()) slots *= 2;
  index_.assign(slots, 0);
  index_shift_ = 32 - std::countr_zero(slots);
  for (std::size_t pos = 0; pos < flows_.size(); ++pos) {
    std::size_t i = slot_of(flows_[pos].victim.value(), index_shift_);
    while (index_[i] != 0) i = (i + 1) & (slots - 1);
    index_[i] = static_cast<std::uint32_t>(pos + 1);
  }
}

void FlowTable::SourceSet::insert(std::uint32_t value) {
  if (value == 0) {
    size_ += has_zero_ ? 0 : 1;
    has_zero_ = true;
    return;
  }
  // Keep at most half the slots full, so probe runs stay short.
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(value, shift_);; i = (i + 1) & mask) {
    if (slots_[i] == value) return;
    if (slots_[i] == 0) {
      slots_[i] = value;
      ++size_;
      return;
    }
  }
}

void FlowTable::SourceSet::grow() {
  // 16 -> 128 -> 1024 -> 8192 slots: few rehashes, and the last size holds
  // kMaxTrackedSources at half load.
  std::vector<std::uint32_t> old(std::max<std::size_t>(16, 8 * slots_.size()));
  old.swap(slots_);
  shift_ = 32 - std::countr_zero(slots_.size());
  size_ = has_zero_ ? 1 : 0;
  for (const std::uint32_t value : old)
    if (value != 0) insert(value);
}

void FlowTable::sweep(double now) {
  // Sweep at most once per 60 simulated seconds. add() splits a victim's
  // flow on its own gap, so the sweep decides only when an expired flow is
  // emitted and its memory reclaimed, never where a flow ends.
  if (now - last_sweep_ < 60.0) return;
  last_sweep_ = now;
  std::size_t kept = 0;
  for (std::size_t pos = 0; pos < flows_.size(); ++pos) {
    if (now - flows_[pos].last_ts > flow_timeout_s_) {
      Metrics::get().flows_swept.inc();
      on_flow_(finalize(flows_[pos]));
    } else {
      if (kept != pos) flows_[kept] = std::move(flows_[pos]);
      ++kept;
    }
  }
  if (kept == flows_.size()) return;
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
               flows_.end());
  reindex();
}

void FlowTable::flush() {
  Metrics::get().flows_flushed.add(flows_.size());
  for (const Flow& flow : flows_) on_flow_(finalize(flow));
  flows_.clear();
  reindex();
}

TelescopeEvent FlowTable::finalize(const Flow& flow) const {
  TelescopeEvent event;
  event.victim = flow.victim;
  event.start = flow.first_ts;
  event.end = flow.last_ts;
  event.packets = flow.packets;
  event.bytes = flow.bytes;
  event.unique_sources = static_cast<std::uint32_t>(flow.sources.size());
  event.num_ports = static_cast<std::uint16_t>(flow.ports.size());
  // Break count ties toward the lowest port/proto so the argmax is a total
  // order and the winner never depends on first-seen order.
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
  // packets_seen_ is this packet's index in the capture fed so far.
  const double ts = rec.timestamp();
  if (ts < last_packet_ts_)
    throw_out_of_order(packets_seen_, ts, last_packet_ts_);
  last_packet_ts_ = ts;
  // Per-packet tallies stay in plain members; the obs counters are folded
  // once at finish() so the hottest loop in the codebase never touches an
  // atomic (the striped-counter fast path still costs a TLS load + fetch_add,
  // which is real money at packet granularity).
  if (!is_backscatter(rec)) {
    ++packets_seen_;
    return;
  }
  on_backscatter(ts, classify_backscatter(rec), rec.ip_len, rec.dst);
}

std::vector<TelescopeEvent> BackscatterDetector::finish() {
  flows_.flush();
  Metrics& metrics = Metrics::get();
  metrics.packets_seen.add(packets_seen_);
  metrics.backscatter_packets.add(backscatter_packets_);
  std::sort(events_.begin(), events_.end(), event_less);
  return std::exchange(events_, {});
}

void throw_out_of_order(std::uint64_t index, double ts, double previous_ts) {
  throw std::invalid_argument(
      "packet " + std::to_string(index) + " is stamped " + fixed(ts, 6) +
      " s, before packet " + std::to_string(index - 1) + " at " +
      fixed(previous_ts, 6) +
      " s; a capture must be in non-decreasing time order");
}

}  // namespace dosm::telescope
