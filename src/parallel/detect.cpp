#include "parallel/detect.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "parallel/merge.h"
#include "parallel/shard.h"
#include "parallel/work_queue.h"
#include "telescope/backscatter.h"

namespace dosm::parallel {
namespace {

obs::Histogram& merge_seconds() {
  static obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "parallel.merge_seconds", "Deterministic k-way merge time",
      obs::latency_buckets());
  return histogram;
}

}  // namespace

bool amppot_event_less(const amppot::AmpPotEvent& a,
                       const amppot::AmpPotEvent& b) {
  return std::tie(a.start, a.victim, a.protocol) <
         std::tie(b.start, b.victim, b.protocol);
}

void canonical_sort(std::vector<telescope::TelescopeEvent>& events) {
  std::sort(events.begin(), events.end(), telescope::event_less);
}

void canonical_sort(std::vector<amppot::AmpPotEvent>& events) {
  std::sort(events.begin(), events.end(), amppot_event_less);
}

ParallelBackscatterDetector::ParallelBackscatterDetector(
    ParallelConfig parallel, telescope::ClassifierThresholds thresholds,
    double flow_timeout_s)
    : parallel_(parallel),
      thresholds_(thresholds),
      flow_timeout_s_(flow_timeout_s) {}

std::vector<telescope::TelescopeEvent> ParallelBackscatterDetector::detect(
    std::span<const net::PacketRecord> packets) {
  const std::size_t num_shards = parallel_.effective_shards();
  std::vector<std::vector<telescope::TelescopeEvent>> per_shard(num_shards);
  std::vector<TelescopeDetectStats> shard_stats(num_shards);

  run_tasks(num_shards, parallel_.threads, [&](std::size_t shard) {
    auto& events = per_shard[shard];
    telescope::BackscatterDetector detector(
        [&](const telescope::TelescopeEvent& e) { events.push_back(e); },
        thresholds_, flow_timeout_s_);
    std::uint64_t non_backscatter = 0;
    for (const auto& rec : packets) {
      if (!telescope::is_backscatter(rec)) {
        ++non_backscatter;
      } else if (num_shards == 1 ||
                 shard_of(telescope::classify_backscatter(rec).victim,
                          num_shards) == shard) {
        detector.on_packet(rec);
      }
    }
    // Shard 0 counts the packets no shard owns, so the shards' counters sum
    // to the sequential detector's.
    if (shard == 0) detector.skip_non_backscatter(non_backscatter);
    detector.finish();
    std::sort(events.begin(), events.end(), telescope::event_less);
    shard_stats[shard] = {detector.packets_seen(),
                          detector.backscatter_packets(),
                          detector.flows_filtered(), detector.events_emitted()};
  });

  stats_ = TelescopeDetectStats{};
  for (const auto& s : shard_stats) {
    stats_.packets_seen += s.packets_seen;
    stats_.backscatter_packets += s.backscatter_packets;
    stats_.flows_filtered += s.flows_filtered;
    stats_.events_emitted += s.events_emitted;
  }
  const obs::ScopedTimer merge_timer(merge_seconds());
  return kway_merge(std::move(per_shard), telescope::event_less);
}

std::vector<amppot::AmpPotEvent> parallel_consolidate(
    std::span<const HoneypotLog> logs, const amppot::ConsolidatorConfig& config,
    const ParallelConfig& parallel) {
  // HoneypotFleet::harvest with its per-log stage run as tasks.
  std::vector<std::vector<amppot::AmpPotEvent>> per_log(logs.size());
  run_tasks(logs.size(), parallel.threads, [&](std::size_t i) {
    per_log[i] =
        amppot::consolidate_log(logs[i].requests, config, logs[i].honeypot_id);
  });
  std::vector<amppot::AmpPotEvent> stage1;
  for (const auto& events : per_log)
    stage1.insert(stage1.end(), events.begin(), events.end());
  return amppot::merge_fleet_events(std::move(stage1));
}

std::vector<amppot::AmpPotEvent> parallel_harvest(
    amppot::HoneypotFleet& fleet, const amppot::ConsolidatorConfig& config,
    const ParallelConfig& parallel) {
  std::vector<HoneypotLog> logs;
  logs.reserve(fleet.size());
  for (const auto& honeypot : fleet.honeypots())
    logs.push_back({honeypot.id(), honeypot.log()});
  auto events = parallel_consolidate(logs, config, parallel);
  fleet.clear_logs();
  return events;
}

}  // namespace dosm::parallel
