#include "parallel/detect.h"

#include <algorithm>
#include <utility>

#include "parallel/shard.h"
#include "parallel/work_queue.h"
#include "telescope/backscatter.h"

namespace dosm::parallel {

ParallelBackscatterDetector::ParallelBackscatterDetector(
    ParallelConfig parallel, telescope::ClassifierThresholds thresholds,
    double flow_timeout_s)
    : parallel_(parallel),
      thresholds_(thresholds),
      flow_timeout_s_(flow_timeout_s) {}

std::vector<telescope::TelescopeEvent> ParallelBackscatterDetector::detect(
    std::span<const net::PacketRecord> packets) {
  const int shards = parallel_.shards > 0 ? parallel_.shards : parallel_.threads;
  const auto num_shards = static_cast<std::size_t>(std::max(shards, 1));
  std::vector<std::vector<telescope::TelescopeEvent>> per_shard(num_shards);
  std::vector<TelescopeDetectStats> shard_stats(num_shards);

  run_tasks(num_shards, parallel_.threads, [&](std::size_t shard) {
    telescope::BackscatterDetector detector(thresholds_, flow_timeout_s_);
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
    per_shard[shard] = detector.finish();
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
  std::vector<telescope::TelescopeEvent> events;
  events.reserve(stats_.events_emitted);
  for (const auto& shard_events : per_shard)
    events.insert(events.end(), shard_events.begin(), shard_events.end());
  std::sort(events.begin(), events.end(), telescope::event_less);
  return events;
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
