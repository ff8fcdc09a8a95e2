#include "parallel/detect.h"

#include <algorithm>
#include <limits>
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

namespace {

/// One backscatter packet as the partition pass hands it to its shard:
/// the arguments of BackscatterDetector::on_backscatter, in 24 bytes.
struct BackscatterRecord {
  double ts;
  telescope::BackscatterInfo info;
  net::Ipv4Addr dst;
  std::uint16_t ip_len;
};

constexpr std::size_t kInOrder = std::numeric_limits<std::size_t>::max();

/// Victim shards per thread when ParallelConfig::shards is 0. One victim
/// can carry a third of an hour's backscatter; with several shards per
/// thread for the work queue to hand out, the threads still finish close
/// together. The cap bounds the (chunk, shard) buckets at high thread
/// counts.
constexpr int kShardsPerThread = 8;
constexpr int kMaxDefaultShards = 256;

[[noreturn]] void throw_out_of_order(std::span<const net::PacketRecord> packets,
                                     std::size_t index) {
  telescope::throw_out_of_order(index, packets[index].timestamp(),
                                packets[index - 1].timestamp());
}

}  // namespace

std::vector<telescope::TelescopeEvent> ParallelBackscatterDetector::detect(
    std::span<const net::PacketRecord> packets) {
  const int shards =
      parallel_.shards > 0 ? parallel_.shards
      : parallel_.threads > 1
          ? std::min(parallel_.threads, kMaxDefaultShards / kShardsPerThread) *
                kShardsPerThread
          : 1;
  const auto num_shards = static_cast<std::size_t>(shards);
  std::vector<std::vector<telescope::TelescopeEvent>> per_shard(num_shards);
  std::vector<TelescopeDetectStats> shard_stats(num_shards);
  const auto run_detector = [&](std::size_t shard, auto&& feed) {
    telescope::BackscatterDetector detector(thresholds_, flow_timeout_s_);
    feed(detector);
    per_shard[shard] = detector.finish();
    shard_stats[shard] = {detector.packets_seen(),
                          detector.backscatter_packets(),
                          detector.flows_filtered(), detector.events_emitted()};
  };

  if (num_shards == 1) {
    // A lone shard scans the capture itself: partitioning would only copy.
    run_detector(0, [&](telescope::BackscatterDetector& detector) {
      double prev = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const net::PacketRecord& rec = packets[i];
        const double ts = rec.timestamp();
        if (ts < prev) throw_out_of_order(packets, i);
        prev = ts;
        if (!telescope::is_backscatter(rec)) {
          detector.skip_non_backscatter(1);
          continue;
        }
        detector.on_backscatter(ts, telescope::classify_backscatter(rec),
                                rec.ip_len, rec.dst);
      }
    });
  } else {
    // Partition pass: chunk c of the capture goes into buckets (c, 0) ..
    // (c, num_shards - 1), one per victim shard, in capture order. Each
    // chunk checks its own order and its first packet against the packet
    // before it, so the chunks together check the whole capture.
    const std::size_t chunks =
        static_cast<std::size_t>(std::max(parallel_.threads, 1));
    std::vector<std::vector<std::vector<BackscatterRecord>>> buckets(chunks);
    std::vector<std::uint64_t> non_backscatter(chunks, 0);
    std::vector<std::size_t> out_of_order(chunks, kInOrder);
    run_tasks(chunks, parallel_.threads, [&](std::size_t c) {
      const std::size_t begin = packets.size() * c / chunks;
      const std::size_t end = packets.size() * (c + 1) / chunks;
      double prev = begin > 0 ? packets[begin - 1].timestamp()
                              : -std::numeric_limits<double>::infinity();
      // Built locally and published once: tasks that wrote neighbouring
      // counters or bucket headers would share cache lines on every packet.
      std::vector<std::vector<BackscatterRecord>> own(num_shards);
      std::uint64_t skipped = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const net::PacketRecord& rec = packets[i];
        const double ts = rec.timestamp();
        if (ts < prev) {
          out_of_order[c] = i;
          return;
        }
        prev = ts;
        if (!telescope::is_backscatter(rec)) {
          ++skipped;
          continue;
        }
        const telescope::BackscatterInfo info =
            telescope::classify_backscatter(rec);
        own[shard_of(info.victim, num_shards)].push_back(
            {ts, info, rec.dst, rec.ip_len});
      }
      buckets[c] = std::move(own);
      non_backscatter[c] = skipped;
    });
    // The first violation in capture order, whichever task found it.
    const std::size_t first_bad =
        *std::min_element(out_of_order.begin(), out_of_order.end());
    if (first_bad != kInOrder) throw_out_of_order(packets, first_bad);

    // Shard s reads buckets (0, s) .. (chunks - 1, s): its victims' packets
    // in capture order. Shard 0 counts the packets no shard owns, so the
    // shards' counters sum to the sequential detector's.
    run_tasks(num_shards, parallel_.threads, [&](std::size_t shard) {
      run_detector(shard, [&](telescope::BackscatterDetector& detector) {
        for (std::size_t c = 0; c < chunks; ++c) {
          for (const BackscatterRecord& r : buckets[c][shard])
            detector.on_backscatter(r.ts, r.info, r.ip_len, r.dst);
          if (shard == 0) detector.skip_non_backscatter(non_backscatter[c]);
        }
      });
    });
  }

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
