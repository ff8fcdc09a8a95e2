// Parallel front ends for the two detection pipelines. Each runs the
// sequential code per task, so its output cannot disagree with it.
//
//  * Telescope: all flow state is keyed by victim, and a flow ends on its
//    victim's own gap (FlowTable::add). The victims are split by hash into
//    shards. One partition pass, run as one task per thread over a
//    contiguous chunk of the capture each, classifies every packet once
//    and copies each backscatter packet into a (chunk, shard) bucket. Each
//    shard task then runs a plain BackscatterDetector over its buckets in
//    chunk order, i.e. over its own victims' backscatter in capture order.
//    A lone shard skips the partition and scans the capture directly. The
//    shards' events are concatenated and sorted once on the key (start,
//    victim), which is unique across a capture, so the order does not
//    depend on the shard count.
//
//  * AmpPot: consolidate_log already works per honeypot, so each log is one
//    task, and one merge_fleet_events call over the concatenated stage-1
//    events finishes the job, exactly as HoneypotFleet::harvest does.
//
// The determinism invariant (tested in parallel_test, enforced in CI): for
// any thread and shard count, the output is byte-identical to the
// sequential detectors' output in canonical order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amppot/consolidator.h"
#include "amppot/fleet.h"
#include "net/headers.h"
#include "telescope/flow_table.h"

namespace dosm::parallel {

/// Execution knobs shared by the parallel detectors. The output is
/// byte-identical for every (threads, shards) combination.
struct ParallelConfig {
  /// Worker threads; <= 1 runs every shard inline on the caller.
  int threads = 1;
  /// Victim-hash shards of the telescope detector (work-queue tasks); 0,
  /// the value every production caller uses, means one shard at one
  /// thread and eight per thread (at most 256) otherwise, so that a heavy
  /// victim's shard does not hold up one thread while the others idle.
  /// Each shard reads only its own victims' backscatter, from the
  /// partition pass's buckets. The field exists so the tests can pin
  /// shard-count independence (13 shards over 3 threads) and so callers
  /// can brace-initialise {threads, 0}. AmpPot consolidation always runs
  /// one task per honeypot log.
  int shards = 0;
};

/// Aggregated counters matching BackscatterDetector's accessors.
struct TelescopeDetectStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t backscatter_packets = 0;
  std::uint64_t flows_filtered = 0;
  std::uint64_t events_emitted = 0;
};

/// Sharded, work-queue-driven equivalent of BackscatterDetector over an
/// in-memory capture. Stateless between calls: each detect() processes one
/// complete capture.
class ParallelBackscatterDetector {
 public:
  explicit ParallelBackscatterDetector(
      ParallelConfig parallel = {},
      telescope::ClassifierThresholds thresholds = {},
      double flow_timeout_s = 300.0);

  /// Detects attack events in `packets`; returns them in canonical
  /// (start, victim) order, byte-identical to the sequential detector for
  /// any thread/shard count.
  ///
  /// FlowTable needs non-decreasing timestamps, so a capture that steps
  /// back in time is rejected rather than repaired: detect() throws
  /// std::invalid_argument naming the first packet stamped before its
  /// predecessor, whatever the thread and shard count, and stats() keeps
  /// the previous call's counters. With more than one shard the check
  /// runs before any flow is opened; a lone shard checks as it goes, so
  /// the global telescope.flows_* counters may already count the flows it
  /// opened before that packet.
  std::vector<telescope::TelescopeEvent> detect(
      std::span<const net::PacketRecord> packets);

  /// Counters for the most recent detect() call. Each call also adds them
  /// to the global telescope.* counters, as BackscatterDetector::finish
  /// does.
  const TelescopeDetectStats& stats() const { return stats_; }

 private:
  ParallelConfig parallel_;
  telescope::ClassifierThresholds thresholds_;
  double flow_timeout_s_;
  TelescopeDetectStats stats_;
};

/// One honeypot's time-ordered request log plus the honeypot's identity
/// (carried through to events for distinct-honeypot accounting).
struct HoneypotLog {
  std::int32_t honeypot_id = -1;
  std::span<const amppot::RequestRecord> requests;
};

/// Per-honeypot consolidate_log, one task per log, then one fleet-level
/// merge_fleet_events over all of them. Returns fleet-level events in
/// canonical (start, victim, protocol) order, byte-identical to
/// HoneypotFleet::harvest for any thread count (`shards` is not used).
std::vector<amppot::AmpPotEvent> parallel_consolidate(
    std::span<const HoneypotLog> logs,
    const amppot::ConsolidatorConfig& config = {},
    const ParallelConfig& parallel = {});

/// Drop-in parallel HoneypotFleet::harvest: consolidates every honeypot's
/// log with parallel_consolidate and clears the logs.
std::vector<amppot::AmpPotEvent> parallel_harvest(
    amppot::HoneypotFleet& fleet,
    const amppot::ConsolidatorConfig& config = {},
    const ParallelConfig& parallel = {});

}  // namespace dosm::parallel
