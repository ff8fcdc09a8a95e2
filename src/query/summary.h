// The paper's Table-1 rollup as a composition of Snapshot aggregations.
//
// A Table-1 row (events, unique targets, /24s, /16s, origin ASNs) is built
// only from aggregations the query property suite checks against
// ScanOracle: count, unique_targets, the distinct /24s and /16s of
// top_targets(q, all), and top_asns(q, all).size(). Figure 1's per-day
// panels are the same row per window day, so the benches, the CLI report
// and /query all count through one executor.
#pragma once

#include <cstdint>
#include <vector>

#include "query/snapshot.h"

namespace dosm::query {

/// Table-1 row.
struct DatasetSummary {
  std::uint64_t events = 0;
  std::uint64_t unique_targets = 0;
  std::uint64_t unique_slash24 = 0;
  std::uint64_t unique_slash16 = 0;
  std::uint64_t unique_asns = 0;  // announced space only (no kUnknownAsn)
};

/// Table-1 row over the events the query matches.
DatasetSummary summarize(const Snapshot& snapshot, const Query& query);

/// Figure-1 panel: one row per window day, each the query narrowed to that
/// day (its own time filter is replaced). An event counts toward the day
/// its start falls on (§5 fn. 15); events starting outside the window count
/// toward no day.
std::vector<DatasetSummary> summarize_daily(const Snapshot& snapshot,
                                            Query query);

}  // namespace dosm::query
