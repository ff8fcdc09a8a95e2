// Naive linear-scan query execution over raw AttackEvent rows.
//
// This is both the correctness oracle for the indexed Snapshot (the
// property tests compare every aggregation pairwise) and the baseline the
// query bench measures speedups against. It deliberately shares no code
// with the columnar path: each aggregation walks the full event span,
// re-deriving ASN and country per event with live metadata lookups, the
// way the batch analyses in core/ do today.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "query/query.h"

namespace dosm::query {

class ScanOracle {
 public:
  /// Borrows everything; callers keep events and metadata alive.
  ScanOracle(std::span<const core::AttackEvent> events, StudyWindow window,
             const meta::PrefixToAsMap& pfx2as, const meta::GeoDatabase& geo);

  bool matches(const Query& query, const core::AttackEvent& event) const;

  std::uint64_t count(const Query& query) const;
  std::uint64_t unique_targets(const Query& query) const;
  /// Attacks per window day (events starting outside the window are
  /// dropped; an event counts toward the day its start falls on).
  DailySeries daily_attacks(const Query& query) const;
  std::vector<TargetCount> top_targets(const Query& query, std::size_t k) const;
  std::vector<AsnCount> top_asns(const Query& query, std::size_t k) const;
  /// Full Table-4-style ranking: unique targets per country, descending,
  /// with shares of the matching target population.
  std::vector<core::CountryCount> country_ranking(const Query& query) const;
  std::vector<core::CountryCount> top_countries(const Query& query,
                                                std::size_t k) const;

 private:
  std::span<const core::AttackEvent> events_;
  StudyWindow window_;
  const meta::PrefixToAsMap* pfx2as_;
  const meta::GeoDatabase* geo_;
};

}  // namespace dosm::query
