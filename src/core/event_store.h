// The EventStore: the fused attack-event dataset with the rollups the
// paper's tables and figures are computed from.
//
// Holds all events from both sources over a study window, indexed by target
// and by day. Provides Table-1 summaries (events / unique targets / /24s /
// /16s / ASNs), Figure-1/5 daily series, Table-4 country rankings,
// Table-5/6/7/8 distributions, and the per-source intensity normalization
// used by Table 9 and Figure 10.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "core/event.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"

namespace dosm::core {

/// Which events an aggregate covers.
enum class SourceFilter : std::uint8_t { kTelescope, kHoneypot, kCombined };

bool matches(SourceFilter filter, EventSource source);
std::string to_string(SourceFilter filter);

/// Table-1 row.
struct DatasetSummary {
  std::uint64_t events = 0;
  std::uint64_t unique_targets = 0;
  std::uint64_t unique_slash24 = 0;
  std::uint64_t unique_slash16 = 0;
  std::uint64_t unique_asns = 0;
};

/// Figure-1 panel: per-day counts.
struct DailyBreakdown {
  DailySeries attacks;
  DailySeries unique_targets;
  DailySeries targeted_slash16;
  DailySeries targeted_asns;

  explicit DailyBreakdown(int num_days)
      : attacks(num_days),
        unique_targets(num_days),
        targeted_slash16(num_days),
        targeted_asns(num_days) {}
};

/// Table-4 row.
struct CountryCount {
  meta::CountryCode country;
  std::uint64_t targets = 0;
  double share = 0.0;
};

class EventStore {
 public:
  explicit EventStore(StudyWindow window = {});

  void add(AttackEvent event);
  void add_telescope(std::span<const telescope::TelescopeEvent> events);
  void add_amppot(std::span<const amppot::AmpPotEvent> events);

  /// Sorts events and builds the per-target index; call after loading.
  /// Also computes the per-source intensity maxima used for normalization.
  void finalize();

  const StudyWindow& window() const { return window_; }
  std::span<const AttackEvent> events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Indices of this target's events, time-ordered (requires finalize()).
  std::span<const std::uint32_t> events_for(net::Ipv4Addr target) const;

  /// All distinct targets (requires finalize()).
  std::vector<net::Ipv4Addr> targets(SourceFilter filter) const;

  /// Table 1 row for a source selection.
  DatasetSummary summarize(SourceFilter filter,
                           const meta::PrefixToAsMap& pfx2as) const;

  /// Figure 1 / Figure 5 daily series. An event counts toward the day its
  /// start falls on (the paper's convention for multi-day attacks, §5 fn.
  /// 15). With `medium_or_higher_only`, only events whose raw intensity
  /// reaches their source dataset's mean count (the Figure-5 selection).
  DailyBreakdown daily_breakdown(SourceFilter filter,
                                 const meta::PrefixToAsMap& pfx2as,
                                 bool medium_or_higher_only = false) const;

  /// Table 4: unique targets per country, descending, with shares.
  std::vector<CountryCount> country_ranking(SourceFilter filter,
                                            const meta::GeoDatabase& geo) const;

  /// Normalized intensity of an event: linear min-max within its source
  /// dataset, in [0, 1] (requires finalize()). The paper normalizes per
  /// dataset because telescope pps and honeypot rps are incomparable.
  double normalized_intensity(const AttackEvent& event) const;

  /// An event is "medium intensity or higher" when its raw intensity is at
  /// least the mean of all intensities in its source dataset (§4, Fig. 5).
  bool is_medium_or_higher(const AttackEvent& event) const;

  /// Raw-intensity distribution of a source (Figures 3 and 4).
  EmpiricalDistribution intensity_distribution(SourceFilter filter) const;

  /// Duration distribution in seconds (Figure 2).
  EmpiricalDistribution duration_distribution(SourceFilter filter) const;

  /// Mean raw intensity of a source dataset (the Figure-5 threshold).
  double mean_intensity(EventSource source) const;

 private:
  StudyWindow window_;
  std::vector<AttackEvent> events_;
  // target -> indices into events_, time-ordered.
  std::unordered_map<net::Ipv4Addr, std::vector<std::uint32_t>> by_target_;
  bool finalized_ = false;
  double max_intensity_[2] = {0.0, 0.0};
  double mean_intensity_[2] = {0.0, 0.0};

  void require_finalized(const char* what) const;
};

}  // namespace dosm::core
