// The EventStore: the fused attack-event dataset.
//
// Holds all events from both sources over a study window, time-ordered and
// indexed by target, with the per-source intensity statistics used by the
// Figure-5 medium+ selection and by the normalization of Table 9 and
// Figure 10. The paper's aggregate tables and series (Table 1, Table 4,
// Figure 1) are Snapshot queries; see query/summary.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "core/event.h"
#include "meta/geo.h"

namespace dosm::core {

/// Which events an aggregate covers.
enum class SourceFilter : std::uint8_t { kTelescope, kHoneypot, kCombined };

bool matches(SourceFilter filter, EventSource source);
std::string to_string(SourceFilter filter);

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

  /// Normalized intensity of an event: linear min-max within its source
  /// dataset, in [0, 1] (requires finalize()). The paper normalizes per
  /// dataset because telescope pps and honeypot rps are incomparable.
  double normalized_intensity(const AttackEvent& event) const;

  /// An event is "medium intensity or higher" when its raw intensity is at
  /// least the mean of all intensities in its source dataset (§4, Fig. 5).
  bool is_medium_or_higher(const AttackEvent& event) const;

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
