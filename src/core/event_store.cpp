#include "core/event_store.h"

#include <algorithm>
#include <stdexcept>

namespace dosm::core {

bool matches(SourceFilter filter, EventSource source) {
  switch (filter) {
    case SourceFilter::kTelescope:
      return source == EventSource::kTelescope;
    case SourceFilter::kHoneypot:
      return source == EventSource::kHoneypot;
    case SourceFilter::kCombined:
      return true;
  }
  return false;
}

std::string to_string(SourceFilter filter) {
  switch (filter) {
    case SourceFilter::kTelescope:
      return "Network Telescope";
    case SourceFilter::kHoneypot:
      return "Amplification Honeypot";
    case SourceFilter::kCombined:
      return "Combined";
  }
  return "Unknown";
}

EventStore::EventStore(StudyWindow window) : window_(window) {}

void EventStore::add(AttackEvent event) {
  events_.push_back(event);
  finalized_ = false;
}

void EventStore::add_telescope(std::span<const telescope::TelescopeEvent> events) {
  events_.reserve(events_.size() + events.size());
  for (const auto& e : events) add(from_telescope(e));
}

void EventStore::add_amppot(std::span<const amppot::AmpPotEvent> events) {
  events_.reserve(events_.size() + events.size());
  for (const auto& e : events) add(from_amppot(e));
}

void EventStore::finalize() {
  std::sort(events_.begin(), events_.end(),
            [](const AttackEvent& a, const AttackEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.target < b.target;
            });
  by_target_.clear();
  double sum[2] = {0.0, 0.0};
  std::uint64_t count[2] = {0, 0};
  max_intensity_[0] = max_intensity_[1] = 0.0;
  for (std::uint32_t i = 0; i < events_.size(); ++i) {
    const auto& event = events_[i];
    by_target_[event.target].push_back(i);
    const auto s = static_cast<std::size_t>(event.source);
    max_intensity_[s] = std::max(max_intensity_[s], event.intensity);
    sum[s] += event.intensity;
    ++count[s];
  }
  for (int s = 0; s < 2; ++s)
    mean_intensity_[s] = count[s] ? sum[s] / static_cast<double>(count[s]) : 0.0;
  finalized_ = true;
}

void EventStore::require_finalized(const char* what) const {
  if (!finalized_)
    throw std::logic_error(std::string("EventStore::") + what +
                           ": call finalize() first");
}

std::span<const std::uint32_t> EventStore::events_for(net::Ipv4Addr target) const {
  require_finalized("events_for");
  const auto it = by_target_.find(target);
  if (it == by_target_.end()) return {};
  return it->second;
}

std::vector<net::Ipv4Addr> EventStore::targets(SourceFilter filter) const {
  require_finalized("targets");
  std::vector<net::Ipv4Addr> out;
  for (const auto& [target, indices] : by_target_) {
    for (std::uint32_t i : indices) {
      if (matches(filter, events_[i].source)) {
        out.push_back(target);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double EventStore::normalized_intensity(const AttackEvent& event) const {
  require_finalized("normalized_intensity");
  const auto s = static_cast<std::size_t>(event.source);
  const double max = max_intensity_[s];
  if (max <= 0.0) return 0.0;
  // Linear min-max against the dataset maximum. Intensities are extremely
  // heavy-tailed, so most events normalize to nearly zero — exactly the
  // shape of Table 9 (95% of attacked Web sites at or below 0.07).
  return event.intensity / max;
}

bool EventStore::is_medium_or_higher(const AttackEvent& event) const {
  require_finalized("is_medium_or_higher");
  return event.intensity >= mean_intensity_[static_cast<std::size_t>(event.source)];
}

double EventStore::mean_intensity(EventSource source) const {
  require_finalized("mean_intensity");
  return mean_intensity_[static_cast<std::size_t>(source)];
}

}  // namespace dosm::core
