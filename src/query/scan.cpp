#include "query/scan.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace dosm::query {

ScanOracle::ScanOracle(std::span<const core::AttackEvent> events,
                       StudyWindow window, const meta::PrefixToAsMap& pfx2as,
                       const meta::GeoDatabase& geo)
    : events_(events), window_(window), pfx2as_(&pfx2as), geo_(&geo) {}

bool ScanOracle::matches(const Query& query,
                         const core::AttackEvent& event) const {
  if (query.time &&
      !(event.start >= query.time->begin && event.start < query.time->end))
    return false;
  if (!core::matches(query.source, event.source)) return false;
  if (query.prefix && !query.prefix->contains(event.target)) return false;
  if (query.asn && pfx2as_->origin(event.target) != *query.asn) return false;
  if (query.country && geo_->locate(event.target) != *query.country)
    return false;
  if (query.port && event.top_port != *query.port) return false;
  if (query.min_intensity && event.intensity < *query.min_intensity)
    return false;
  return true;
}

std::uint64_t ScanOracle::count(const Query& query) const {
  std::uint64_t n = 0;
  for (const auto& event : events_)
    if (matches(query, event)) ++n;
  return n;
}

std::uint64_t ScanOracle::unique_targets(const Query& query) const {
  std::unordered_set<std::uint32_t> targets;
  for (const auto& event : events_)
    if (matches(query, event)) targets.insert(event.target.value());
  return targets.size();
}

DailySeries ScanOracle::daily_attacks(const Query& query) const {
  DailySeries series(window_.num_days());
  for (const auto& event : events_) {
    if (!matches(query, event)) continue;
    const auto t = static_cast<UnixSeconds>(event.start);
    if (!window_.contains(t)) continue;
    series.add(window_.day_of(t), 1.0);
  }
  return series;
}

std::vector<TargetCount> ScanOracle::top_targets(const Query& query,
                                                 std::size_t k) const {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const auto& event : events_)
    if (matches(query, event)) ++counts[event.target.value()];
  std::vector<TargetCount> out;
  out.reserve(counts.size());
  for (const auto& [addr, events] : counts)
    out.push_back({net::Ipv4Addr(addr), events});
  std::sort(out.begin(), out.end(),
            [](const TargetCount& a, const TargetCount& b) {
              if (a.events != b.events) return a.events > b.events;
              return a.target < b.target;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<AsnCount> ScanOracle::top_asns(const Query& query,
                                           std::size_t k) const {
  std::unordered_map<meta::Asn, std::unordered_set<std::uint32_t>> targets;
  std::unordered_map<meta::Asn, std::uint64_t> events;
  for (const auto& event : events_) {
    if (!matches(query, event)) continue;
    const auto asn = pfx2as_->origin(event.target);
    if (asn == meta::kUnknownAsn) continue;
    targets[asn].insert(event.target.value());
    ++events[asn];
  }
  std::vector<AsnCount> out;
  out.reserve(targets.size());
  for (const auto& [asn, addrs] : targets)
    out.push_back({asn, addrs.size(), events[asn]});
  std::sort(out.begin(), out.end(), [](const AsnCount& a, const AsnCount& b) {
    return std::tuple(b.targets, b.events, a.asn) <
           std::tuple(a.targets, a.events, b.asn);
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<core::CountryCount> ScanOracle::country_ranking(
    const Query& query) const {
  // Count each matching target once, in its geolocated country — the
  // paper's Table-4 semantics.
  std::unordered_set<std::uint32_t> seen;
  std::map<meta::CountryCode, std::uint64_t> counts;
  std::uint64_t total = 0;
  for (const auto& event : events_) {
    if (!matches(query, event)) continue;
    if (!seen.insert(event.target.value()).second) continue;
    ++counts[geo_->locate(event.target)];
    ++total;
  }
  std::vector<core::CountryCount> out;
  out.reserve(counts.size());
  for (const auto& [country, count] : counts) {
    out.push_back({country, count,
                   total ? static_cast<double>(count) / static_cast<double>(total)
                         : 0.0});
  }
  std::sort(out.begin(), out.end(),
            [](const core::CountryCount& a, const core::CountryCount& b) {
              if (a.targets != b.targets) return a.targets > b.targets;
              return a.country < b.country;
            });
  return out;
}

std::vector<core::CountryCount> ScanOracle::top_countries(const Query& query,
                                                          std::size_t k) const {
  auto ranking = country_ranking(query);
  if (ranking.size() > k) ranking.resize(k);
  return ranking;
}

}  // namespace dosm::query
