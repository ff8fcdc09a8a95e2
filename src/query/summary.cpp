#include "query/summary.h"

#include <limits>
#include <unordered_set>

namespace dosm::query {

DatasetSummary summarize(const Snapshot& snapshot, const Query& query) {
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  DatasetSummary summary;
  summary.events = snapshot.count(query);
  summary.unique_targets = snapshot.unique_targets(query);
  std::unordered_set<std::uint32_t> slash24, slash16;
  for (const auto& row : snapshot.top_targets(query, kAll)) {
    slash24.insert(row.target.slash24().value());
    slash16.insert(row.target.slash16().value());
  }
  summary.unique_slash24 = slash24.size();
  summary.unique_slash16 = slash16.size();
  summary.unique_asns = snapshot.top_asns(query, kAll).size();
  return summary;
}

std::vector<DatasetSummary> summarize_daily(const Snapshot& snapshot,
                                            Query query) {
  const StudyWindow& window = snapshot.window();
  std::vector<DatasetSummary> days;
  days.reserve(static_cast<std::size_t>(window.num_days()));
  for (int d = 0; d < window.num_days(); ++d) {
    query.between(static_cast<double>(window.day_start(d)),
                  static_cast<double>(window.day_start(d + 1)));
    days.push_back(summarize(snapshot, query));
  }
  return days;
}

}  // namespace dosm::query
