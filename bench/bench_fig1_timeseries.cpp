// Figure 1 — attacks, unique targets, targeted /16s and ASNs over time, for
// the telescope, honeypot, and combined datasets (three panels). Prints the
// monthly-resampled series plus the paper's headline daily averages.
#include "bench_common.h"

namespace {

using Daily = std::vector<dosm::query::DatasetSummary>;

Daily print_panel(dosm::core::SourceFilter filter, double paper_daily) {
  using namespace dosm;
  const auto& snapshot = bench::shared_snapshot();
  const Daily daily =
      query::summarize_daily(snapshot, query::Query{}.from_source(filter));
  const int num_days = static_cast<int>(daily.size());
  double total_attacks = 0;
  for (const auto& day : daily) total_attacks += double(day.events);
  std::cout << "\n-- " << core::to_string(filter) << " --\n";
  std::cout << "daily avg attacks: " << fixed(total_attacks / num_days, 1)
            << " (paper: " << human_count(paper_daily, 1) << "/day at full "
            << "scale)\n";

  TextTable table({"month", "attacks/day", "targets/day", "/16s/day",
                   "ASNs/day"});
  const auto& window = snapshot.window();
  int month_start = 0;
  CivilDate current = window.date_of_day(0);
  for (int d = 0; d <= num_days; ++d) {
    const CivilDate date =
        d < num_days ? window.date_of_day(d) : CivilDate{9999, 1, 1};
    if (date.year != current.year || date.month != current.month) {
      const int days = d - month_start;
      double attacks = 0, targets = 0, s16 = 0, asns = 0;
      for (int i = month_start; i < d; ++i) {
        const auto& day = daily[static_cast<std::size_t>(i)];
        attacks += double(day.events);
        targets += double(day.unique_targets);
        s16 += double(day.unique_slash16);
        asns += double(day.unique_asns);
      }
      char label[16];
      std::snprintf(label, sizeof(label), "%04d-%02u", current.year,
                    current.month);
      table.add_row({label, fixed(attacks / days, 1), fixed(targets / days, 1),
                     fixed(s16 / days, 1), fixed(asns / days, 1)});
      current = date;
      month_start = d;
    }
  }
  std::cout << table;
  return daily;
}

}  // namespace

int main() {
  using namespace dosm;
  bench::print_header(
      "Figure 1: attack events over time (3 panels)",
      "telescope avg 17.1k/day; honeypot avg 11.6k/day; combined 28.7k/day; "
      "targets spread over thousands of ASNs daily");

  const Daily telescope = print_panel(core::SourceFilter::kTelescope, 17.1e3);
  const Daily honeypot = print_panel(core::SourceFilter::kHoneypot, 11.6e3);
  const Daily combined = print_panel(core::SourceFilter::kCombined, 28.7e3);

  // Shape: combined daily targets < sum of per-source targets (same-day
  // co-targeting, the paper's note under Figure 1).
  int subadditive_days = 0, days_with_both = 0;
  for (std::size_t d = 0; d < combined.size(); ++d) {
    const auto t = telescope[d].unique_targets, h = honeypot[d].unique_targets;
    if (t > 0 && h > 0) {
      ++days_with_both;
      if (combined[d].unique_targets < t + h) ++subadditive_days;
    }
  }
  std::cout << "\nDays where combined targets < telescope+honeypot targets: "
            << subadditive_days << "/" << days_with_both
            << " (same-day co-targeting exists)\n";
  return 0;
}
