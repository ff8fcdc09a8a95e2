// Table 1 — DoS attack events data: events / unique targets / /24s / /16s /
// ASNs per source and combined, over the two-year window.
#include "bench_common.h"

int main() {
  using namespace dosm;
  bench::print_header(
      "Table 1: DoS attack events data (2015-03-01 .. 2017-02-28)",
      "telescope 12.47M events/2.45M targets/0.77M /24s; honeypot 8.43M/"
      "4.18M/1.72M; combined 20.90M events, 2.19M /24s (~1/3 of active /24s)");

  const auto& snapshot = bench::shared_snapshot();

  TextTable table({"source", "#events", "#targets", "#/24s", "#/16s", "#ASNs",
                   "events/target"});
  struct PaperRow {
    const char* name;
    double events, targets, s24;
  };
  const PaperRow paper[] = {
      {"paper: Network Telescope", 12.47e6, 2.45e6, 0.77e6},
      {"paper: Amplification Honeypot", 8.43e6, 4.18e6, 1.72e6},
      {"paper: Combined", 20.90e6, 6.34e6, 2.19e6},
  };
  const core::SourceFilter filters[] = {core::SourceFilter::kTelescope,
                                        core::SourceFilter::kHoneypot,
                                        core::SourceFilter::kCombined};
  query::DatasetSummary summaries[3];
  for (int i = 0; i < 3; ++i) {
    const auto& summary = summaries[i] =
        query::summarize(snapshot, query::Query{}.from_source(filters[i]));
    table.add_row(
        {core::to_string(filters[i]), human_count(double(summary.events)),
         human_count(double(summary.unique_targets)),
         human_count(double(summary.unique_slash24)),
         human_count(double(summary.unique_slash16)),
         human_count(double(summary.unique_asns)),
         fixed(summary.unique_targets
                   ? double(summary.events) / double(summary.unique_targets)
                   : 0.0,
               2)});
    table.add_row({paper[i].name, human_count(paper[i].events),
                   human_count(paper[i].targets), human_count(paper[i].s24),
                   "-", "-",
                   fixed(paper[i].events / paper[i].targets, 2)});
  }
  std::cout << table;

  // Shape checks the paper emphasizes: the telescope has more events per
  // target (follow-up attacks), the honeypot more unique targets; the
  // combined target set is sub-additive (overlap, §4).
  const auto& [telescope, honeypot, combined] = summaries;
  const double events_per_target_t =
      double(telescope.events) / double(telescope.unique_targets);
  const double events_per_target_h =
      double(honeypot.events) / double(honeypot.unique_targets);
  std::cout << "\nShape: events/target telescope " << fixed(events_per_target_t, 2)
            << " vs honeypot " << fixed(events_per_target_h, 2)
            << (events_per_target_t > events_per_target_h
                    ? "  [matches paper: telescope higher]"
                    : "  [MISMATCH: paper has telescope higher]")
            << "\n";
  const auto overlap = telescope.unique_targets + honeypot.unique_targets -
                       combined.unique_targets;
  std::cout << "Target overlap between datasets: " << overlap << " ("
            << percent(double(overlap) / double(combined.unique_targets), 2)
            << " of combined; paper: 282k of 6.34M = 4.4%)\n";
  return 0;
}
