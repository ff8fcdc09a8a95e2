// Figure 2 — attack-duration CDFs for both datasets at the paper's tick
// marks, plus the headline statistics.
#include "bench_common.h"

namespace {

void print_cdf(const dosm::EmpiricalDistribution& dist, const char* name,
               double paper_mean_s, double paper_median_s) {
  using namespace dosm;
  std::cout << "\n-- " << name << " --\n";
  const double ticks[] = {10,   15,   30,    60,    300,   600,  900,
                          1800, 3600, 7200,  10800, 21600, 43200, 86400};
  TextTable table({"duration", "CDF"});
  for (const double t : ticks)
    table.add_row({format_duration(t), percent(dist.cdf(t), 1)});
  std::cout << table;
  std::cout << "mean " << format_duration(dist.mean()) << " (paper "
            << format_duration(paper_mean_s) << "), median "
            << format_duration(dist.median()) << " (paper "
            << format_duration(paper_median_s) << ")\n";
}

}  // namespace

int main() {
  using namespace dosm;
  bench::print_header(
      "Figure 2: duration of attacks (CDFs)",
      "telescope: ~40% <= 5 min, top 10% >= 1.5 h, mean 48 m, median 454 s; "
      "honeypot: 50% <= 255 s, top 10% >= 40 m, mean 18 m, median 255 s");

  EmpiricalDistribution telescope, honeypot;
  for (const auto& event : bench::shared_world().store.events())
    (event.is_telescope() ? telescope : honeypot).add(event.duration());

  print_cdf(telescope, "Telescope", 48 * 60, 454);
  print_cdf(honeypot, "Honeypot", 18 * 60, 255);

  std::cout << "\nShape checks:\n";
  std::cout << "  telescope P90 " << format_duration(telescope.percentile(90))
            << " (paper: ~1.5h)\n";
  std::cout << "  honeypot P90 " << format_duration(honeypot.percentile(90))
            << " (paper: ~40m)\n";
  std::cout << "  telescope >1 day: " << percent(1.0 - telescope.cdf(86400), 2)
            << " (paper: ~0.2%)\n";
  std::cout << "  honeypot at 24h cap: "
            << percent(1.0 - honeypot.cdf(86400 - 60), 3)
            << " (paper: ~0.02%)\n";
  std::cout << "  randomly spoofed last longer: "
            << (telescope.median() > honeypot.median() ? "holds" : "VIOLATED")
            << "\n";
  return 0;
}
