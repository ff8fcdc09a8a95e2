// Table 5 — IP protocol distribution of randomly-spoofed attacks.
#include <map>

#include "bench_common.h"
#include "core/ports.h"

int main() {
  using namespace dosm;
  bench::print_header("Table 5: IP protocol distribution (telescope)",
                      "TCP 79.4%, UDP 15.9%, ICMP 4.5%, Other 0.2%");

  const auto& world = bench::shared_world();
  const auto rows = core::ip_protocol_distribution(world.store);
  const std::map<std::string, double> paper{
      {"TCP", 0.794}, {"UDP", 0.159}, {"ICMP", 0.045}, {"Other", 0.002}};

  TextTable table({"protocol", "#events", "share", "paper share", "delta"});
  for (const auto& row : rows) {
    const double expected = paper.at(row.label);
    table.add_row({row.label, human_count(double(row.events)),
                   percent(row.share, 1), percent(expected, 1),
                   fixed((row.share - expected) * 100.0, 2) + "pp"});
  }
  std::cout << table;
  std::cout << "\nShape: ordering TCP > UDP > ICMP > Other: "
            << ((rows[0].share > rows[1].share && rows[1].share > rows[2].share &&
                 rows[2].share > rows[3].share)
                    ? "holds"
                    : "VIOLATED")
            << "\n";
  return 0;
}
