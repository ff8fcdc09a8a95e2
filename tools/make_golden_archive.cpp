// Regenerates tests/data/golden_v1.dosarch, the checked-in archive that
// pins the DOSARCH1 on-disk format ("readers load v1 forever").
//
// The event list here MUST stay byte-for-byte in sync with golden_events()
// in tests/storage_test.cpp: the compatibility test rebuilds the same
// events in memory and asserts every aggregation matches the archive.
// Integral timestamps and quarter-step intensities keep all columns
// platform-independent, so the emitted file is bit-stable.
//
// Usage: make_golden_archive <output-path>
// Run it only when introducing a NEW format version; never overwrite the
// v1 golden with bytes from a changed writer.
#include <cstdio>
#include <string>
#include <vector>

#include "query/build_context.h"
#include "query/snapshot.h"
#include "storage/archive.h"

namespace dosm {
namespace {

StudyWindow golden_window() {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 13);
  return window;
}

std::vector<core::AttackEvent> golden_events() {
  const double t0 = static_cast<double>(golden_window().start_time());
  std::vector<core::AttackEvent> events;
  for (int i = 0; i < 5000; ++i) {
    core::AttackEvent event;
    event.target = net::Ipv4Addr(
        static_cast<std::uint8_t>(10 + i % 4), 0,
        static_cast<std::uint8_t>((i / 7) % 16),
        static_cast<std::uint8_t>(i % 251));
    event.start = t0 + i * 211.0;
    event.end = event.start + 120.0 + (i % 13) * 30.0;
    event.source =
        i % 3 ? core::EventSource::kTelescope : core::EventSource::kHoneypot;
    event.intensity = 0.25 * (1 + i % 400);
    if (event.source == core::EventSource::kTelescope) {
      const std::uint16_t ports[] = {0, 53, 80, 123, 443};
      event.top_port = ports[i % 5];
      event.ip_proto = i % 5 ? 6 : 17;
    }
    events.push_back(event);
  }
  return events;
}

int run(const std::string& out_path) {
  const auto events = golden_events();
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  const auto snapshot = query::Snapshot::build(
      golden_window(), events,
      query::BuildContext{.pfx2as = pfx2as, .geo = geo, .segment_days = 3});
  const std::uint64_t bytes = storage::write_archive(out_path, *snapshot);
  std::printf("wrote %s: %zu events, %zu segments, %llu bytes\n",
              out_path.c_str(), snapshot->size(), snapshot->num_segments(),
              static_cast<unsigned long long>(bytes));
  return 0;
}

}  // namespace
}  // namespace dosm

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden_archive <output-path>\n");
    return 2;
  }
  return dosm::run(argv[1]);
}
