// Seeded corruption property test for the DOSARCH1 segment archive.
//
// The property: for ANY single-byte flip, truncation, or outright garbage
// file, opening the archive and decoding every segment either succeeds with
// well-formed frames or throws exactly core::SerializeError — it never
// crashes, never throws anything else, and never allocates proportional to
// hostile header fields. Runs under ASan in CI, so an out-of-bounds read or
// a giant reserve fails the job. Style mirrors serialize_fuzz_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/serialize.h"
#include "query/build_context.h"
#include "query/snapshot.h"
#include "storage/archive.h"

namespace dosm::storage {
namespace {

std::string scratch_path() {
  return (std::filesystem::temp_directory_path() / "dosm_storage_fuzz.bin")
      .string();
}

StudyWindow fuzz_window() {
  StudyWindow window;
  window.end = civil_from_days(days_from_civil(window.start) + 9);
  return window;
}

/// A small valid archive (a handful of segments, a few thousand rows) as an
/// in-memory byte string the corruption loops can mutate.
std::string valid_archive() {
  const StudyWindow window = fuzz_window();
  const double t0 = static_cast<double>(window.start_time());
  std::vector<core::AttackEvent> events;
  for (int i = 0; i < 3000; ++i) {
    core::AttackEvent event;
    event.source =
        i % 2 ? core::EventSource::kHoneypot : core::EventSource::kTelescope;
    event.target = net::Ipv4Addr(0x0a000000u + static_cast<std::uint32_t>(i));
    event.start = t0 + i * 250.0;
    event.end = event.start + 90.0;
    event.intensity = 1.0 + i % 40;
    if (event.source == core::EventSource::kTelescope) {
      event.top_port = static_cast<std::uint16_t>(i % 7 ? 80 : 53);
      event.ip_proto = 6;
    }
    events.push_back(event);
  }
  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  const auto snapshot = query::Snapshot::build(
      window, events,
      query::BuildContext{.pfx2as = pfx2as, .geo = geo, .segment_days = 2});

  const std::string path = scratch_path();
  write_archive(path, *snapshot);
  // Sized read rather than istreambuf_iterator, whose inlined sbumpc GCC 12
  // flags as a potential null dereference (-Wnull-dereference).
  std::string bytes(
      static_cast<std::size_t>(std::filesystem::file_size(path)), '\0');
  std::ifstream in(path, std::ios::binary);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::remove(path.c_str());
  return bytes;
}

/// The property under test: open + full decode + zone clip must return
/// cleanly or throw exactly core::SerializeError; anything else (other
/// exception types, crashes, sanitizer reports) fails.
void expect_loads_or_rejects(const std::string& bytes) {
  const std::string path = scratch_path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    const ArchiveReader reader(path);
    for (std::uint32_t id = 0; id < reader.num_segments(); ++id) {
      const auto segment = reader.load(id);
      ASSERT_EQ(segment->size(), reader.meta(id).rows);
      const double mid =
          (reader.meta(id).start_min + reader.meta(id).start_max) / 2;
      reader.clip(id, mid, mid + 1000.0);
    }
  } catch (const core::SerializeError&) {
    // Rejection is the other acceptable outcome.
  }
  std::remove(path.c_str());
}

TEST(StorageFuzz, SingleByteFlipsNeverCrashOrOverAllocate) {
  const std::string archive = valid_archive();
  Rng rng(20260808);
  for (int iter = 0; iter < 700; ++iter) {
    std::string corrupt = archive;
    const auto pos = static_cast<std::size_t>(rng.next_below(corrupt.size()));
    corrupt[pos] = static_cast<char>(rng.next_below(256));
    expect_loads_or_rejects(corrupt);
  }
}

TEST(StorageFuzz, TailAndTocFlipsNeverCrash) {
  // The TOC and tail carry every offset/count the reader trusts; hammer the
  // last kilobyte far harder than uniform sampling would.
  const std::string archive = valid_archive();
  Rng rng(0x70c70c);
  const std::size_t tail_span = std::min<std::size_t>(1024, archive.size());
  for (int iter = 0; iter < 600; ++iter) {
    std::string corrupt = archive;
    const std::size_t pos =
        corrupt.size() - 1 - rng.next_below(tail_span);
    corrupt[pos] = static_cast<char>(rng.next_below(256));
    expect_loads_or_rejects(corrupt);
  }
}

TEST(StorageFuzz, TruncationsNeverCrash) {
  const std::string archive = valid_archive();
  Rng rng(987654321);
  for (int iter = 0; iter < 300; ++iter)
    expect_loads_or_rejects(
        archive.substr(0, rng.next_below(archive.size())));
  // Every boundary-adjacent length around the header and the tail.
  for (std::size_t cut = 0; cut < 64 && cut < archive.size(); ++cut)
    expect_loads_or_rejects(archive.substr(0, cut));
  for (std::size_t back = 1; back < 64 && back < archive.size(); ++back)
    expect_loads_or_rejects(archive.substr(0, archive.size() - back));
}

TEST(StorageFuzz, FlipPlusTruncationCombined) {
  const std::string archive = valid_archive();
  Rng rng(0xfeedbeef);
  for (int iter = 0; iter < 300; ++iter) {
    std::string corrupt =
        archive.substr(0, 1 + rng.next_below(archive.size() - 1));
    const auto pos = static_cast<std::size_t>(rng.next_below(corrupt.size()));
    corrupt[pos] = static_cast<char>(rng.next_below(256));
    expect_loads_or_rejects(corrupt);
  }
}

TEST(StorageFuzz, GarbageFilesNeverCrash) {
  Rng rng(0xbadf11e);
  for (int iter = 0; iter < 200; ++iter) {
    std::string garbage(rng.next_below(4096), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next_below(256));
    expect_loads_or_rejects(garbage);
  }
  // Valid magic followed by garbage: past the first gate, still rejected.
  std::string fake(kArchiveMagic, sizeof(kArchiveMagic));
  for (int iter = 0; iter < 100; ++iter) {
    std::string body(64 + rng.next_below(512), '\0');
    for (char& c : body) c = static_cast<char>(rng.next_below(256));
    expect_loads_or_rejects(fake + body);
  }
  expect_loads_or_rejects("");
}

TEST(StorageFuzz, UncorruptedArchiveStillLoads) {
  // Sanity anchor for the property: the pristine archive decodes fully.
  const std::string archive = valid_archive();
  const std::string path = scratch_path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(archive.data(), static_cast<std::streamsize>(archive.size()));
  }
  const ArchiveReader reader(path);
  EXPECT_GT(reader.num_segments(), 2u);
  std::size_t rows = 0;
  for (std::uint32_t id = 0; id < reader.num_segments(); ++id)
    rows += reader.load(id)->size();
  EXPECT_EQ(rows, 3000u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dosm::storage
