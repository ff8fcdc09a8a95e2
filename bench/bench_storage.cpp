// Tiered-storage bench: DOSARCH1 compression ratio, cold-read query
// latency against the fully resident baseline, and the per-segment cost of
// ArchiveReader::load split into its stages.
//
// The workload is archive-shaped: second-granularity start times on a fixed
// cadence, whole-second durations, and 0.25-quantized intensities — the
// shapes the column codecs (delta+varint, dictionary, bitpack, scaled
// delta) are built for, and the shapes real ingest feeds the archiver.
//
// The load timing runs over a second archive of one-day segments of the
// simulated world, the shape perfbench `dashboard` pages in: the median
// load is the storage.decode_ms counterpart, and read, CRC, column decode
// and index build show which stage bounds a cold fetch.
//
// Emits BENCH_storage.json. Before any timing, every query in the suite is
// cross-checked hot vs cold vs in-memory — counts, daily series, top-k,
// country shares (exact doubles), and global row ids — so a tiering
// correctness regression fails the bench outright (same policy as
// bench_incremental's identity check).
//
// Gates:
//   compression_ratio >= 3.0   raw 42 B/row SoA vs archive bytes. A pure
//                              function of the workload, so it gates in
//                              --smoke too.
//   cold_warm <= 3x hot        cache-resident cold reads must stay within
//                              noise of hot reads (timing: skipped in
//                              --smoke, where CI jitter dominates).
//
//   $ ./bench_storage [--smoke] [--out FILE]
//     --smoke   small workload + no timing gate (CI wiring check)
//     --out F   baseline path (default BENCH_storage.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "query/build_context.h"
#include "query/index.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "storage/archive.h"
#include "storage/codec.h"
#include "storage/metrics.h"
#include "storage/tiered.h"

namespace {

using namespace dosm;
using clock_type = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

struct Workload {
  StudyWindow window;
  std::vector<core::AttackEvent> events;
};

/// Deterministic archive-shaped events: integral-second starts on a fixed
/// cadence, whole-second durations, 0.25-step intensities. No Rng — the
/// compression ratio must be a pure function of (days, count).
Workload make_workload(int days, int count) {
  Workload w;
  w.window.end = civil_from_days(days_from_civil(w.window.start) + days - 1);
  const double t0 = static_cast<double>(w.window.start_time());
  const double span = static_cast<double>(days) * kSecondsPerDay;
  const double stride =
      std::max(1.0, std::floor(span * 0.9 / static_cast<double>(count)));
  w.events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::AttackEvent event;
    event.target = net::Ipv4Addr(
        static_cast<std::uint8_t>(10 + i % 8),
        static_cast<std::uint8_t>((i / 11) % 32),
        static_cast<std::uint8_t>((i / 7) % 64),
        static_cast<std::uint8_t>(i % 251));
    event.start = t0 + static_cast<double>(i) * stride;
    event.end = event.start + 60.0 + (i % 97) * 30.0;
    event.source =
        i % 3 ? core::EventSource::kTelescope : core::EventSource::kHoneypot;
    event.intensity = 0.25 * (1 + i % 2000);
    if (event.source == core::EventSource::kTelescope) {
      const std::uint16_t ports[] = {0, 53, 80, 123, 443};
      event.top_port = ports[i % 5];
      event.ip_proto = i % 5 ? 6 : 17;
    }
    w.events.push_back(event);
  }
  return w;
}

/// The timed (and identity-checked) query suite: one of each access shape.
std::vector<query::Query> query_suite(const StudyWindow& window) {
  const double t0 = static_cast<double>(window.start_time());
  const double span =
      static_cast<double>(window.num_days()) * kSecondsPerDay;
  std::vector<query::Query> queries;
  queries.emplace_back();  // full scan
  query::Query by_time;
  by_time.between(t0 + 0.25 * span, t0 + 0.45 * span);
  queries.push_back(by_time);
  query::Query by_port;
  by_port.on_port(53);
  queries.push_back(by_port);
  query::Query mixed;
  mixed.from_source(core::SourceFilter::kTelescope);
  mixed.between(t0 + 0.1 * span, t0 + 0.8 * span);
  mixed.at_least(100.0);
  queries.push_back(mixed);
  return queries;
}

/// True when every aggregation (and the global row ids) agrees exactly.
bool identical(const query::Snapshot& expected, const query::Snapshot& actual,
               const query::Query& q) {
  if (actual.count(q) != expected.count(q)) return false;
  if (actual.unique_targets(q) != expected.unique_targets(q)) return false;
  const auto expected_daily = expected.daily_attacks(q);
  const auto actual_daily = actual.daily_attacks(q);
  if (actual_daily.num_days() != expected_daily.num_days()) return false;
  for (int d = 0; d < expected_daily.num_days(); ++d)
    if (actual_daily.at(d) != expected_daily.at(d)) return false;
  if (actual.top_targets(q, 10) != expected.top_targets(q, 10)) return false;
  if (actual.top_asns(q, 10) != expected.top_asns(q, 10)) return false;
  const auto expected_countries = expected.country_ranking(q);
  const auto actual_countries = actual.country_ranking(q);
  if (actual_countries.size() != expected_countries.size()) return false;
  for (std::size_t i = 0; i < expected_countries.size(); ++i) {
    if (actual_countries[i].country != expected_countries[i].country ||
        actual_countries[i].targets != expected_countries[i].targets ||
        actual_countries[i].share != expected_countries[i].share)
      return false;
  }
  return actual.match_rows(q) == expected.match_rows(q);
}

/// One pass over the whole suite; returns elapsed seconds.
double run_suite(const query::Snapshot& snap,
                 const std::vector<query::Query>& queries,
                 std::uint64_t& sink) {
  const auto t0 = clock_type::now();
  for (const auto& q : queries) {
    sink += snap.count(q);
    sink += snap.unique_targets(q);
    sink += static_cast<std::uint64_t>(snap.country_ranking(q).size());
  }
  return seconds_since(t0);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Median per-segment milliseconds of ArchiveReader::load and its stages.
struct LoadStages {
  double load = 0.0;
  double read = 0.0;
  double crc = 0.0;
  double decode = 0.0;  // the rest of load: column decode and validation
  double index = 0.0;
};

/// Loads every segment of the archive once, then re-runs the blob read,
/// the CRC and the index build on their own; column decode is what remains
/// of the load.
LoadStages time_loads(const std::string& path, std::uint64_t& sink) {
  const storage::ArchiveReader reader(path);
  std::ifstream file(path, std::ios::binary);
  const auto ms = [](clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  std::vector<double> load, read, crc, decode, index;
  for (std::uint32_t id = 0; id < reader.num_segments(); ++id) {
    const storage::SegmentMeta& meta = reader.meta(id);
    const auto t0 = clock_type::now();
    const auto segment = reader.load(id);
    const auto t1 = clock_type::now();
    std::vector<std::uint8_t> blob(meta.length);
    file.seekg(static_cast<std::streamoff>(meta.offset));
    file.read(reinterpret_cast<char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    const auto t2 = clock_type::now();
    sink += storage::crc32(std::span<const std::uint8_t>(blob).first(
        blob.size() - 4));
    const auto t3 = clock_type::now();
    const query::FrameIndex rebuilt(segment->frame());
    sink += rebuilt.by_port(53).size();
    const auto t4 = clock_type::now();
    load.push_back(ms(t0, t1));
    read.push_back(ms(t1, t2));
    crc.push_back(ms(t2, t3));
    index.push_back(ms(t3, t4));
    decode.push_back(
        std::max(0.0, load.back() - read.back() - crc.back() - index.back()));
  }
  if (!file) throw std::runtime_error("cannot re-read " + path);
  return {median(load), median(read), median(crc), median(decode),
          median(index)};
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: bench_storage [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  const int days = smoke ? 14 : 60;
  const int count = smoke ? 8000 : 300000;
  const int segment_days = smoke ? 3 : 7;
  bench::print_header(
      "Tiered storage: DOSARCH1 compression + cold-read latency",
      "storage-layer addition; no paper table — baseline for "
      "BENCH_storage.json");
  const Workload w = make_workload(days, count);
  std::cerr << "[bench] " << w.events.size() << " events over " << days
            << " days, segment_days=" << segment_days << "\n";

  const meta::PrefixToAsMap pfx2as;
  const meta::GeoDatabase geo;
  query::BuildContext build_ctx{
      .pfx2as = pfx2as, .geo = geo, .segment_days = segment_days};
  const auto in_memory =
      query::Snapshot::build(w.window, w.events, build_ctx);

  // --- Archive write + compression ratio -------------------------------
  const std::string archive_path =
      (std::filesystem::temp_directory_path() / "bench_storage.dosarch")
          .string();
  const auto write_t0 = clock_type::now();
  const std::uint64_t file_bytes =
      storage::write_archive(archive_path, *in_memory);
  const double write_s = seconds_since(write_t0);
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(w.events.size()) * 42u;
  const double ratio = static_cast<double>(raw_bytes) /
                       static_cast<double>(file_bytes);

  // --- Identity cross-check BEFORE any timing --------------------------
  // Hot (all segments resident) and cold (all segments behind the cache)
  // must both answer every suite query byte-identically to the in-memory
  // snapshot.
  const std::vector<query::Query> queries = query_suite(w.window);
  query::BuildContext hot_ctx{pfx2as, geo};
  hot_ctx.hot_days = days + 1;
  query::BuildContext cold_ctx{pfx2as, geo};
  cold_ctx.hot_days = 0;
  cold_ctx.cold_cache_bytes = 256u << 20;
  {
    const auto hot = storage::open_tiered(archive_path, hot_ctx);
    const auto cold = storage::open_tiered(archive_path, cold_ctx);
    for (const auto& q : queries) {
      if (!identical(*in_memory, *hot, q) || !identical(*in_memory, *cold, q)) {
        std::cerr << "bench_storage: tiered snapshot disagrees with "
                     "in-memory on " << query::to_string(q) << "\n";
        std::remove(archive_path.c_str());
        return 1;
      }
    }
    std::cerr << "[bench] identity check passed: hot == cold == in-memory "
              << "across " << queries.size() << " queries\n";
  }

  // --- Timing -----------------------------------------------------------
  const int passes = smoke ? 3 : 8;
  std::uint64_t sink = 0;

  // Hot baseline: everything resident.
  const auto hot = storage::open_tiered(archive_path, hot_ctx);
  std::vector<double> hot_s;
  for (int p = 0; p < passes; ++p) hot_s.push_back(run_suite(*hot, queries, sink));

  // Cold first pass: a fresh tiered snapshot pages every touched segment
  // in from disk (decode cost included). Later passes hit the LRU cache.
  const storage::Metrics& sm = storage::Metrics::get();
  const std::uint64_t loads_before = sm.segment_loads.value();
  const std::uint64_t hits_before = sm.cache_hits.value();
  const auto cold = storage::open_tiered(archive_path, cold_ctx);
  const double cold_first_s = run_suite(*cold, queries, sink);
  std::vector<double> cold_warm_s;
  for (int p = 0; p < passes; ++p)
    cold_warm_s.push_back(run_suite(*cold, queries, sink));
  const std::uint64_t loads = sm.segment_loads.value() - loads_before;
  const std::uint64_t hits = sm.cache_hits.value() - hits_before;

  std::remove(archive_path.c_str());

  // --- Per-segment load stages over one-day segments ---------------------
  const auto world = sim::build_world(smoke ? sim::ScenarioConfig::small()
                                            : bench::default_config());
  const auto daily = query::Snapshot::from_store(
      world->store,
      query::BuildContext{.pfx2as = world->population.pfx2as(),
                          .geo = world->population.geo(),
                          .segment_days = 1});
  const std::string daily_path =
      (std::filesystem::temp_directory_path() / "bench_storage_daily.dosarch")
          .string();
  storage::write_archive(daily_path, *daily);
  const LoadStages stages = time_loads(daily_path, sink);
  std::remove(daily_path.c_str());
  const double rows_per_segment =
      static_cast<double>(daily->size()) /
      static_cast<double>(daily->num_segments());

  const double hot_ms = mean(hot_s) * 1e3;
  const double cold_warm_ms = mean(cold_warm_s) * 1e3;
  const double warm_vs_hot = hot_ms > 0.0 ? cold_warm_ms / hot_ms : 0.0;

  std::cout << "events:            " << w.events.size() << "\n"
            << "segments:          " << in_memory->num_segments() << "\n"
            << "archive bytes:     " << file_bytes << " (raw SoA "
            << raw_bytes << ")\n"
            << "compression:       " << fixed(ratio, 2) << "x\n"
            << "archive write:     " << fixed(write_s * 1e3, 2) << " ms\n"
            << "hot suite:         " << fixed(hot_ms, 3) << " ms/pass\n"
            << "cold first pass:   " << fixed(cold_first_s * 1e3, 3)
            << " ms (" << loads << " segment loads)\n"
            << "cold warm:         " << fixed(cold_warm_ms, 3) << " ms/pass ("
            << hits << " cache hits, " << fixed(warm_vs_hot, 2)
            << "x hot)\n"
            << "segment load:      " << fixed(stages.load * 1e3, 1)
            << " us median over " << daily->num_segments()
            << " one-day segments (" << fixed(rows_per_segment, 0)
            << " rows each)\n"
            << "  read " << fixed(stages.read * 1e3, 1) << " us, CRC "
            << fixed(stages.crc * 1e3, 1) << " us, column decode "
            << fixed(stages.decode * 1e3, 1) << " us, index "
            << fixed(stages.index * 1e3, 1) << " us\n";

  JsonWriter json;
  json.begin_object()
      .key("bench").value("storage")
      .key("smoke").value(smoke)
      .key("events").value(static_cast<std::uint64_t>(w.events.size()))
      .key("days").value(static_cast<std::uint64_t>(days))
      .key("segment_days").value(static_cast<std::uint64_t>(segment_days))
      .key("segments")
      .value(static_cast<std::uint64_t>(in_memory->num_segments()))
      .key("archive_bytes").value(file_bytes)
      .key("raw_bytes").value(raw_bytes)
      .key("compression_ratio").value(ratio)
      .key("write_ms").value(write_s * 1e3)
      .key("hot_suite_ms").value(hot_ms)
      .key("cold_first_pass_ms").value(cold_first_s * 1e3)
      .key("cold_warm_ms").value(cold_warm_ms)
      .key("cold_warm_vs_hot").value(warm_vs_hot)
      .key("segment_loads").value(loads)
      .key("cache_hits").value(hits)
      .key("load_segments")
      .value(static_cast<std::uint64_t>(daily->num_segments()))
      .key("load_rows_per_segment").value(rows_per_segment)
      .key("load_ms").value(stages.load)
      .key("load_read_ms").value(stages.read)
      .key("load_crc_ms").value(stages.crc)
      .key("load_decode_ms").value(stages.decode)
      .key("load_index_ms").value(stages.index)
      .key("checksum").value(sink);
  bench::report_perfbench(
      json,
      {{"write_ms", "storage.write_ms"},
       {"compression_ratio", "storage.bytes_per_event (archive_bytes / events)"},
       {"load_ms", "storage.decode_ms"},
       {"cold_first_pass_ms", "none: segment loads plus the query suite "
                              "(load_ms is the per-segment load)"},
       {"cache_hits", "storage.cache_hit_ratio (hits / (hits + loads))"},
       {"hot_suite_ms", "none: dashboard times its queries per aggregation "
                        "(query.exec_*_ms)"}});
  json.end_object();
  bench::write_json(out_path, json);

  if (ratio < 3.0) {
    std::cerr << "bench_storage: compression " << fixed(ratio, 2)
              << "x is below the 3x baseline\n";
    return 1;
  }
  if (!smoke && warm_vs_hot > 3.0) {
    std::cerr << "bench_storage: cache-warm cold reads are "
              << fixed(warm_vs_hot, 2) << "x hot (limit 3x)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  return run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_storage: " << e.what() << "\n";
  return 1;
}
