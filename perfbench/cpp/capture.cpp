// `capture`: the analyst's batch path.
//
// A multi-hour telescope capture from parallel::make_workload is held in
// memory as hourly pcap files, beside each hour's honeypot request logs. One op is one hourly
// file through ingest::read_packets -> parallel telescope detection and
// AmpPot consolidation (2 threads each) -> core lift + StreamingFusion ->
// query::SnapshotPublisher. The last hour of each replay also runs finish()
// and storage::write_archive. No serving layer runs here.
#include <algorithm>
#include <filesystem>
#include <istream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include <malloc.h>
#include <unistd.h>

#include "core/event.h"
#include "core/streaming.h"
#include "harness.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "parallel/detect.h"
#include "parallel/workload.h"
#include "query/engine.h"
#include "query/scan.h"
#include "sim/scenario.h"
#include "storage/archive.h"

namespace perfbench {
namespace {

using namespace dosm;

constexpr double kHour = 3600.0;
constexpr int kThreads = 2;

struct Sizes {
  int hours = 12;
  /// The capture is parallel::make_workload's traffic (the generator the
  /// CLI, bench_parallel and the tests share) with its attack distributions
  /// and noise rates unchanged. Its defaults are 100 direct and 30
  /// reflection attacks per hour; reflection is scaled down to 1 per hour
  /// because at the default rate honeypot logs reach ~20M requests per
  /// hour (320 MB) and consolidation would be nearly all of the op.
  int direct_per_hour = 100;
  int reflection_per_hour = 1;
  /// Replays of the whole capture per --seconds of run time.
  double replays_per_second = 4.5;
};

struct Capture {
  std::unique_ptr<sim::World> world;  // study window + prefix/geo maps
  StudyWindow window;
  std::vector<std::string> pcap;                          // per hour
  std::vector<std::uint64_t> packets;                     // per hour
  /// requests[hour][honeypot]: each honeypot's log, cut into hours.
  std::vector<std::vector<std::vector<amppot::RequestRecord>>> requests;
  std::vector<std::vector<parallel::HoneypotLog>> logs;   // per hour
  std::vector<std::vector<core::AttackEvent>> reference;  // per hour
};

/// The traffic comes from make_workload's default seed whatever --seed is:
/// its calibrated heavy tails (a few reflection attacks carry most honeypot
/// requests) make capture volume differ by large factors from seed to
/// seed, so a per-seed draw would measure a different amount of work in
/// every run. --seed builds the world whose study window and prefix/geo
/// maps the capture is fused and published against.
Capture generate(const Sizes& sizes, std::uint64_t seed) {
  Capture c;
  sim::ScenarioConfig scenario = sim::ScenarioConfig::small();
  scenario.seed = seed;
  c.world = sim::build_world(scenario);
  c.window = c.world->window;

  parallel::WorkloadConfig config;
  config.direct_attacks = sizes.hours * sizes.direct_per_hour;
  config.reflection_attacks = sizes.hours * sizes.reflection_per_hour;
  config.window_s = sizes.hours * kHour;
  parallel::DetectWorkload workload = parallel::make_workload(config);

  // make_workload's capture starts at time 0; move it into the study window.
  const auto offset = c.window.start_time() + static_cast<UnixSeconds>(12 * kHour);
  const auto hours = static_cast<std::size_t>(sizes.hours);
  c.pcap.resize(hours);
  c.packets.resize(hours);
  std::size_t next = 0;
  for (std::size_t h = 0; h < hours; ++h) {
    std::ostringstream out;
    net::PcapWriter writer(out);
    const auto hour_end = static_cast<UnixSeconds>((h + 1) * 3600);
    for (; next < workload.packets.size() && workload.packets[next].ts_sec < hour_end;
         ++next) {
      net::PacketRecord packet = workload.packets[next];
      packet.ts_sec += offset;
      writer.write_packet(packet);
      ++c.packets[h];
    }
    c.pcap[h] = std::move(out).str();
  }
  workload.packets = {};

  c.requests.resize(hours);
  for (const auto& honeypot : workload.fleet->honeypots()) {
    const auto& log = honeypot.log();
    auto from = log.begin();
    for (std::size_t h = 0; h < hours; ++h) {
      const double hour_end = static_cast<double>(h + 1) * kHour;
      const auto to = std::partition_point(
          from, log.end(),
          [&](const amppot::RequestRecord& r) { return r.ts < hour_end; });
      auto& part = c.requests[h].emplace_back(from, to);
      for (auto& r : part) r.ts += static_cast<double>(offset);
      from = to;
    }
  }
  c.logs.resize(hours);
  for (std::size_t h = 0; h < hours; ++h)
    for (std::size_t i = 0; i < c.requests[h].size(); ++i)
      c.logs[h].push_back({workload.fleet->honeypots()[i].id(), c.requests[h][i]});
  return c;
}

bool same_events(const std::vector<telescope::TelescopeEvent>& a,
                 const std::vector<telescope::TelescopeEvent>& b) {
  const auto key = [](const telescope::TelescopeEvent& e) {
    return std::tie(e.victim, e.start, e.end, e.packets, e.bytes,
                    e.unique_sources, e.num_ports, e.top_port, e.attack_proto,
                    e.max_pps);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) { return key(x) == key(y); });
}

bool same_events(const std::vector<amppot::AmpPotEvent>& a,
                 const std::vector<amppot::AmpPotEvent>& b) {
  const auto key = [](const amppot::AmpPotEvent& e) {
    return std::tie(e.victim, e.protocol, e.start, e.end, e.requests,
                    e.honeypots, e.honeypot_id);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) { return key(x) == key(y); });
}

bool same_events(const std::vector<core::AttackEvent>& a,
                 const std::vector<core::AttackEvent>& b) {
  const auto key = [](const core::AttackEvent& e) {
    return std::tie(e.source, e.target, e.start, e.end, e.intensity,
                    e.packets, e.ip_proto, e.num_ports, e.top_port,
                    e.unique_sources, e.reflection, e.honeypots);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) { return key(x) == key(y); });
}

std::vector<core::AttackEvent> lift(
    const std::vector<telescope::TelescopeEvent>& telescope_events,
    const std::vector<amppot::AmpPotEvent>& amppot_events) {
  std::vector<core::AttackEvent> fused;
  fused.reserve(telescope_events.size() + amppot_events.size());
  for (const auto& e : telescope_events) fused.push_back(core::from_telescope(e));
  for (const auto& e : amppot_events) fused.push_back(core::from_amppot(e));
  std::sort(fused.begin(), fused.end(), core::canonical_less);
  return fused;
}

/// The snapshot's aggregates must equal the naive scan over the same events.
bool snapshot_matches_oracle(const query::Snapshot& snapshot,
                             const std::vector<core::AttackEvent>& events,
                             const Capture& c) {
  const query::ScanOracle oracle(events, c.window, c.world->population.pfx2as(),
                                 c.world->population.geo());
  std::vector<query::Query> queries(3);
  queries[1].from_source(core::SourceFilter::kTelescope);
  queries[2].from_source(core::SourceFilter::kHoneypot);
  for (const auto& q : queries) {
    if (snapshot.count(q) != oracle.count(q) ||
        snapshot.unique_targets(q) != oracle.unique_targets(q) ||
        snapshot.top_targets(q, 10) != oracle.top_targets(q, 10) ||
        snapshot.top_asns(q, 10) != oracle.top_asns(q, 10))
      return false;
    const auto daily = snapshot.daily_attacks(q);
    const auto oracle_daily = oracle.daily_attacks(q);
    if (!std::ranges::equal(daily.values(), oracle_daily.values()))
      return false;
    const auto countries = snapshot.country_ranking(q);
    const auto oracle_countries = oracle.country_ranking(q);
    if (!std::equal(countries.begin(), countries.end(),
                    oracle_countries.begin(), oracle_countries.end(),
                    [](const auto& x, const auto& y) {
                      return x.country == y.country && x.targets == y.targets &&
                             x.share == y.share;
                    }))
      return false;
  }
  return snapshot.count({}) == events.size();
}

/// One replay's live state: fusion and publisher restart every replay
/// because both require start-ordered input.
struct Replay {
  query::QueryEngine engine;
  query::SnapshotPublisher publisher;
  core::StreamingFusion fusion;

  explicit Replay(const Capture& c)
      : publisher(engine, c.window,
                  query::BuildContext{c.world->population.pfx2as(),
                                      c.world->population.geo()}),
        fusion(c.window, {}, [](const core::DaySummary&) {}) {}
};

struct OpOutput {
  std::vector<core::AttackEvent> fused;
  std::uint64_t archive_bytes = 0;  // last hour only
};

class Runner {
 public:
  Runner(const Capture& c, std::string archive_path)
      : c_(c), archive_path_(std::move(archive_path)) {}

  /// Runs hour `h` of `replay`; the last hour also finishes the replay and
  /// writes its archive.
  OpOutput op(std::size_t h, Replay& replay, SpanLog& log) {
    OpOutput out;
    std::vector<net::PacketRecord> packets;
    {
      ScopedSpan span(log, "ingest.read");
      ByteStreamBuf buf(c_.pcap[h].data(), c_.pcap[h].size());
      std::istream in(&buf);
      packets = ingest::read_packets(in);
    }
    std::vector<telescope::TelescopeEvent> telescope_events;
    {
      ScopedSpan span(log, "telescope.detect");
      telescope_events = detector_.detect(packets);
    }
    std::vector<amppot::AmpPotEvent> amppot_events;
    {
      ScopedSpan span(log, "amppot.consolidate");
      amppot_events = parallel::parallel_consolidate(c_.logs[h], {},
                                                     {kThreads, 0});
    }
    {
      ScopedSpan span(log, "core.fuse");
      out.fused = lift(telescope_events, amppot_events);
      for (const auto& e : out.fused) replay.fusion.ingest(e);
    }
    {
      ScopedSpan span(log, "query.publish");
      for (const auto& e : out.fused) replay.publisher.ingest(e);
    }
    if (h + 1 == c_.pcap.size()) {
      {
        ScopedSpan span(log, "core.fuse");
        replay.fusion.finish();
      }
      {
        ScopedSpan span(log, "query.publish");
        replay.publisher.finish();
      }
      ScopedSpan span(log, "storage.write");
      out.archive_bytes =
          storage::write_archive(archive_path_, *replay.engine.snapshot());
    }
    return out;
  }

 private:
  const Capture& c_;
  std::string archive_path_;
  parallel::ParallelBackscatterDetector detector_{{kThreads, 0}};
};

struct Section {
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t failed = 0;
};

Section run_section(const Capture& c, Runner& runner, int replays,
                    SpanLog& log) {
  Section s;
  const std::size_t hours = c.pcap.size();
  s.op_ms.reserve(static_cast<std::size_t>(replays) * hours);
  double check_s = 0.0;
  double check_cpu_ms = 0.0;
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  for (int r = 0; r < replays; ++r) {
    Replay replay(c);
    for (std::size_t h = 0; h < hours; ++h) {
      log.set_op(static_cast<std::uint32_t>(s.op_ms.size()));
      const auto op0 = Clock::now();
      OpOutput out;
      {
        ScopedSpan span(log, "op");
        out = runner.op(h, replay, log);
      }
      s.op_ms.push_back(ms_between(op0, Clock::now()));
      log.set_op(kNoOp);
      // The output check is the benchmark's own work: its time is taken
      // out of the section's wall and CPU time.
      const auto check0 = Clock::now();
      const double check_cpu0 = thread_cpu_ms();
      if (!same_events(out.fused, c.reference[h])) ++s.failed;
      check_s += seconds_since(check0);
      check_cpu_ms += thread_cpu_ms() - check_cpu0;
    }
  }
  s.wall_s = seconds_since(t0) - check_s;
  s.cpu_ms = cpu_ms() - cpu0 - check_cpu_ms;
  return s;
}

}  // namespace

Result run_capture(const Options& options) {
  Sizes sizes;
  if (options.smoke) sizes.hours = 4;
  const int replays =
      options.smoke ? 2
                    : std::max(2, static_cast<int>(sizes.replays_per_second *
                                                   options.seconds));
  Result result;
  Capture c = generate(sizes, options.seed);
  // Hand generation's freed buffers back to the kernel, so peak_rss_mb
  // holds the inputs and the ops' memory, not generation's leftovers.
  ::malloc_trim(0);
  const std::string archive_path =
      options.work_dir + "/capture-" + std::to_string(::getpid()) + ".dosarch";

  // Output checks before timing: 2-thread detection and consolidation equal
  // the 1-thread results hour by hour; the 2-thread events become the
  // per-hour reference every timed op is compared against.
  parallel::ParallelBackscatterDetector one_thread({1, 0});
  parallel::ParallelBackscatterDetector two_threads({kThreads, 0});
  std::uint64_t total_packets = 0;
  std::uint64_t total_requests = 0;
  std::uint64_t flows_filtered = 0;
  std::uint64_t telescope_events = 0;
  std::uint64_t amppot_events = 0;
  std::uint64_t backscatter = 0;
  std::uint64_t seen = 0;
  for (std::size_t h = 0; h < c.pcap.size(); ++h) {
    ByteStreamBuf buf(c.pcap[h].data(), c.pcap[h].size());
    std::istream in(&buf);
    const auto packets = ingest::read_packets(in);
    if (packets.size() != c.packets[h]) result.checks_passed = false;
    const auto t1 = one_thread.detect(packets);
    const auto t2 = two_threads.detect(packets);
    const auto a1 = parallel::parallel_consolidate(c.logs[h], {}, {1, 0});
    const auto a2 = parallel::parallel_consolidate(c.logs[h], {}, {kThreads, 0});
    if (!same_events(t1, t2) || !same_events(a1, a2))
      result.checks_passed = false;
    c.reference.push_back(lift(t2, a2));
    total_packets += packets.size();
    for (const auto& log : c.logs[h]) total_requests += log.requests.size();
    flows_filtered += two_threads.stats().flows_filtered;
    telescope_events += t2.size();
    amppot_events += a2.size();
    backscatter += two_threads.stats().backscatter_packets;
    seen += two_threads.stats().packets_seen;
  }
  std::vector<core::AttackEvent> all_events;
  for (const auto& hour : c.reference)
    all_events.insert(all_events.end(), hour.begin(), hour.end());

  // One untimed replay warms the caches and checks the published snapshot.
  Runner runner(c, archive_path);
  SpanLog untraced(false);
  {
    Replay replay(c);
    std::uint64_t archive_bytes = 0;
    for (std::size_t h = 0; h < c.pcap.size(); ++h)
      archive_bytes = runner.op(h, replay, untraced).archive_bytes;
    if (archive_bytes == 0 ||
        !snapshot_matches_oracle(*replay.engine.snapshot(), all_events, c))
      result.checks_passed = false;
  }
  const double setup_s = end_setup();

  const Section timed = run_section(c, runner, replays, untraced);
  result.attempted = timed.op_ms.size();
  result.failed = timed.failed;
  finish_end_to_end(result, timed.op_ms, timed.wall_s, setup_s);
  result.add_record("hours", c.pcap.size());
  result.add_record("replays", static_cast<std::uint64_t>(replays));
  result.add_record("packets", total_packets);
  result.add_record("honeypot_requests", total_requests);
  result.add_record("events", all_events.size());
  result.add_record("threads", static_cast<std::uint64_t>(kThreads));

  if (options.trace) {
    SpanLog log(true);
    const Section traced = run_section(c, runner, replays / 2, log);
    result.attempted += traced.op_ms.size();
    result.failed += traced.failed;
    const TraceSummary summary = summarize({&log}, traced.op_ms.size());

    double read_ms = 0.0;
    for (const double ms : summary.per_op_ms.at("ingest.read")) read_ms += ms;
    std::vector<double> write_ms;
    for (const double ms : summary.per_op_ms.at("storage.write"))
      if (ms > 0.0) write_ms.push_back(ms);
    // The single-thread detection baseline, hour by hour, outside the ops.
    std::vector<double> detect_1t_ms;
    for (std::size_t h = 0; h < c.pcap.size(); ++h) {
      ByteStreamBuf buf(c.pcap[h].data(), c.pcap[h].size());
      std::istream in(&buf);
      const auto packets = ingest::read_packets(in);
      const auto t0 = Clock::now();
      one_thread.detect(packets);
      detect_1t_ms.push_back(ms_between(t0, Clock::now()));
    }
    const double archive_bytes =
        static_cast<double>(std::filesystem::file_size(archive_path));

    result.layer("ingest.read_ms", median_per_op_ms(summary, "ingest.read"),
                 "ms");
    result.layer("ingest.records_per_s",
                 static_cast<double>(total_packets) * (replays / 2) /
                     (read_ms / 1e3),
                 "1/s");
    result.layer("telescope.detect_ms",
                 median_per_op_ms(summary, "telescope.detect"), "ms");
    result.layer("telescope.detect_1t_ms", median(detect_1t_ms), "ms");
    result.layer("telescope.backscatter_share",
                 static_cast<double>(backscatter) / static_cast<double>(seen),
                 "share");
    result.layer("telescope.flows_filtered",
                 static_cast<double>(flows_filtered), "count");
    result.layer("telescope.events", static_cast<double>(telescope_events),
                 "count");
    result.layer("amppot.events", static_cast<double>(amppot_events), "count");
    result.layer("amppot.consolidate_ms",
                 median_per_op_ms(summary, "amppot.consolidate"), "ms");
    result.layer("core.fuse_ms", median_per_op_ms(summary, "core.fuse"), "ms");
    result.layer("query.publish_ms", median_per_op_ms(summary, "query.publish"),
                 "ms");
    result.layer("storage.write_ms", median(write_ms), "ms");
    result.layer("storage.bytes_per_event",
                 archive_bytes / static_cast<double>(all_events.size()),
                 "B/event");
    result.layer("process.cpu_ms_per_op",
                 timed.cpu_ms / static_cast<double>(timed.op_ms.size()), "ms");
    add_trace_metrics(result, summary, timed.op_ms, traced.op_ms);
    write_spans(options, {&log});
  }
  std::filesystem::remove(archive_path);
  return result;
}

}  // namespace perfbench
