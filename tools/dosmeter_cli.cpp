// dosmeter — command-line runner for the full characterization pipeline.
//
// Builds a simulated world (or a paper-default one), runs every analysis,
// prints a report to stdout, and optionally exports machine-readable CSVs.
//
// Usage:
//   dosmeter [options]
//     --seed N            world seed                  (default 42)
//     --days N            study window length in days (default 731)
//     --domains N         Web domains in the namespace (default 60000)
//     --direct N          ground-truth direct attacks/day      (default 440)
//     --reflection N      ground-truth reflection attacks/day  (default 75)
//     --out DIR           write CSV reports into DIR
//     --quiet             suppress the text report
//     --help
//
//   dosmeter query [world options] [--load-events F] [filters] [aggregations]
//     runs ad-hoc queries against the indexed event store (src/query);
//     its filter/aggregation flags are the /query parameters (src/serve/api.h);
//     see kQueryUsage below.
//
//   dosmeter detect [--seed N] [--threads N] [--save-events F]
//     runs the packet-level detection pipeline (telescope backscatter +
//     honeypot consolidation) over a synthetic capture through the parallel
//     execution layer, one telescope shard per thread; output is
//     byte-identical for any --threads.
//
//   dosmeter metrics [--seed N] [--format table|json|prom] [--out F]
//     exercises every instrumented pipeline layer over a small workload and
//     renders the observability registry (src/obs). `detect` and `query`
//     also accept --metrics-out F to dump their metrics after the run;
//     instrumentation never perturbs analysis output (event dumps are
//     byte-identical with metrics on or off). `--listen` passes through to
//     `dosmeter serve`, whose /metrics endpoint scrapes the same registry
//     live.
//
//   dosmeter serve [world options] [--port N] [--workers N] ...
//     starts the HTTP/JSON query server (src/serve) over a simulated
//     world's snapshot, with a live subscription feed (/subscribe, /watch)
//     replaying the dataset day by day; see kServeUsage below.
//
//   dosmeter watch [world options] [--prefix P] [--asn N] [--kind K] ...
//     registers one subscription predicate, replays the dataset through
//     the push dispatcher (src/subscribe), and prints the notifications a
//     live watcher would have received; its predicate flags are the
//     /subscribe parameters (src/serve/subscribe_api.h); see kWatchUsage.
//
//   dosmeter archive save|load ...
//     seals a snapshot into the compressed on-disk segment archive
//     (src/storage) and queries it back through the tiered hot/cold path;
//     see kArchiveUsage below.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "common/strings.h"
#include "common/table.h"
#include "core/impact.h"
#include "core/joint.h"
#include "core/mail_impact.h"
#include "core/migration_analysis.h"
#include "core/ports.h"
#include "core/serialize.h"
#include "core/streaming.h"
#include "core/taxonomy.h"
#include "dps/classifier.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "parallel/detect.h"
#include "parallel/workload.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "query/summary.h"
#include "serve/api.h"
#include "serve/server.h"
#include "serve/subscribe_api.h"
#include "sim/scenario.h"
#include "storage/archive.h"
#include "storage/tiered.h"
#include "subscribe/dispatcher.h"

namespace {

using namespace dosm;

// Upper bounds that keep a typo from asking for an absurd world or pool.
constexpr int kMaxDays = 100000;
constexpr int kMaxThreads = 1024;

/// Parses all of `text` as a number in [min, max]; nullopt otherwise
/// (trailing bytes, a sign on an unsigned type, NaN, out of range).
template <typename T>
std::optional<T> parse_number(std::string_view text, T min, T max) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !(value >= min && value <= max))
    return std::nullopt;
  return value;
}

/// Walks one subcommand's argv. Every value is parsed in full and range
/// checked; a bad flag prints "<flag>: <why>" and exits 2 after the
/// subcommand's help, before any dataset is loaded.
class Args {
 public:
  Args(int argc, char** argv, int first, std::string_view help)
      : argc_(argc), argv_(argv), next_(first), help_(help) {}

  /// Steps to the next flag (answering --help); false once argv is done.
  bool next() {
    if (next_ >= argc_) return false;
    flag_ = argv_[next_++];
    if (flag_ == "--help" || flag_ == "-h") usage(0);
    return true;
  }

  bool is(std::string_view name) const { return flag_ == name; }

  /// The current flag's value.
  std::string value() {
    if (next_ >= argc_) fail("missing value");
    return argv_[next_++];
  }

  /// The current flag's value as an integer in [min, max].
  template <typename T>
  T integer(T min, T max = std::numeric_limits<T>::max()) {
    const std::string text = value();
    const auto number = parse_number(text, min, max);
    if (!number)
      fail("'" + text + "' is not an integer in [" + std::to_string(min) +
           ", " + std::to_string(max) + "]");
    return *number;
  }

  /// The current flag's value as a finite number >= min.
  double real(double min) {
    const std::string text = value();
    const auto number =
        parse_number(text, min, std::numeric_limits<double>::max());
    if (!number)
      fail("'" + text + "' is not a finite number >= " + fixed(min, 0));
    return *number;
  }

  /// Reads the current flag into `params` as `key=value` if `flags` maps
  /// it to a parameter of the grammar `parse` implements. The value is
  /// checked on its own right away, so an error names the flag.
  template <typename Parse>
  bool param(std::span<const std::pair<std::string_view, std::string_view>> flags,
             const Parse& parse, serve::Params& params) {
    for (const auto& [flag, key] : flags) {
      if (flag_ != flag) continue;
      serve::Params one{{std::string(key), value()}};
      if (const std::string error = parse(one).error; !error.empty())
        fail(error);
      params.push_back(std::move(one.front()));
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::cerr << flag_ << ": " << why << "\n";
    usage(2);
  }
  [[noreturn]] void unknown() const { fail("unknown option"); }

  [[noreturn]] void usage(int code) const {
    std::cout << help_;
    std::exit(code);
  }

 private:
  int argc_;
  char** argv_;
  int next_;
  std::string_view help_;
  std::string flag_;
};

/// `dosmeter query` / `archive load` flags and the /query parameters they
/// set; --explain (no value) sets explain=1.
constexpr std::pair<std::string_view, std::string_view> kQueryFlags[] = {
    {"--from", "from"},       {"--to", "to"},
    {"--source", "source"},   {"--prefix", "prefix"},
    {"--asn", "asn"},         {"--country", "country"},
    {"--port", "port"},       {"--min-intensity", "min_intensity"},
    {"--agg", "agg"},         {"--k", "k"}};

/// Reads the current flag if it is a query filter or aggregation flag.
bool query_flag(Args& args, serve::Params& params) {
  if (args.is("--explain")) {
    params.emplace_back("explain", "1");
    return true;
  }
  return args.param(
      kQueryFlags,
      [](const serve::Params& one) {
        return serve::parse_query_params(one, StudyWindow{});
      },
      params);
}

/// Reads the current flag if it is a world option.
bool world_flag(Args& args, sim::ScenarioConfig& scenario) {
  if (args.is("--seed")) {
    scenario.seed = args.integer<std::uint64_t>(0);
  } else if (args.is("--days")) {
    const int days = args.integer(2, kMaxDays);
    scenario.window.end =
        civil_from_days(days_from_civil(scenario.window.start) + days - 1);
  } else if (args.is("--domains")) {
    scenario.hosting.num_domains = args.integer(1);
  } else if (args.is("--direct")) {
    scenario.attacker.direct_per_day = args.real(0.0);
  } else if (args.is("--reflection")) {
    scenario.attacker.reflection_per_day = args.real(0.0);
  } else {
    return false;
  }
  return true;
}

/// Reads the current flag if it is --segment-days, the snapshot's days per
/// segment (0 = one segment); the output is the same for any value.
bool segment_days_flag(Args& args, int& segment_days) {
  if (!args.is("--segment-days")) return false;
  segment_days = args.integer(0);
  return true;
}

/// Where a subcommand's events come from: a simulated world, or a binary
/// event dump when `load_events` is set.
struct Dataset {
  sim::ScenarioConfig scenario;
  std::string load_events;
};

/// Reads the current flag if it is a dataset option.
bool dataset_flag(Args& args, Dataset& dataset) {
  if (!args.is("--load-events")) return world_flag(args, dataset.scenario);
  dataset.load_events = args.value();
  return true;
}

/// A dataset in memory. A dump carries no AS or geo metadata, so ASN and
/// country filters match nothing on it.
class LoadedDataset {
 public:
  explicit LoadedDataset(const Dataset& dataset)
      : window_(dataset.scenario.window) {
    if (!dataset.load_events.empty()) {
      dump_ = core::load_events(dataset.load_events);
      std::cerr << "[dosmeter] loaded " << dump_.size() << " events from "
                << dataset.load_events << "\n";
    } else {
      std::cerr << "[dosmeter] building " << window_.num_days()
                << "-day world (seed " << dataset.scenario.seed << ")...\n";
      world_ = sim::build_world(dataset.scenario);
    }
  }

  const StudyWindow& window() const { return window_; }

  /// The events in store (world) or file (dump) order.
  std::span<const core::AttackEvent> events() const {
    return world_ ? world_->store.events()
                  : std::span<const core::AttackEvent>(dump_);
  }

  std::shared_ptr<const query::Snapshot> snapshot(
      int segment_days, std::uint64_t version = 0) const {
    const query::BuildContext ctx{
        .pfx2as = pfx2as(), .geo = geo(), .segment_days = segment_days};
    auto snapshot = query::Snapshot::build(window_, events(), ctx, version);
    std::cerr << "[dosmeter] snapshot ready: " << snapshot->size()
              << " events indexed in " << snapshot->num_segments()
              << " segment(s)\n";
    return snapshot;
  }

  subscribe::DispatcherConfig dispatcher_config() const {
    subscribe::DispatcherConfig config;
    config.window = window_;
    if (world_) {
      config.pfx2as = &world_->population.pfx2as();
      config.geo = &world_->population.geo();
    }
    return config;
  }

 private:
  const meta::PrefixToAsMap& pfx2as() const {
    return world_ ? world_->population.pfx2as() : no_pfx2as_;
  }
  const meta::GeoDatabase& geo() const {
    return world_ ? world_->population.geo() : no_geo_;
  }

  StudyWindow window_;
  std::unique_ptr<sim::World> world_;
  std::vector<core::AttackEvent> dump_;
  meta::PrefixToAsMap no_pfx2as_;
  meta::GeoDatabase no_geo_;
};

/// Replays events one study day at a time through streaming fusion and
/// the dispatcher, which is also fusion's alert sink: day-level spike
/// alerts dispatch alongside the per-event new-attack alerts. The
/// dispatcher ticks at each day boundary, then the replay sleeps `pause`.
void replay_days(std::span<const core::AttackEvent> events,
                 const StudyWindow& window, subscribe::Dispatcher& dispatcher,
                 std::chrono::milliseconds pause = {}) {
  std::vector<core::AttackEvent> sorted(events.begin(), events.end());
  std::sort(sorted.begin(), sorted.end(), core::canonical_less);
  core::StreamingFusion fusion(window, {}, [](const core::DaySummary&) {},
                               &dispatcher);
  int open_day = -1;
  for (const auto& event : sorted) {
    const auto t = static_cast<UnixSeconds>(event.start);
    const int day = window.contains(t) ? window.day_of(t) : -1;
    if (day != open_day && open_day != -1) {
      dispatcher.tick();
      std::this_thread::sleep_for(pause);
    }
    open_day = day;
    fusion.ingest(event);
    dispatcher.ingest(event);
  }
  fusion.finish();
  dispatcher.tick();
}

/// Both detectors' events as one canonically ordered list.
std::vector<core::AttackEvent> fuse(
    std::span<const telescope::TelescopeEvent> telescope_events,
    std::span<const amppot::AmpPotEvent> honeypot_events) {
  std::vector<core::AttackEvent> events;
  events.reserve(telescope_events.size() + honeypot_events.size());
  for (const auto& event : telescope_events)
    events.push_back(core::from_telescope(event));
  for (const auto& event : honeypot_events)
    events.push_back(core::from_amppot(event));
  std::sort(events.begin(), events.end(), core::canonical_less);
  return events;
}

void write_events(const std::string& path,
                  std::span<const core::AttackEvent> events) {
  if (path.empty()) return;
  core::save_events(path, events);
  std::cerr << "[dosmeter] wrote " << events.size() << " events to " << path
            << "\n";
}

void write_metrics(const std::string& path) {
  if (path.empty()) return;
  obs::write_metrics_file(path, obs::MetricsRegistry::global());
  std::cerr << "[dosmeter] wrote metrics to " << path << "\n";
}

// ---------------------------------------------------------------------------
// `dosmeter` — the full report over a simulated world.
// ---------------------------------------------------------------------------

struct Options {
  sim::ScenarioConfig scenario;
  std::string out_dir;
  std::string save_events;  // binary event dump to write
  bool quiet = false;
};

constexpr std::string_view kUsage =
    "dosmeter — macroscopic DoS-ecosystem characterization\n"
    "  --seed N        world seed (default 42)\n"
    "  --days N        study window length in days (default 731)\n"
    "  --domains N     Web domains in the namespace (default 60000)\n"
    "  --direct N      ground-truth direct attacks/day (default 440)\n"
    "  --reflection N  ground-truth reflection attacks/day (default 75)\n"
    "  --out DIR       write CSV reports into DIR\n"
    "  --save-events F write the detected events as a binary dump\n"
    "  --quiet         suppress the text report\n"
    "subcommands:\n"
    "  dosmeter query --help    ad-hoc queries over the event store\n"
    "  dosmeter detect --help   packet-level parallel detection\n"
    "  dosmeter metrics --help  pipeline observability view\n"
    "  dosmeter serve --help    HTTP/JSON query server\n"
    "  dosmeter watch --help    push-based subscription replay\n"
    "  dosmeter archive --help  on-disk segment archives\n";

Options parse_options(int argc, char** argv) {
  Options options;
  Args args(argc, argv, 1, kUsage);
  while (args.next()) {
    if (world_flag(args, options.scenario)) continue;
    if (args.is("--out")) options.out_dir = args.value();
    else if (args.is("--save-events")) options.save_events = args.value();
    else if (args.is("--quiet")) options.quiet = true;
    else args.unknown();
  }
  return options;
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << content;
}

// ---------------------------------------------------------------------------
// `dosmeter detect` — packet-level detection via the parallel pipeline.
// ---------------------------------------------------------------------------

struct DetectOptions {
  parallel::WorkloadConfig workload;
  parallel::ParallelConfig parallel;
  ingest::IngestOptions ingest;
  std::string pcap_in;
  std::string save_pcap;
  std::string save_events;
  std::string metrics_out;
  bool quiet = false;
};

constexpr std::string_view kDetectUsage =
    "dosmeter detect — packet-level detection (sharded parallel pipeline)\n"
    "  --seed N        workload seed (default 42)\n"
    "  --direct N      ground-truth spoofed attacks (default 400)\n"
    "  --reflection N  ground-truth reflection attacks (default 120)\n"
    "  --hours H       capture window length in hours (default 4)\n"
    "  --pcap F        replay a pcap capture through the batched ingest\n"
    "                  front end (src/ingest) instead of the synthetic\n"
    "                  workload; telescope detection only. A malformed\n"
    "                  record or a packet stamped before its predecessor\n"
    "                  exits 2\n"
    "  --batch-frames N   frames per ingest batch (default 4096)\n"
    "  --ring-capacity N  ingest ring capacity in batches (default 8)\n"
    "  --save-pcap F   write the synthetic telescope capture to F\n"
    "                  (LINKTYPE_RAW) and exit\n"
    "  --threads N     worker threads (default 1)\n"
    "  --save-events F write the fused events as a binary dump\n"
    "  --metrics-out F write pipeline metrics after the run\n"
    "                  (.prom -> Prometheus text, else JSON)\n"
    "  --quiet         suppress the text summary\n"
    "Output is byte-identical for every --threads setting, every\n"
    "--batch-frames/--ring-capacity setting, and with or without\n"
    "--metrics-out.\n";

DetectOptions parse_detect_options(int argc, char** argv) {
  DetectOptions options;
  Args args(argc, argv, 2, kDetectUsage);
  while (args.next()) {
    if (args.is("--seed")) {
      options.workload.seed = args.integer<std::uint64_t>(0);
    } else if (args.is("--direct")) {
      options.workload.direct_attacks = args.integer(0);
    } else if (args.is("--reflection")) {
      options.workload.reflection_attacks = args.integer(0);
    } else if (args.is("--hours")) {
      options.workload.window_s = args.real(0.0) * 3600.0;
    } else if (args.is("--threads")) {
      options.parallel.threads = args.integer(1, kMaxThreads);
    } else if (args.is("--pcap")) {
      options.pcap_in = args.value();
    } else if (args.is("--save-pcap")) {
      options.save_pcap = args.value();
    } else if (args.is("--batch-frames")) {
      options.ingest.batch_frames = args.integer<std::size_t>(1, 1 << 24);
    } else if (args.is("--ring-capacity")) {
      options.ingest.ring_capacity = args.integer<std::size_t>(1, 1 << 16);
    } else if (args.is("--save-events")) {
      options.save_events = args.value();
    } else if (args.is("--metrics-out")) {
      options.metrics_out = args.value();
    } else if (args.is("--quiet")) {
      options.quiet = true;
    } else {
      args.unknown();
    }
  }
  return options;
}

int detect_main(int argc, char** argv) {
  const DetectOptions options = parse_detect_options(argc, argv);

  // --pcap: the capture comes from a file through the batched ingest front
  // end instead of the synthetic workload generator (telescope path only —
  // there are no honeypot logs in a pcap).
  std::vector<net::PacketRecord> capture_packets;
  std::unique_ptr<amppot::HoneypotFleet> fleet;
  if (!options.pcap_in.empty()) {
    std::ifstream pcap(options.pcap_in, std::ios::binary);
    if (!pcap) {
      std::cerr << "cannot open " << options.pcap_in << "\n";
      return 2;
    }
    try {
      capture_packets = ingest::read_packets(pcap, options.ingest);
    } catch (const std::runtime_error& e) {
      std::cerr << "--pcap: " << options.pcap_in << ": " << e.what() << "\n";
      return 2;
    }
    std::cerr << "[dosmeter] capture: " << capture_packets.size()
              << " packets from " << options.pcap_in << " (batched ingest, "
              << options.parallel.threads << " threads)\n";
  } else {
    auto workload = parallel::make_workload(options.workload);
    capture_packets = std::move(workload.packets);
    fleet = std::move(workload.fleet);
    std::cerr << "[dosmeter] capture: " << capture_packets.size()
              << " telescope packets, " << fleet->total_requests()
              << " honeypot requests (" << options.parallel.threads
              << " threads)\n";
  }

  if (!options.save_pcap.empty()) {
    std::ofstream out(options.save_pcap, std::ios::binary);
    if (!out) {
      std::cerr << "cannot write " << options.save_pcap << "\n";
      return 2;
    }
    net::PcapWriter writer(out);
    for (const auto& rec : capture_packets) writer.write_packet(rec);
    std::cerr << "[dosmeter] wrote " << writer.frames_written()
              << " frames to " << options.save_pcap << "\n";
    return 0;
  }

  parallel::ParallelBackscatterDetector detector(options.parallel);
  std::vector<telescope::TelescopeEvent> telescope_events;
  try {
    telescope_events = detector.detect(capture_packets);
  } catch (const std::invalid_argument& e) {
    // A capture out of time order is bad input, like a malformed record.
    if (options.pcap_in.empty()) throw;
    std::cerr << "--pcap: " << options.pcap_in << ": " << e.what() << "\n";
    return 2;
  }
  const std::vector<amppot::AmpPotEvent> honeypot_events =
      fleet ? parallel::parallel_harvest(*fleet, {}, options.parallel)
            : std::vector<amppot::AmpPotEvent>{};

  const std::vector<core::AttackEvent> events =
      fuse(telescope_events, honeypot_events);

  if (!options.quiet) {
    const auto& stats = detector.stats();
    print_section(std::cout, "Packet-level detection");
    TextTable table({"stage", "count"});
    table.add_row({"telescope packets", std::to_string(stats.packets_seen)});
    table.add_row({"backscatter packets",
                   std::to_string(stats.backscatter_packets)});
    table.add_row({"flows under thresholds",
                   std::to_string(stats.flows_filtered)});
    table.add_row({"telescope events", std::to_string(telescope_events.size())});
    table.add_row({"honeypot events", std::to_string(honeypot_events.size())});
    std::cout << table;
  }

  write_events(options.save_events, events);
  write_metrics(options.metrics_out);
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter query` — ad-hoc queries against the indexed event store.
// ---------------------------------------------------------------------------

struct QueryOptions {
  Dataset dataset;
  serve::Params params;  // /query parameters, one per filter flag
  int segment_days = 0;
  std::string metrics_out;
};

constexpr std::string_view kQueryUsage =
    "dosmeter query — ad-hoc queries over the fused event dataset\n"
    "dataset (pick one):\n"
    "  --seed/--days/--domains/--direct/--reflection   simulate a world\n"
    "  --load-events F   query a binary event dump (dosmeter --save-events);\n"
    "                    ASN/country columns resolve only with a simulated\n"
    "                    world, so those filters match nothing on a dump\n"
    "filters (ANDed):\n"
    "  --from YYYY-MM-DD     events starting on/after this day\n"
    "  --to YYYY-MM-DD       events starting on/before this day\n"
    "  --source S            telescope | honeypot | combined\n"
    "  --prefix A.B.C.D/L    target inside the CIDR prefix\n"
    "  --asn N               origin AS of the target\n"
    "  --country CC          geolocated country of the target\n"
    "  --port N              dominant victim port\n"
    "  --min-intensity X     raw intensity >= X\n"
    "aggregation:\n"
    "  --agg A    summary | daily | top-targets | top-asns | top-countries\n"
    "             | events   (default: summary)\n"
    "  --k N      rows for top-k / events listings (default 10)\n"
    "  --segment-days N  days per sealed snapshot segment (default 0 =\n"
    "               one segment; identical output for any value)\n"
    "  --explain  print the planner's chosen access path\n"
    "  --metrics-out F  write pipeline metrics after the run\n"
    "                   (.prom -> Prometheus text, else JSON)\n";

/// Runs one /query call and prints its table — shared by `dosmeter query`
/// (in-memory snapshots) and `dosmeter archive load` (tiered snapshots), so
/// both paths render byte-identical output for the same dataset.
void print_aggregation(const query::Snapshot& snapshot,
                       const serve::Params& params) {
  const serve::ApiCall call =
      serve::parse_query_params(params, snapshot.window());
  if (!call.error.empty()) throw std::invalid_argument(call.error);
  const query::Query& q = call.query;
  const std::string& agg = call.agg;
  const std::size_t k = call.k;
  std::cout << "query: " << query::to_string(q) << "\n";
  if (call.explain)
    std::cout << "plan:  " << query::to_string(snapshot.plan(q)) << "\n";

  if (agg == "summary") {
    std::cout << "events:         " << snapshot.count(q) << "\n";
    std::cout << "unique targets: " << snapshot.unique_targets(q) << "\n";
  } else if (agg == "daily") {
    const auto daily = snapshot.daily_attacks(q);
    TextTable table({"date", "attacks"});
    for (int d = 0; d < daily.num_days(); ++d) {
      if (daily.at(d) == 0.0) continue;
      table.add_row({to_string(snapshot.window().date_of_day(d)),
                     fixed(daily.at(d), 0)});
    }
    std::cout << table;
  } else if (agg == "top-targets") {
    TextTable table({"target", "events"});
    for (const auto& row : snapshot.top_targets(q, k))
      table.add_row({row.target.to_string(), std::to_string(row.events)});
    std::cout << table;
  } else if (agg == "top-asns") {
    TextTable table({"asn", "targets", "events"});
    for (const auto& row : snapshot.top_asns(q, k))
      table.add_row({"AS" + std::to_string(row.asn),
                     std::to_string(row.targets), std::to_string(row.events)});
    std::cout << table;
  } else if (agg == "top-countries") {
    TextTable table({"country", "targets", "share"});
    for (const auto& row : snapshot.top_countries(q, k))
      table.add_row({row.country.to_string(), std::to_string(row.targets),
                     percent(row.share, 2)});
    std::cout << table;
  } else {  // events
    const auto rows = snapshot.match_rows(q);
    TextTable table({"start", "target", "source", "intensity", "port"});
    const std::span<const std::uint32_t> listed(rows.data(),
                                                std::min(rows.size(), k));
    for (const auto& row : snapshot.event_rows(listed))
      table.add_row({fixed(row.start, 0), row.target.to_string(),
                     row.source == core::EventSource::kTelescope
                         ? "telescope"
                         : "honeypot",
                     fixed(row.intensity, 2), std::to_string(row.top_port)});
    std::cout << table;
    if (rows.size() > k)
      std::cout << "(" << rows.size() - k << " more rows; raise --k)\n";
  }
}

QueryOptions parse_query_options(int argc, char** argv) {
  QueryOptions options;
  Args args(argc, argv, 2, kQueryUsage);
  while (args.next()) {
    if (dataset_flag(args, options.dataset) ||
        query_flag(args, options.params) ||
        segment_days_flag(args, options.segment_days))
      continue;
    if (args.is("--metrics-out"))
      options.metrics_out = args.value();
    else
      args.unknown();
  }
  return options;
}

int query_main(int argc, char** argv) {
  const QueryOptions options = parse_query_options(argc, argv);
  const LoadedDataset data(options.dataset);
  print_aggregation(*data.snapshot(options.segment_days), options.params);
  write_metrics(options.metrics_out);
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter metrics` — exercise every instrumented layer, show the registry.
// ---------------------------------------------------------------------------

struct MetricsOptions {
  std::uint64_t seed = 42;
  std::string format = "table";  // table | json | prom
  std::string out;
  std::optional<serve::ServerConfig> listen;  // keep serving /metrics live
};

constexpr std::string_view kMetricsUsage =
    "dosmeter metrics — pipeline observability view\n"
    "Runs a small end-to-end workload through every instrumented layer\n"
    "(telescope flow table, honeypot fleet, parallel workers, streaming\n"
    "fusion, query engine) and renders the metrics registry.\n"
    "  --seed N       workload seed (default 42)\n"
    "  --format F     table | json | prom (default table)\n"
    "  --out F        also write the registry to F (.prom -> Prometheus)\n"
    "  --listen [A:]P keep running and serve the registry live at\n"
    "                 http://A:P/metrics — a passthrough to the query\n"
    "                 server (`dosmeter serve`), which scrapes the same\n"
    "                 process-wide registry and adds its own serve.*\n"
    "                 series (requests, cache, admission drops, latency)\n";

MetricsOptions parse_metrics_options(int argc, char** argv) {
  MetricsOptions options;
  Args args(argc, argv, 2, kMetricsUsage);
  while (args.next()) {
    if (args.is("--seed")) {
      options.seed = args.integer<std::uint64_t>(0);
    } else if (args.is("--format")) {
      options.format = args.value();
      if (options.format != "table" && options.format != "json" &&
          options.format != "prom")
        args.fail("must be table|json|prom");
    } else if (args.is("--out")) {
      options.out = args.value();
    } else if (args.is("--listen")) {  // [ADDR:]PORT
      const std::string listen = args.value();
      const std::size_t colon = listen.rfind(':');
      options.listen.emplace();
      if (colon != std::string::npos)
        options.listen->bind_address = listen.substr(0, colon);
      // Without a colon, colon + 1 wraps to 0: the whole text is the port.
      const auto port = parse_number<std::uint16_t>(
          std::string_view(listen).substr(colon + 1), 0, 65535);
      if (!port) args.fail("'" + listen + "' is not [ADDR:]PORT");
      options.listen->port = *port;
    } else {
      args.unknown();
    }
  }
  return options;
}

int metrics_main(int argc, char** argv) {
  const MetricsOptions options = parse_metrics_options(argc, argv);

  // 1. Packet-level detection (telescope + amppot + parallel metrics).
  parallel::WorkloadConfig workload_config;
  workload_config.seed = options.seed;
  workload_config.direct_attacks = 40;
  workload_config.reflection_attacks = 12;
  workload_config.window_s = 3600.0;
  auto workload = parallel::make_workload(workload_config);
  const parallel::ParallelConfig pc{2, 0};
  parallel::ParallelBackscatterDetector detector(pc);
  const auto telescope_events = detector.detect(workload.packets);
  const auto honeypot_events = parallel::parallel_harvest(*workload.fleet, {}, pc);

  std::vector<core::AttackEvent> events =
      fuse(telescope_events, honeypot_events);

  // 2. Streaming fusion + serving layer (fusion, serialize, query metrics).
  // Workload timestamps are capture-relative seconds; shift them into the
  // study window so both fusion and the snapshot accept them.
  const StudyWindow window = sim::ScenarioConfig{}.window;
  const auto base = static_cast<double>(window.start_time());
  for (auto& event : events) {
    event.start += base;
    event.end += base;
  }
  core::StreamingFusion fusion(window, {}, [](const core::DaySummary&) {});
  for (const auto& event : events) fusion.ingest(event);
  fusion.finish();

  const meta::PrefixToAsMap empty_pfx2as;
  const meta::GeoDatabase empty_geo;
  query::QueryEngine engine;
  engine.publish(query::Snapshot::build(
      window, events, query::BuildContext{empty_pfx2as, empty_geo}, 1));
  const auto snapshot = engine.snapshot();
  snapshot->count(query::Query());  // full scan
  query::Query by_time;
  by_time.between(base, base + 1800.0);
  snapshot->count(by_time);  // time-range plan
  if (!events.empty()) {
    query::Query by_target;
    by_target.in_prefix(net::Prefix(events.front().target, 32));
    snapshot->count(by_target);  // postings plan + clipping
  }

  std::cerr << "[dosmeter] exercised " << events.size()
            << " events through detection, fusion, and serving layers\n";

  // 3. Render the registry.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  if (options.format == "json") {
    std::cout << obs::to_json(snap);
  } else if (options.format == "prom") {
    std::cout << obs::to_prometheus(snap);
  } else {
    print_section(std::cout, "Counters");
    TextTable counters({"metric", "value", "help"});
    for (const auto& c : snap.counters)
      counters.add_row({c.name, std::to_string(c.value), c.help});
    std::cout << counters;
    if (!snap.gauges.empty()) {
      print_section(std::cout, "Gauges");
      TextTable gauges({"metric", "value", "help"});
      for (const auto& g : snap.gauges)
        gauges.add_row({g.name, std::to_string(g.value), g.help});
      std::cout << gauges;
    }
    if (!snap.histograms.empty()) {
      print_section(std::cout, "Histograms");
      TextTable hists({"metric", "count", "mean_ms", "help"});
      for (const auto& h : snap.histograms) {
        const double mean_ms =
            h.count ? h.sum / static_cast<double>(h.count) * 1e3 : 0.0;
        hists.add_row({h.name, std::to_string(h.count), fixed(mean_ms, 3),
                       h.help});
      }
      std::cout << hists;
    }
  }
  write_metrics(options.out);
  if (options.listen) {
    const serve::Server server(*options.listen, engine);
    std::cerr << "[dosmeter] serving metrics at http://"
              << options.listen->bind_address << ":" << server.port()
              << "/metrics (Ctrl-C to stop)\n";
    std::promise<void>().get_future().wait();  // serve until killed
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter serve` — the HTTP/JSON query server (src/serve).
// ---------------------------------------------------------------------------

struct ServeOptions {
  Dataset dataset;
  serve::ServerConfig server;
  int segment_days = 0;
  int tick_millis = 100;
};

constexpr std::string_view kServeUsage =
    "dosmeter serve — HTTP/JSON query server over the fused event dataset\n"
    "dataset (pick one):\n"
    "  --seed/--days/--domains/--direct/--reflection   simulate a world\n"
    "  --load-events F   serve a binary event dump (dosmeter --save-events)\n"
    "server:\n"
    "  --address A       bind address (default 127.0.0.1)\n"
    "  --port N          TCP port (default 8080; 0 picks an ephemeral\n"
    "                    port, printed on startup)\n"
    "  --workers N       worker threads (default 4)\n"
    "  --queue N         pending-connection capacity; beyond it the\n"
    "                    acceptor answers 429 (default 64)\n"
    "  --cache-bytes N   result-cache budget in bytes (default 8 MiB;\n"
    "                    0 disables caching)\n"
    "  --max-rows N      per-query row budget -> 422 (default unlimited)\n"
    "  --max-millis N    per-query time budget -> 422 (default unlimited)\n"
    "  --segment-days N  days per snapshot segment (default 0 = one)\n"
    "subscriptions:\n"
    "  --tick-millis N   delay between replayed study days on the live\n"
    "                    alert feed (default 100; 0 replays instantly).\n"
    "                    The dataset's events stream through the push\n"
    "                    dispatcher day by day, so /subscribe + /watch\n"
    "                    clients see a live feed.\n"
    "endpoints: /  /healthz  /metrics  /query  /subscribe  /watch — see\n"
    "src/serve/api.h for the /query parameters (same filters as\n"
    "`dosmeter query`) and src/serve/subscribe_api.h for /subscribe and\n"
    "/watch.\n";

ServeOptions parse_serve_options(int argc, char** argv) {
  ServeOptions options;
  options.server.port = 8080;
  Args args(argc, argv, 2, kServeUsage);
  while (args.next()) {
    if (dataset_flag(args, options.dataset) ||
        segment_days_flag(args, options.segment_days))
      continue;
    if (args.is("--address")) {
      options.server.bind_address = args.value();
    } else if (args.is("--port")) {
      options.server.port = args.integer<std::uint16_t>(0);
    } else if (args.is("--workers")) {
      options.server.workers = args.integer<std::size_t>(1, kMaxThreads);
    } else if (args.is("--queue")) {
      options.server.queue_capacity = args.integer<std::size_t>(0);
    } else if (args.is("--cache-bytes")) {
      options.server.cache_bytes = args.integer<std::size_t>(0);
    } else if (args.is("--max-rows")) {
      options.server.max_rows = args.integer<std::uint64_t>(0);
    } else if (args.is("--max-millis")) {
      options.server.max_millis = args.integer<std::uint64_t>(0);
    } else if (args.is("--tick-millis")) {
      options.tick_millis = args.integer(0);
    } else {
      args.unknown();
    }
  }
  return options;
}

int serve_main(int argc, char** argv) {
  const ServeOptions options = parse_serve_options(argc, argv);
  const LoadedDataset data(options.dataset);
  query::QueryEngine engine;
  engine.publish(data.snapshot(options.segment_days, /*version=*/1));

  subscribe::Dispatcher dispatcher(data.dispatcher_config());
  const serve::Server server(options.server, engine, &dispatcher);
  std::cerr << "[dosmeter] serving at http://" << options.server.bind_address
            << ":" << server.port() << "/query (" << options.server.workers
            << " workers, queue " << options.server.queue_capacity
            << ", cache " << options.server.cache_bytes
            << " bytes; Ctrl-C to stop)\n";

  // Live feed: replay the dataset day by day so /subscribe + /watch
  // clients get a stream instead of a fait accompli.
  std::thread replay([&options, &data, &dispatcher] {
    replay_days(data.events(), data.window(), dispatcher,
                std::chrono::milliseconds(options.tick_millis));
    std::cerr << "[dosmeter] replay complete: "
              << dispatcher.events_ingested()
              << " events dispatched to subscribers\n";
  });
  std::promise<void>().get_future().wait();  // serve until killed
  replay.join();                             // unreachable; keeps the thread owned
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter watch` — replay a dataset through the subscription dispatcher.
// ---------------------------------------------------------------------------

struct WatchOptions {
  Dataset dataset;
  serve::Params params;  // /subscribe predicate parameters
  std::size_t max = 50;
};

constexpr std::string_view kWatchUsage =
    "dosmeter watch — replay a dataset through the subscription layer\n"
    "Registers one subscription, replays the dataset's events through the\n"
    "push dispatcher (one tick per study day, streaming-fusion spike\n"
    "alerts included), and prints the notifications a live watcher would\n"
    "have received. The same predicate fields drive the query server's\n"
    "/subscribe + /watch endpoints (`dosmeter serve`).\n"
    "dataset (pick one):\n"
    "  --seed/--days/--domains/--direct/--reflection   simulate a world\n"
    "  --load-events F   replay a binary event dump (dosmeter\n"
    "                    --save-events); ASN/country resolve only with a\n"
    "                    simulated world, so those filters match nothing\n"
    "                    on a dump\n"
    "predicate (ANDed; none = firehose):\n"
    "  --prefix A.B.C.D/L  victim inside the CIDR prefix\n"
    "  --asn N             victim's origin AS\n"
    "  --country CC        victim's geolocated country\n"
    "  --proto N           IP protocol of the attack (6=TCP, 17=UDP)\n"
    "  --kind K            new-attack | attack-spike | target-spike\n"
    "output:\n"
    "  --max N             notifications to print (default 50; 0 = all)\n";

/// `dosmeter watch` flags and the /subscribe parameters they set.
constexpr std::pair<std::string_view, std::string_view> kWatchFlags[] = {
    {"--prefix", "prefix"}, {"--asn", "asn"},   {"--country", "country"},
    {"--proto", "proto"},   {"--kind", "kind"}};

WatchOptions parse_watch_options(int argc, char** argv) {
  WatchOptions options;
  Args args(argc, argv, 2, kWatchUsage);
  while (args.next()) {
    if (dataset_flag(args, options.dataset) ||
        args.param(kWatchFlags, serve::parse_predicate_params, options.params))
      continue;
    if (args.is("--max"))
      options.max = args.integer<std::size_t>(0);
    else
      args.unknown();
  }
  return options;
}

int watch_main(int argc, char** argv) {
  const WatchOptions options = parse_watch_options(argc, argv);
  const serve::ApiCall call = serve::parse_predicate_params(options.params);
  if (!call.error.empty()) throw std::invalid_argument(call.error);

  const LoadedDataset data(options.dataset);
  subscribe::Dispatcher dispatcher(data.dispatcher_config());
  const subscribe::SubscriptionId id = dispatcher.subscribe(call.predicate);
  std::cerr << "[dosmeter] watching " << call.predicate.to_string()
            << " over " << data.events().size() << " events\n";
  replay_days(data.events(), data.window(), dispatcher);

  const auto result = dispatcher.fetch(id, 0, options.max);
  if (!result) {
    std::cerr << "dosmeter: subscription vanished mid-replay\n";
    return 1;
  }
  TextTable table({"seq", "kind", "day", "victim", "asn", "cc", "proto",
                   "intensity", "folds"});
  for (const auto& n : result->notifications) {
    const core::Alert& alert = n.alert;
    if (alert.has_event) {
      table.add_row(
          {std::to_string(n.seq), core::to_string(alert.kind),
           std::to_string(alert.day), alert.event.target.to_string(),
           alert.asn == meta::kUnknownAsn ? "-"
                                          : "AS" + std::to_string(alert.asn),
           alert.country.is_set() ? alert.country.to_string() : "-",
           std::to_string(alert.event.ip_proto),
           fixed(alert.event.intensity, 1), std::to_string(n.coalesced)});
    } else {
      table.add_row({std::to_string(n.seq), core::to_string(alert.kind),
                     std::to_string(alert.day),
                     fixed(alert.value, 0) + " vs " + fixed(alert.baseline, 1),
                     "-", "-", "-", "-", std::to_string(n.coalesced)});
    }
  }
  std::cout << table;
  std::cout << result->notifications.size() << " notification(s)";
  if (result->pending > 0)
    std::cout << ", " << result->pending << " more queued (raise --max)";
  std::cout << "; " << result->dropped << " dropped; "
            << dispatcher.alerts_dispatched() << " alerts dispatched total\n";
  return 0;
}

// ---------------------------------------------------------------------------
// `dosmeter archive` — seal snapshots to disk, query them back tiered.
// ---------------------------------------------------------------------------

struct ArchiveOptions {
  std::string mode;  // save | load
  std::string file;
  // save:
  Dataset dataset;
  int segment_days = 7;
  // load:
  int hot_days = 0;
  std::size_t cache_bytes = 64u << 20;
  serve::Params params;  // /query parameters
  std::string metrics_out;
};

constexpr std::string_view kArchiveUsage =
    "dosmeter archive — compressed on-disk segment archives (src/storage)\n"
    "  dosmeter archive save --file F [dataset]\n"
    "                        [--segment-days N (default 7)]\n"
    "    seals the dataset's snapshot segments into archive F and prints\n"
    "    the compression ratio vs the raw in-memory columns.\n"
    "    dataset: --seed/--days/--domains/--direct/--reflection to\n"
    "    simulate a world, or --load-events F for a binary event dump.\n"
    "  dosmeter archive load --file F [--hot-days N] [--cache-bytes N]\n"
    "                        [filters] [--agg A] [--k N] [--explain]\n"
    "                        [--metrics-out F]\n"
    "    opens F as a tiered snapshot — the trailing --hot-days stay\n"
    "    resident, everything older decodes on demand through an LRU\n"
    "    cache of --cache-bytes (0 = no cache) — and runs one query.\n"
    "    Filters and aggregations are those of `dosmeter query`; results\n"
    "    are byte-identical to querying the archived dataset in memory,\n"
    "    for any --hot-days / --cache-bytes.\n";

ArchiveOptions parse_archive_options(int argc, char** argv) {
  ArchiveOptions options;
  Args args(argc, argv, 3, kArchiveUsage);
  if (argc < 3) args.usage(2);
  options.mode = argv[2];
  if (options.mode == "--help" || options.mode == "-h") args.usage(0);
  if (options.mode != "save" && options.mode != "load") {
    std::cerr << "archive mode must be save|load\n";
    args.usage(2);
  }
  while (args.next()) {
    if (dataset_flag(args, options.dataset) ||
        query_flag(args, options.params) ||
        segment_days_flag(args, options.segment_days))
      continue;
    if (args.is("--file"))
      options.file = args.value();
    else if (args.is("--hot-days"))
      options.hot_days = args.integer(0);
    else if (args.is("--cache-bytes"))
      options.cache_bytes = args.integer<std::size_t>(0);
    else if (args.is("--metrics-out"))
      options.metrics_out = args.value();
    else
      args.unknown();
  }
  if (options.file.empty()) {
    std::cerr << "archive " << options.mode << " needs --file\n";
    args.usage(2);
  }
  return options;
}

int archive_main(int argc, char** argv) {
  const ArchiveOptions options = parse_archive_options(argc, argv);

  if (options.mode == "save") {
    const LoadedDataset data(options.dataset);
    const auto snapshot = data.snapshot(options.segment_days);
    const std::uint64_t archive_bytes =
        storage::write_archive(options.file, *snapshot);
    const std::uint64_t raw_bytes = snapshot->size() * 42;  // SoA bytes/row
    std::cout << "archived " << snapshot->size() << " events in "
              << snapshot->num_segments() << " segment(s) to " << options.file
              << "\n";
    std::cout << "bytes: " << archive_bytes << " compressed vs " << raw_bytes
              << " raw columns (" << fixed(double(raw_bytes) /
                                               double(std::max<std::uint64_t>(
                                                   archive_bytes, 1)),
                                           2)
              << "x)\n";
    return 0;
  }

  // load: open tiered, run one query through the hot/cold machinery.
  const meta::PrefixToAsMap empty_pfx2as;
  const meta::GeoDatabase empty_geo;
  query::BuildContext ctx{empty_pfx2as, empty_geo};
  ctx.hot_days = options.hot_days;
  ctx.cold_cache_bytes = options.cache_bytes;
  const auto snapshot = storage::open_tiered(options.file, ctx, /*version=*/1);
  std::cerr << "[dosmeter] opened " << options.file << ": " << snapshot->size()
            << " events in " << snapshot->num_segments() << " segment(s), "
            << (snapshot->fully_resident() ? "all hot" : "tiered") << "\n";
  print_aggregation(*snapshot, options.params);
  write_metrics(options.metrics_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "query") return query_main(argc, argv);
  if (command == "detect") return detect_main(argc, argv);
  if (command == "metrics") return metrics_main(argc, argv);
  if (command == "serve") return serve_main(argc, argv);
  if (command == "watch") return watch_main(argc, argv);
  if (command == "archive") return archive_main(argc, argv);
  const Options options = parse_options(argc, argv);
  const auto& config = options.scenario;

  std::cerr << "[dosmeter] building " << config.window.num_days()
            << "-day world (seed " << config.seed << ", "
            << config.hosting.num_domains << " domains)...\n";
  const auto world = sim::build_world(config);
  std::cerr << "[dosmeter] " << world->store.size() << " detected events ("
            << world->truth.size() << " ground-truth attacks)\n";

  const auto snapshot = query::Snapshot::from_store(
      world->store, {world->population.pfx2as(), world->population.geo()});
  const dps::Classifier classifier(world->providers, world->names);
  const auto timelines = dps::all_timelines(world->dns, classifier);
  const core::ImpactAnalysis impact(world->store, world->dns);
  const core::MailImpactAnalysis mail(world->store, world->dns);
  const core::JointAttackAnalysis joint(world->store);
  const auto taxonomy = core::classify_websites(impact, timelines, world->dns);
  const core::MigrationAnalysis migration(impact, timelines);

  if (!options.quiet) {
    print_section(std::cout, "Attack events");
    TextTable table({"source", "#events", "#targets", "#/24s", "#ASNs"});
    for (const auto filter :
         {core::SourceFilter::kTelescope, core::SourceFilter::kHoneypot,
          core::SourceFilter::kCombined}) {
      const auto summary =
          query::summarize(*snapshot, query::Query{}.from_source(filter));
      table.add_row({core::to_string(filter),
                     human_count(double(summary.events)),
                     human_count(double(summary.unique_targets)),
                     human_count(double(summary.unique_slash24)),
                     human_count(double(summary.unique_asns))});
    }
    std::cout << table;
    std::cout << "joint: " << joint.common_targets() << " common targets, "
              << joint.joint_targets() << " simultaneous\n";

    print_section(std::cout, "Web impact");
    std::cout << "sites ever on attacked IPs: " << impact.attacked_domains()
              << "/" << impact.web_domains() << " ("
              << percent(impact.attacked_domain_fraction(), 1) << "); daily "
              << fixed(impact.affected_daily().daily_mean(), 0) << " ("
              << percent(impact.affected_daily().daily_mean() /
                             double(impact.web_domains()),
                         2)
              << ")\n";
    std::cout << "mail: " << mail.affected_domains() << "/"
              << mail.mail_domains() << " domains' MX hosts attacked\n";

    print_section(std::cout, "DPS taxonomy");
    std::cout << render_taxonomy(taxonomy);
    std::cout << "attack-driven migration cases: " << migration.cases().size()
              << "\n";
  }

  write_events(options.save_events, world->store.events());

  if (!options.out_dir.empty()) {
    const std::filesystem::path dir(options.out_dir);
    std::filesystem::create_directories(dir);

    // Daily series CSV.
    const auto days = query::summarize_daily(*snapshot, query::Query{});
    TextTable daily({"date", "attacks", "unique_targets", "targeted_slash16",
                     "targeted_asns", "affected_sites", "affected_mail"});
    for (int d = 0; d < static_cast<int>(days.size()); ++d) {
      const auto& day = days[static_cast<std::size_t>(d)];
      daily.add_row({to_string(world->window.date_of_day(d)),
                     std::to_string(day.events),
                     std::to_string(day.unique_targets),
                     std::to_string(day.unique_slash16),
                     std::to_string(day.unique_asns),
                     fixed(impact.affected_daily().at(d), 0),
                     fixed(mail.affected_daily().at(d), 0)});
    }
    write_file(dir / "daily.csv", daily.to_csv());

    // Provider counts CSV.
    const auto counts = dps::provider_customer_counts(timelines, world->providers);
    TextTable providers({"provider", "customers"});
    for (const auto& provider : world->providers.all())
      providers.add_row({provider.name, std::to_string(counts[provider.id])});
    write_file(dir / "providers.csv", providers.to_csv());

    // Events CSV (every detected event).
    TextTable events({"source", "target", "start_unix", "duration_s",
                      "intensity", "protocol"});
    for (const auto& event : world->store.events()) {
      events.add_row(
          {event.is_telescope() ? "telescope" : "honeypot",
           event.target.to_string(), fixed(event.start, 0),
           fixed(event.duration(), 0), fixed(event.intensity, 3),
           event.is_telescope() ? core::service_name(event.top_port, true)
                                : amppot::to_string(event.reflection)});
    }
    write_file(dir / "events.csv", events.to_csv());

    // Migration cases CSV.
    TextTable cases({"domain", "trigger_day", "migration_day", "delay_days",
                     "site_max_intensity"});
    for (const auto& mc : migration.cases()) {
      cases.add_row({world->dns.entry(mc.domain).name,
                     std::to_string(mc.trigger_attack_day),
                     std::to_string(mc.migration_day),
                     std::to_string(mc.delay_days),
                     fixed(mc.site_max_intensity, 5)});
    }
    write_file(dir / "migrations.csv", cases.to_csv());

    std::cerr << "[dosmeter] wrote daily.csv, providers.csv, events.csv, "
                 "migrations.csv to "
              << dir << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "dosmeter: " << e.what() << "\n";
  return 1;
}
