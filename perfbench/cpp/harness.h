// Shared pieces of the end-to-end benchmark: options, the result record,
// per-op latency statistics, in-memory span tracing, process counters and a
// minimal loopback HTTP client.
//
// Every workload fixes its work (op count and op order come from the seed
// and --seconds, never from a stopwatch), times each op, and fills a Result.
// main.cpp prints the result as the driver's one-line JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;  // lint:allow(wall-clock): benchmarks time real execution

/// Set when the process starts (static initialization); setup_s runs from
/// here to the first timed op.
extern const Clock::time_point kProcessStart;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Small inputs and few ops, output checks on: the benchmark's own test.
  bool smoke = false;
  /// Directory for scratch files (archives) and the span dump.
  std::string work_dir = ".bench_build/perfbench";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// Output checks made before timing all passed.
  bool checks_passed = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload sizes and settings, printed on the record line.
  std::vector<std::pair<std::string, std::string>> record;

  void add_record(std::string key, std::string value) {
    record.emplace_back(std::move(key), std::move(value));
  }
  void add_record(std::string key, std::uint64_t value) {
    record.emplace_back(std::move(key), std::to_string(value));
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Fills the five end-to-end metrics from the timed section: per-op
/// latencies in op order, its wall time and the set-up time. Also records
/// the first-half / second-half median ratio the steadiness script reads.
void finish_end_to_end(Result& result, const std::vector<double>& op_ms,
                       double wall_s, double setup_s);

/// Ends set-up: restarts the peak resident set count and returns setup_s,
/// the seconds since process start.
double end_setup();
/// Peak resident set size of this process since end_setup(), in MB.
double peak_rss_mb();
/// User + system CPU time of this process (all threads), in ms.
double cpu_ms();
/// User + system CPU time of the calling thread, in ms.
double thread_cpu_ms();

/// Current value of a counter in obs::MetricsRegistry::global(), 0 if the
/// counter is not registered.
std::uint64_t registry_counter(std::string_view name);

/// Current sum of a histogram in obs::MetricsRegistry::global(), 0 if the
/// histogram is not registered.
double registry_histogram_sum(std::string_view name);

/// Read-only streambuf over bytes owned elsewhere, so an in-memory pcap
/// file can be handed to the istream readers without a copy.
class ByteStreamBuf : public std::streambuf {
 public:
  ByteStreamBuf(const char* data, std::size_t size) {
    // setg() takes char*; a get area is only ever read.
    char* begin = const_cast<char*>(data);
    setg(begin, begin, begin + size);
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory by the benchmark's own code around calls
// into each layer, written out when the run ends.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kNoOp = std::numeric_limits<std::uint32_t>::max();

struct Span {
  const char* name = "";  // "<layer>.<call>" string literal, or "op"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same SpanLog, -1 for a root
  std::uint32_t op = kNoOp;
};

/// One thread's spans. A disabled log records nothing and costs a branch.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  bool on() const { return on_; }
  void set_op(std::uint32_t op) { op_ = op; }
  std::int32_t begin(const char* name);
  void end(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::uint32_t op_ = kNoOp;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.on() ? log.begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// What the spans of the timed ops say: self time per layer and the
/// per-op total of each span name.
struct TraceSummary {
  double op_wall_ns = 0.0;
  double unattributed_ns = 0.0;  // self time of the "op" root spans
  std::map<std::string, double> layer_self_ns;
  /// span name -> per-op summed duration in ms, indexed by op id.
  std::map<std::string, std::vector<double>> per_op_ms;
};

TraceSummary summarize(const std::vector<const SpanLog*>& logs,
                       std::size_t num_ops);

/// Writes every span as tab-separated lines to
/// <work_dir>/spans-<workload>.tsv, replacing the previous traced run's.
void write_spans(const Options& options,
                 const std::vector<const SpanLog*>& logs);

/// Adds the self-time share of each layer that has spans, the trace
/// coverage (share of op wall time inside layer spans) and the tracing
/// overhead.
void add_trace_metrics(Result& result, const TraceSummary& summary,
                       const std::vector<double>& untraced_op_ms,
                       const std::vector<double>& traced_op_ms);

/// Adds the tracing overhead: traced minus untraced op p50, in ms and as a
/// share of the untraced p50.
void add_trace_overhead(Result& result,
                        const std::vector<double>& untraced_op_ms,
                        const std::vector<double>& traced_op_ms);

/// Median over ops of a span name's per-op total, 0 if never recorded.
double median_per_op_ms(const TraceSummary& summary, const std::string& name);

// ---------------------------------------------------------------------------
// Loopback HTTP/1.1 keep-alive client.
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string body;
};

class HttpClient {
 public:
  /// `spin`: wait for responses by polling the socket instead of sleeping
  /// in recv(), so the client's own wake-up stays out of the latency it
  /// measures. Long-polls should not spin.
  HttpClient(std::uint16_t port, bool spin);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one GET and reads exactly one response. Throws on I/O errors.
  HttpReply get(const std::string& target);

 private:
  int fd_ = -1;
  bool spin_;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

Result run_capture(const Options& options);
Result run_dashboard(const Options& options);
Result run_live(const Options& options);

}  // namespace perfbench
