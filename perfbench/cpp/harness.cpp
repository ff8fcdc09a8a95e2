#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

void finish_end_to_end(Result& result, const std::vector<double>& op_ms,
                       double wall_s, double setup_s) {
  const double ops = static_cast<double>(op_ms.size());
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_per_s", ops / wall_s, "1/s"},
      {"op_p50_ms", percentile(op_ms, 0.50), "ms"},
      {"op_p99_ms", percentile(op_ms, 0.99), "ms"},
  };
  const std::size_t half = op_ms.size() / 2;
  const double first = median({op_ms.begin(), op_ms.begin() + half});
  const double second = median({op_ms.begin() + half, op_ms.end()});
  result.add_record("ops", op_ms.size());
  for (const auto& [name, p] : {std::pair{"op_p90_ms", 0.90},
                                {"op_p95_ms", 0.95}, {"op_p98_ms", 0.98},
                                {"op_p99.5_ms", 0.995}, {"op_max_ms", 1.0}})
    result.add_record(name, std::to_string(percentile(op_ms, p)));
  result.add_record("timed_wall_s", std::to_string(wall_s));
  result.add_record("first_half_p50_ms", std::to_string(first));
  result.add_record("second_half_p50_ms", std::to_string(second));
}

double end_setup() {
  // Restart the peak (VmHWM) count, so peak_rss_mb covers the timed
  // section only.
  std::ofstream("/proc/self/clear_refs") << "5";
  return seconds_since(kProcessStart);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double rusage_ms(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

}  // namespace

double cpu_ms() { return rusage_ms(RUSAGE_SELF); }
double thread_cpu_ms() { return rusage_ms(RUSAGE_THREAD); }

std::uint64_t registry_counter(std::string_view name) {
  for (const auto& sample :
       dosm::obs::MetricsRegistry::global().snapshot().counters)
    if (sample.name == name) return sample.value;
  return 0;
}

double registry_histogram_sum(std::string_view name) {
  for (const auto& sample :
       dosm::obs::MetricsRegistry::global().snapshot().histograms)
    if (sample.name == name) return sample.sum;
  return 0.0;
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace

std::int32_t SpanLog::begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return id;
}

void SpanLog::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

TraceSummary summarize(const std::vector<const SpanLog*>& logs,
                       std::size_t num_ops) {
  TraceSummary summary;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans)
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.op == kNoOp || span.op >= num_ops) continue;
      const auto duration = static_cast<double>(span.end_ns - span.start_ns);
      const double self = duration - child_ns[i];
      const std::string_view name = span.name;
      if (name == "op") {
        summary.op_wall_ns += duration;
        summary.unattributed_ns += self;
        continue;
      }
      summary.layer_self_ns[layer_of(name)] += self;
      auto& per_op = summary.per_op_ms[std::string(name)];
      if (per_op.empty()) per_op.assign(num_ops, 0.0);
      per_op[span.op] += duration / 1e6;
    }
  }
  return summary;
}

void write_spans(const Options& options,
                 const std::vector<const SpanLog*>& logs) {
  const std::string path =
      options.work_dir + "/spans-" + options.workload + ".tsv";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  out << "# workload " << options.workload << " seed " << options.seed
      << "\n";
  out << "thread\tspan\tparent\top\tname\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t'
          << (s.op == kNoOp ? -1 : static_cast<std::int64_t>(s.op)) << '\t'
          << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

void add_trace_metrics(Result& result, const TraceSummary& summary,
                       const std::vector<double>& untraced_op_ms,
                       const std::vector<double>& traced_op_ms) {
  const double wall = summary.op_wall_ns > 0.0 ? summary.op_wall_ns : 1.0;
  for (const auto& [layer, self_ns] : summary.layer_self_ns)
    result.layer(layer + ".self_share", self_ns / wall, "share");
  result.layer("trace.coverage", 1.0 - summary.unattributed_ns / wall,
               "share");
  add_trace_overhead(result, untraced_op_ms, traced_op_ms);
}

void add_trace_overhead(Result& result,
                        const std::vector<double>& untraced_op_ms,
                        const std::vector<double>& traced_op_ms) {
  const double untraced = median(untraced_op_ms);
  const double traced = median(traced_op_ms);
  result.layer("trace.overhead_ms", traced - untraced, "ms");
  result.layer("trace.overhead_share",
               untraced > 0.0 ? (traced - untraced) / untraced : 0.0, "share");
}

double median_per_op_ms(const TraceSummary& summary, const std::string& name) {
  const auto it = summary.per_op_ms.find(name);
  return it == summary.per_op_ms.end() ? 0.0 : median(it->second);
}

// ---------------------------------------------------------------------------
// HTTP client.
// ---------------------------------------------------------------------------

HttpClient::HttpClient(std::uint16_t port, bool spin) : spin_(spin) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd_);
    throw std::runtime_error("connect() failed");
  }
}

HttpClient::~HttpClient() { ::close(fd_); }

HttpReply HttpClient::get(const std::string& target) {
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send() failed");
    sent += static_cast<std::size_t>(n);
  }
  std::size_t head_end = std::string::npos;
  std::size_t need = std::string::npos;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t field = buffer_.find("Content-Length: ");
        if (field == std::string::npos || field > head_end)
          throw std::runtime_error("response without Content-Length");
        std::size_t length = 0;
        const char* begin = buffer_.data() + field + 16;
        if (std::from_chars(begin, buffer_.data() + head_end, length).ec !=
            std::errc{})
          throw std::runtime_error("bad Content-Length");
        need = head_end + 4 + length;
      }
    }
    if (need != std::string::npos && buffer_.size() >= need) break;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), spin_ ? MSG_DONTWAIT : 0);
    if (n < 0 && spin_ && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) throw std::runtime_error("recv() failed mid-response");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  HttpReply reply;
  if (buffer_.compare(0, 9, "HTTP/1.1 ") == 0)
    std::from_chars(buffer_.data() + 9, buffer_.data() + 12, reply.status);
  reply.body = buffer_.substr(head_end + 4, need - head_end - 4);
  buffer_.erase(0, need);
  return reply;
}

}  // namespace perfbench
