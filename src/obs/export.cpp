#include "obs/export.h"

#include <fstream>
#include <string>

#include "common/json.h"

namespace dosm::obs {
namespace {

/// Prometheus HELP text escapes backslash and line feed only.
std::string prom_help_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

/// Prometheus metric name: dosm_ prefix, '.' separators become '_'.
std::string prom_name(const std::string& name) {
  std::string out = "dosm_";
  out.reserve(out.size() + name.size());
  for (const char c : name) out += c == '.' ? '_' : c;
  return out;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + c.name + "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + g.name + "\": " + std::to_string(g.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + h.name + "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_double(h.sum) + ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      out += "{\"le\": \"";
      out += i < h.upper_bounds.size() ? json_double(h.upper_bounds[i])
                                       : std::string("+Inf");
      out += "\", \"n\": " + std::to_string(h.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name);
    if (!c.help.empty())
      out += "# HELP " + name + " " + prom_help_escape(c.help) + "\n";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    if (!g.help.empty())
      out += "# HELP " + name + " " + prom_help_escape(g.help) + "\n";
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name);
    if (!h.help.empty())
      out += "# HELP " + name + " " + prom_help_escape(h.help) + "\n";
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le = i < h.upper_bounds.size()
                                 ? json_double(h.upper_bounds[i])
                                 : std::string("+Inf");
      out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    out += name + "_sum " + json_double(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void write_metrics_file(const std::string& path,
                        const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  const bool prom =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("obs: cannot open metrics file: " + path);
  out << (prom ? to_prometheus(snap) : to_json(snap));
  if (!out) throw std::runtime_error("obs: failed writing metrics file: " + path);
}

}  // namespace dosm::obs
