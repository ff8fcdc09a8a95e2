// Deterministic compact-JSON building: the one JSON writer behind the API
// response bodies, the metrics exporter and the BENCH_*.json baselines.
//
// Response bytes are part of the serve determinism contract (identical for
// the same query + snapshot version on any worker), so everything here is
// locale-free and allocation-order-free: strings escape a fixed set,
// doubles render via std::to_chars shortest-round-trip, and the writer
// emits members strictly in call order.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dosm {

inline void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Shortest round-trip decimal rendering; byte-stable across runs/locales.
inline std::string json_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

/// Minimal compact-JSON writer. The caller is responsible for well-formed
/// nesting; members/elements are separated automatically. JSON has no NaN
/// or infinity, so value(double) throws std::domain_error on either rather
/// than emit a body no parser accepts.
class JsonWriter {
 public:
  std::string take() && { return std::move(out_); }
  const std::string& str() const { return out_; }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    append_json_escaped(out_, k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    separate();
    append_json_escaped(out_, v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::uint64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(std::int64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(double v) {
    if (!std::isfinite(v))
      throw std::domain_error("JsonWriter: non-finite number");
    return raw(json_double(v));
  }
  JsonWriter& value(bool v) { return raw(v ? "true" : "false"); }

 private:
  JsonWriter& raw(std::string_view text) {
    separate();
    out_ += text;
    return *this;
  }

  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_ = true;
    return *this;
  }

  JsonWriter& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }

  void separate() {
    if (pending_value_) {
      pending_value_ = false;  // key already emitted the ':'
      return;
    }
    if (!first_ && !out_.empty() && out_.back() != '{' && out_.back() != '[')
      out_ += ',';
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
  bool pending_value_ = false;
};

}  // namespace dosm
