#include "core/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "obs/metrics.h"

namespace dosm::core {

namespace {

// Each record is 56 bytes of explicit little-endian fields (see the write
// sequence below); byte-by-byte encoding keeps the format portable across
// hosts regardless of struct padding or endianness.
inline constexpr std::size_t kWireEventBytes = 56;

// Upper bound on the up-front vector reserve in read_events. The header's
// count field is attacker-controlled until the records actually parse, so a
// corrupt dump must not get to pre-allocate count * sizeof(AttackEvent)
// bytes (count=0xFFFFFFFF would be a ~240 GB allocation). Past this bound
// the vector grows geometrically as records prove themselves real.
inline constexpr std::size_t kMaxUpfrontReserve = 65536;

struct SerializeMetrics {
  obs::Counter& events_written;
  obs::Counter& events_read;
  obs::Counter& read_failures;

  static SerializeMetrics& get() {
    static SerializeMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return SerializeMetrics{
          reg.counter("serialize.events_written",
                      "Events written to binary dumps"),
          reg.counter("serialize.events_read",
                      "Events parsed from binary dumps"),
          reg.counter("serialize.read_failures",
                      "Dump reads rejected as truncated or corrupt"),
      };
    }();
    return metrics;
  }
};

template <typename T>
void put_le(std::ostream& out, T value) {
  std::uint8_t bytes[sizeof(T)];
  std::uint64_t raw;
  if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>) {
    std::memcpy(&raw, &value, 8);
  } else {
    raw = static_cast<std::uint64_t>(value);
  }
  for (std::size_t i = 0; i < sizeof(T); ++i)
    bytes[i] = static_cast<std::uint8_t>((raw >> (8 * i)) & 0xff);
  out.write(reinterpret_cast<const char*>(bytes), sizeof(T));
}

template <typename T>
T get_le(std::istream& in) {
  std::uint8_t bytes[sizeof(T)];
  in.read(reinterpret_cast<char*>(bytes), sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T)))
    throw SerializeError("event dump truncated");
  std::uint64_t raw = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    raw |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>) {
    T value;
    std::memcpy(&value, &raw, 8);
    return value;
  } else {
    return static_cast<T>(raw);
  }
}

}  // namespace

void write_events(std::ostream& out, std::span<const AttackEvent> events) {
  if (events.size() > std::size_t{0xffffffff})
    throw SerializeError(
        "event dump: too many events for the 32-bit count field");
  out.write(kEventFileMagic, sizeof(kEventFileMagic));
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(events.size()));
  for (const auto& event : events) {
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(event.source));
    put_le<std::uint8_t>(out, event.ip_proto);
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(event.reflection));
    put_le<std::uint8_t>(out, 0);
    put_le<std::uint32_t>(out, event.target.value());
    put_le<double>(out, event.start);
    put_le<double>(out, event.end);
    put_le<double>(out, event.intensity);
    put_le<std::uint64_t>(out, event.packets);
    put_le<std::uint16_t>(out, event.num_ports);
    put_le<std::uint16_t>(out, event.top_port);
    put_le<std::uint32_t>(out, event.unique_sources);
    put_le<std::uint32_t>(out, event.honeypots);
    put_le<std::uint32_t>(out, 0);
  }
  if (!out) throw SerializeError("event dump write failed");
  SerializeMetrics::get().events_written.add(events.size());
}

std::vector<AttackEvent> read_events(std::istream& in) try {
  char magic[sizeof(kEventFileMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kEventFileMagic, sizeof(magic)) != 0)
    throw SerializeError("not a dosmeter event dump (bad magic)");
  const auto count = get_le<std::uint32_t>(in);
  std::vector<AttackEvent> events;
  events.reserve(std::min<std::size_t>(count, kMaxUpfrontReserve));
  for (std::uint32_t i = 0; i < count; ++i) {
    AttackEvent event;
    const auto source = get_le<std::uint8_t>(in);
    if (source > 1)
      throw SerializeError("event dump corrupt: bad source tag");
    event.source = static_cast<EventSource>(source);
    event.ip_proto = get_le<std::uint8_t>(in);
    const auto reflection = get_le<std::uint8_t>(in);
    if (reflection > static_cast<std::uint8_t>(amppot::ReflectionProtocol::kOther))
      throw SerializeError("event dump corrupt: bad reflection tag");
    event.reflection = static_cast<amppot::ReflectionProtocol>(reflection);
    get_le<std::uint8_t>(in);  // pad
    event.target = net::Ipv4Addr(get_le<std::uint32_t>(in));
    event.start = get_le<double>(in);
    event.end = get_le<double>(in);
    event.intensity = get_le<double>(in);
    if (!std::isfinite(event.start) || !std::isfinite(event.end) ||
        !std::isfinite(event.intensity))
      throw SerializeError("event dump corrupt: non-finite start, end or "
                           "intensity");
    event.packets = get_le<std::uint64_t>(in);
    event.num_ports = get_le<std::uint16_t>(in);
    event.top_port = get_le<std::uint16_t>(in);
    event.unique_sources = get_le<std::uint32_t>(in);
    event.honeypots = get_le<std::uint32_t>(in);
    get_le<std::uint32_t>(in);  // pad
    events.push_back(event);
  }
  SerializeMetrics::get().events_read.add(events.size());
  return events;
} catch (...) {
  SerializeMetrics::get().read_failures.inc();
  throw;
}

void save_events(const std::string& path, std::span<const AttackEvent> events) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializeError("cannot open " + path + " for writing");
  write_events(out, events);
}

std::vector<AttackEvent> load_events(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializeError("cannot open " + path);
  auto events = read_events(in);
  // A concatenated or garbage-suffixed dump must fail loudly rather than
  // silently parse its first section.
  if (in.peek() != std::ifstream::traits_type::eof()) {
    SerializeMetrics::get().read_failures.inc();
    throw SerializeError("event dump corrupt: trailing bytes after last "
                             "record in " + path);
  }
  return events;
}

}  // namespace dosm::core
