// Event-dump serialization tests: round-trip fidelity, corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>

#include "core/serialize.h"
#include "query/summary.h"
#include "sim/scenario.h"

namespace dosm::core {
namespace {

AttackEvent sample_event(int i) {
  AttackEvent event;
  event.source = i % 2 ? EventSource::kHoneypot : EventSource::kTelescope;
  event.target = net::Ipv4Addr(static_cast<std::uint32_t>(0x0a000000 + i));
  event.start = 1.4e9 + i * 1000.5;
  event.end = event.start + 300.25;
  event.intensity = 3.14159 * i;
  event.packets = 1000u + static_cast<std::uint64_t>(i);
  event.ip_proto = 6;
  event.num_ports = static_cast<std::uint16_t>(i % 5);
  event.top_port = static_cast<std::uint16_t>(80 + i);
  event.unique_sources = static_cast<std::uint32_t>(10 * i);
  event.reflection = amppot::ReflectionProtocol::kNtp;
  event.honeypots = static_cast<std::uint32_t>(i % 24);
  return event;
}

TEST(Serialize, RoundTripPreservesEveryField) {
  std::vector<AttackEvent> events;
  for (int i = 0; i < 50; ++i) events.push_back(sample_event(i));
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_events(stream, events);
  const auto loaded = read_events(stream);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].source, events[i].source);
    EXPECT_EQ(loaded[i].target, events[i].target);
    EXPECT_DOUBLE_EQ(loaded[i].start, events[i].start);
    EXPECT_DOUBLE_EQ(loaded[i].end, events[i].end);
    EXPECT_DOUBLE_EQ(loaded[i].intensity, events[i].intensity);
    EXPECT_EQ(loaded[i].packets, events[i].packets);
    EXPECT_EQ(loaded[i].ip_proto, events[i].ip_proto);
    EXPECT_EQ(loaded[i].num_ports, events[i].num_ports);
    EXPECT_EQ(loaded[i].top_port, events[i].top_port);
    EXPECT_EQ(loaded[i].unique_sources, events[i].unique_sources);
    EXPECT_EQ(loaded[i].reflection, events[i].reflection);
    EXPECT_EQ(loaded[i].honeypots, events[i].honeypots);
  }
}

TEST(Serialize, EmptyDumpRoundTrips) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_events(stream, {});
  EXPECT_TRUE(read_events(stream).empty());
}

TEST(Serialize, RejectsBadMagic) {
  std::istringstream in("NOTANEVENTDUMP", std::ios::binary);
  EXPECT_THROW(read_events(in), SerializeError);
  std::istringstream empty("", std::ios::binary);
  EXPECT_THROW(read_events(empty), SerializeError);
}

TEST(Serialize, RejectsTruncation) {
  std::vector<AttackEvent> events{sample_event(0), sample_event(1)};
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_events(stream, events);
  std::string data = stream.str();
  data.resize(data.size() - 10);
  std::istringstream cut(data, std::ios::binary);
  EXPECT_THROW(read_events(cut), SerializeError);
}

TEST(Serialize, RejectsBadSourceTag) {
  std::vector<AttackEvent> events{sample_event(0)};
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_events(stream, events);
  std::string data = stream.str();
  data[12] = '\x7f';  // the first record's source byte
  std::istringstream bad(data, std::ios::binary);
  EXPECT_THROW(read_events(bad), SerializeError);
}

TEST(Serialize, RejectsBadReflectionTag) {
  std::vector<AttackEvent> events{sample_event(0)};
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_events(stream, events);
  std::string data = stream.str();
  // Byte 14 is the first record's reflection tag (8 magic + 4 count +
  // source + ip_proto). kOther (8) is the largest valid value.
  data[14] = '\x09';
  std::istringstream bad(data, std::ios::binary);
  EXPECT_THROW(read_events(bad), SerializeError);
  data[14] = '\xff';
  std::istringstream worse(data, std::ios::binary);
  EXPECT_THROW(read_events(worse), SerializeError);
}

TEST(Serialize, RejectsNonFiniteTimesAndIntensity) {
  // A NaN intensity would reach /query bodies as a bare `nan`; an infinite
  // start would land on no day. Neither may load.
  for (const int field : {0, 1, 2}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::vector<AttackEvent> events{sample_event(0), sample_event(1)};
      (field == 0 ? events[1].start
                  : field == 1 ? events[1].end : events[1].intensity) = bad;
      std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
      write_events(stream, events);
      EXPECT_THROW(read_events(stream), SerializeError)
          << "field " << field << " = " << bad;
    }
  }
}

TEST(Serialize, HostileHeaderCountDoesNotOverAllocate) {
  // A corrupt dump claiming 0xFFFFFFFF records used to reserve ~240 GB
  // before the first truncated read could throw. The reserve is now bounded,
  // so the hostile header must fail as plain truncation (SerializeError,
  // never std::bad_alloc / OOM).
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_events(stream, {});
  std::string data = stream.str();
  for (std::size_t i = 0; i < 4; ++i) data[8 + i] = '\xff';  // count = 0xFFFFFFFF
  std::istringstream hostile(data, std::ios::binary);
  EXPECT_THROW(read_events(hostile), SerializeError);
}

TEST(Serialize, WriteThrowsWhenCountOverflowsWireField) {
  // A span can claim more events than the 32-bit count field can hold; the
  // old static_cast silently truncated the header and produced a dump whose
  // tail would be rejected as garbage on load. The fabricated span below is
  // never dereferenced because the size check throws first.
  const AttackEvent one;
  const std::span<const AttackEvent> huge(&one, std::size_t{0x100000000ull});
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(write_events(stream, huge), SerializeError);
  EXPECT_TRUE(stream.str().empty());  // nothing written before the throw
}

TEST(Serialize, LoadRejectsTrailingBytes) {
  const std::string path = "/tmp/dosm_serialize_trailing_test.bin";
  std::vector<AttackEvent> events{sample_event(0), sample_event(1)};
  {
    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    write_events(stream, events);
    std::string data = stream.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    // A concatenated second dump and a single garbage byte must both fail.
    out << data << data;
  }
  EXPECT_THROW(load_events(path), SerializeError);
  {
    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    write_events(stream, events);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << stream.str() << '\0';
  }
  EXPECT_THROW(load_events(path), SerializeError);
  // The pristine dump still loads.
  save_events(path, events);
  EXPECT_EQ(load_events(path).size(), events.size());
  std::remove(path.c_str());
}

TEST(Serialize, FileRoundTripAndStagedReanalysis) {
  // The staged-deployment use case: dump a world's detected events, reload
  // them into a fresh EventStore, and get identical rollups.
  const auto world = sim::build_world(sim::ScenarioConfig::small());
  const std::string path = "/tmp/dosm_serialize_test.bin";
  std::vector<AttackEvent> events(world->store.events().begin(),
                                  world->store.events().end());
  save_events(path, events);

  const auto loaded = load_events(path);
  EventStore restored(world->window);
  for (const auto& event : loaded) restored.add(event);
  restored.finalize();

  const query::BuildContext ctx{world->population.pfx2as(),
                                world->population.geo()};
  const auto original = query::summarize(
      *query::Snapshot::from_store(world->store, ctx), query::Query{});
  const auto reloaded = query::summarize(
      *query::Snapshot::from_store(restored, ctx), query::Query{});
  EXPECT_EQ(original.events, reloaded.events);
  EXPECT_EQ(original.unique_targets, reloaded.unique_targets);
  EXPECT_EQ(original.unique_slash24, reloaded.unique_slash24);
  EXPECT_EQ(original.unique_asns, reloaded.unique_asns);
  std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsMissingFile) {
  EXPECT_THROW(load_events("/nonexistent/path/events.bin"), SerializeError);
}

TEST(Serialize, FailuresThrowTheDedicatedErrorType) {
  // Legacy catch sites keep working (SerializeError IS-A runtime_error)...
  static_assert(std::is_base_of_v<std::runtime_error, SerializeError>);
  // ...but the thrown object is the dedicated type, with a useful message.
  std::istringstream empty(std::string(), std::ios::binary);
  try {
    read_events(empty);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

}  // namespace
}  // namespace dosm::core
