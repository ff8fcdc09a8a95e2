// Corsaro-style pipeline tests: plugin dispatch, stats, pcap replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>

#include "telescope/pipeline.h"

namespace dosm::telescope {
namespace {

using net::Ipv4Addr;
using net::IpProto;
using net::PacketRecord;

PacketRecord backscatter_at(double ts, Ipv4Addr victim) {
  PacketRecord rec;
  rec.ts_sec = static_cast<UnixSeconds>(ts);
  rec.ts_usec = static_cast<std::uint32_t>((ts - static_cast<UnixSeconds>(ts)) * 1e6);
  rec.src = victim;
  rec.dst = Ipv4Addr(44, 3, 2, 1);
  rec.proto = static_cast<std::uint8_t>(IpProto::kTcp);
  rec.src_port = 80;
  rec.dst_port = 50000;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  rec.ip_len = 40;
  return rec;
}

class CountingPlugin : public PacketPlugin {
 public:
  std::string name() const override { return "counting"; }
  void on_packet(const PacketRecord&) override { ++packets; }
  void on_end() override { ended = true; }
  int packets = 0;
  bool ended = false;
};

TEST(Pipeline, DispatchesToAllPlugins) {
  Pipeline pipeline;
  auto& a = pipeline.emplace_plugin<CountingPlugin>();
  auto& b = pipeline.emplace_plugin<CountingPlugin>();
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 5; ++i) packets.push_back(backscatter_at(100.0 + i, Ipv4Addr(1, 1, 1, 1)));
  pipeline.replay(packets);
  pipeline.finish();
  EXPECT_EQ(a.packets, 5);
  EXPECT_EQ(b.packets, 5);
  EXPECT_TRUE(a.ended);
  EXPECT_TRUE(b.ended);
}

TEST(Pipeline, RsdosDetectsAttackFromPackets) {
  Pipeline pipeline;
  auto& rsdos = pipeline.emplace_plugin<RsdosPlugin>();
  std::vector<PacketRecord> packets;
  // A dense flood: 300 packets over 120 seconds.
  for (int i = 0; i < 300; ++i)
    packets.push_back(backscatter_at(1000.0 + i * 0.4, Ipv4Addr(7, 7, 7, 7)));
  pipeline.replay(packets);
  pipeline.finish();
  ASSERT_EQ(rsdos.events().size(), 1u);
  const auto& event = rsdos.events()[0];
  EXPECT_EQ(event.victim, Ipv4Addr(7, 7, 7, 7));
  EXPECT_EQ(event.packets, 300u);
  EXPECT_EQ(event.top_port, 80);
  EXPECT_GE(event.max_pps, 2.0);
}

TEST(Pipeline, TrafficStatsCountsProtocols) {
  Pipeline pipeline;
  auto& stats = pipeline.emplace_plugin<TrafficStatsPlugin>();
  std::vector<PacketRecord> packets;
  packets.push_back(backscatter_at(1.0, Ipv4Addr(1, 1, 1, 1)));
  PacketRecord udp;
  udp.proto = static_cast<std::uint8_t>(IpProto::kUdp);
  udp.ip_len = 60;
  packets.push_back(udp);
  pipeline.replay(packets);
  pipeline.finish();
  EXPECT_EQ(stats.total_packets(), 2u);
  EXPECT_EQ(stats.backscatter_packets(), 1u);
  EXPECT_EQ(stats.per_protocol().at(static_cast<std::uint8_t>(IpProto::kTcp)), 1u);
  EXPECT_EQ(stats.per_protocol().at(static_cast<std::uint8_t>(IpProto::kUdp)), 1u);
  EXPECT_EQ(stats.total_bytes(), 100u);
}

TEST(Pipeline, ReplaysFromPcapStream) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  net::PcapWriter writer(stream);
  for (int i = 0; i < 100; ++i)
    writer.write_packet(backscatter_at(2000.0 + i, Ipv4Addr(8, 8, 8, 8)));
  net::PcapReader reader(stream);
  Pipeline pipeline;
  auto& rsdos = pipeline.emplace_plugin<RsdosPlugin>();
  const auto replayed = pipeline.replay(reader);
  pipeline.finish();
  EXPECT_EQ(replayed, 100u);
  ASSERT_EQ(rsdos.events().size(), 1u);
  EXPECT_EQ(rsdos.events()[0].packets, 100u);
  EXPECT_NEAR(rsdos.events()[0].duration(), 99.0, 0.01);
}

TEST(Pipeline, CustomThresholdsAreHonored) {
  ClassifierThresholds strict;
  strict.min_packets = 1000;
  Pipeline pipeline;
  auto& rsdos = pipeline.emplace_plugin<RsdosPlugin>(strict);
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 300; ++i)
    packets.push_back(backscatter_at(1000.0 + i * 0.4, Ipv4Addr(7, 7, 7, 7)));
  pipeline.replay(packets);
  pipeline.finish();
  EXPECT_EQ(rsdos.events().size(), 0u);
  EXPECT_EQ(rsdos.detector().flows_filtered(), 1u);
}

// Regression: the sequential RsdosPlugin once collected end-of-trace events
// in the flow table's flush order, while the sharded detector sorted, so
// the two paths disagreed on byte order. BackscatterDetector::finish() now
// owns the order: it returns (start, victim)-sorted events, and the plugin
// presents exactly that, for inputs whose raw close order is not sorted.
TEST(Pipeline, RsdosEventsAreCanonicallySortedAfterFinish) {
  ClassifierThresholds lax;
  lax.min_packets = 1;
  lax.min_duration_s = 0.0;
  lax.min_max_pps = 0.0;
  const auto victim = [](int i) {
    return Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i));
  };
  // The flow table closes flows in the order they opened, except where a
  // flow reopens in its victim's old slot. First, 16 flows with the same
  // start timestamp open in descending address order, so the canonical
  // order reverses the open order. Second, 16 victims open at 100 + i s; a
  // packet of victim 16 at 380 s runs a sweep that keeps every flow, and
  // victims 1..15 return 301.5 s after their first packet, before the next
  // sweep may run, so each splits and reopens in its old slot with a later
  // start than victim 16's.
  std::vector<std::vector<PacketRecord>> inputs(2);
  std::vector<std::size_t> closed = {16, 31};
  for (int i = 16; i >= 1; --i) inputs[0].push_back(backscatter_at(100.0, victim(i)));
  for (int i = 16; i >= 1; --i) inputs[0].push_back(backscatter_at(200.0, victim(i)));
  for (int i = 1; i <= 16; ++i) inputs[1].push_back(backscatter_at(100.0 + i, victim(i)));
  inputs[1].push_back(backscatter_at(380.0, victim(16)));
  for (int i = 1; i <= 15; ++i) inputs[1].push_back(backscatter_at(401.5 + i, victim(i)));

  const auto canonical = [](const TelescopeEvent& a, const TelescopeEvent& b) {
    return std::tie(a.start, a.victim) < std::tie(b.start, b.victim);
  };
  for (std::size_t input = 0; input < inputs.size(); ++input) {
    SCOPED_TRACE("input " + std::to_string(input));
    const auto& packets = inputs[input];

    std::vector<TelescopeEvent> flushed;
    FlowTable table([&](const TelescopeEvent& e) { flushed.push_back(e); });
    for (const auto& rec : packets)
      table.add(rec.timestamp(), classify_backscatter(rec), rec.ip_len, rec.dst);
    table.flush();
    ASSERT_EQ(flushed.size(), closed[input]);
    ASSERT_FALSE(std::is_sorted(flushed.begin(), flushed.end(), canonical))
        << "the close order is already canonical; the input proves nothing";

    BackscatterDetector detector(lax);
    for (const auto& rec : packets) detector.on_packet(rec);
    const auto events = detector.finish();
    ASSERT_EQ(events.size(), closed[input]);
    EXPECT_TRUE(std::is_sorted(events.begin(), events.end(), canonical));

    Pipeline pipeline;
    auto& rsdos = pipeline.emplace_plugin<RsdosPlugin>(lax);
    pipeline.replay(packets);
    pipeline.finish();
    ASSERT_EQ(rsdos.events().size(), closed[input]);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(rsdos.events()[i].victim, events[i].victim) << "row " << i;
      EXPECT_EQ(rsdos.events()[i].start, events[i].start) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace dosm::telescope
