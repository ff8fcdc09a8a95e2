// Flow aggregation and Moore-threshold classification tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "net/pcap.h"
#include "parallel/detect.h"
#include "telescope/flow_table.h"

namespace dosm::telescope {
namespace {

using net::Ipv4Addr;
using net::IpProto;

BackscatterInfo tcp_info(Ipv4Addr victim, std::uint16_t port) {
  BackscatterInfo info;
  info.victim = victim;
  info.attack_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  info.victim_port = port;
  info.has_port = true;
  return info;
}

TEST(Thresholds, DefaultsMatchPaper) {
  const ClassifierThresholds thresholds;
  EXPECT_EQ(thresholds.min_packets, 25u);
  EXPECT_DOUBLE_EQ(thresholds.min_duration_s, 60.0);
  EXPECT_DOUBLE_EQ(thresholds.min_max_pps, 0.5);
}

TEST(Thresholds, EachThresholdFiltersIndependently) {
  TelescopeEvent event;
  event.packets = 100;
  event.start = 0;
  event.end = 120;
  event.max_pps = 1.0;
  const ClassifierThresholds thresholds;
  EXPECT_TRUE(passes_thresholds(event, thresholds));
  auto few = event;
  few.packets = 24;
  EXPECT_FALSE(passes_thresholds(few, thresholds));
  auto brief = event;
  brief.end = 59.0;
  EXPECT_FALSE(passes_thresholds(brief, thresholds));
  auto weak = event;
  weak.max_pps = 0.49;
  EXPECT_FALSE(passes_thresholds(weak, thresholds));
}

TEST(Thresholds, ExactBoundaryValuesPass) {
  // The paper's cutoffs are inclusive: a flow with exactly 25 packets, a
  // 60 s duration, and 0.5 pps peak is classified as an attack. Pins the
  // strict-< rejections in passes_thresholds.
  TelescopeEvent event;
  event.packets = 25;
  event.start = 0.0;
  event.end = 60.0;
  event.max_pps = 0.5;
  EXPECT_TRUE(passes_thresholds(event, ClassifierThresholds{}));
}

TEST(FlowTable, AggregatesPerVictim) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr v1(1, 1, 1, 1), v2(2, 2, 2, 2);
  for (int i = 0; i < 30; ++i) {
    table.add(100.0 + i, tcp_info(v1, 80), 40, Ipv4Addr(44, 0, 0, 1));
    table.add(100.0 + i, tcp_info(v2, 443), 40, Ipv4Addr(44, 0, 0, 2));
  }
  EXPECT_EQ(table.active_flows(), 2u);
  table.flush();
  ASSERT_EQ(flows.size(), 2u);
  for (const auto& flow : flows) {
    EXPECT_EQ(flow.packets, 30u);
    EXPECT_EQ(flow.num_ports, 1);
    EXPECT_DOUBLE_EQ(flow.start, 100.0);
    EXPECT_DOUBLE_EQ(flow.end, 129.0);
  }
}

TEST(FlowTable, ExpiresAfterTimeout) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); },
                  /*flow_timeout_s=*/300.0);
  const Ipv4Addr victim(1, 1, 1, 1);
  const Ipv4Addr other(2, 2, 2, 2);
  table.add(1000.0, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 1));
  table.add(1010.0, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 2));
  // Another victim's packet just under the timeout sweeps: still active.
  table.add(1010.0 + 299.0, tcp_info(other, 80), 40, Ipv4Addr(44, 0, 0, 3));
  EXPECT_EQ(flows.size(), 0u);
  // Past the timeout (plus sweep granularity): expired.
  table.add(1010.0 + 301.0 + 60.0, tcp_info(other, 80), 40,
            Ipv4Addr(44, 0, 0, 3));
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].victim, victim);
  EXPECT_EQ(flows[0].packets, 2u);
  EXPECT_EQ(table.active_flows(), 1u);  // only the other victim's flow
}

TEST(FlowTable, GapSplitsIntoTwoFlows) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  table.add(0.0, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 1));
  // 10 minutes later: the first flow expires during lazy sweeps.
  table.add(600.0, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 2));
  table.flush();
  EXPECT_EQ(flows.size(), 2u);
}

TEST(FlowTable, TracksDistinctPortsAndTopPort) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  for (int i = 0; i < 10; ++i)
    table.add(100.0 + i, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 1));
  for (int i = 0; i < 4; ++i)
    table.add(110.0 + i, tcp_info(victim, 443), 40, Ipv4Addr(44, 0, 0, 1));
  table.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].num_ports, 2);
  EXPECT_EQ(flows[0].top_port, 80);
  EXPECT_FALSE(flows[0].single_port());
}

TEST(FlowTable, PortCountsKeepIncrementingPastCap) {
  // Once 64 distinct ports are tracked (FlowTable::kMaxTrackedPorts), new
  // ports are dropped — but counts for already-tracked ports must keep
  // incrementing, or top_port misattributes heavy single-port floods that
  // ride alongside a port sweep.
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  const Ipv4Addr src(44, 0, 0, 1);
  // Port 80 twice, then 63 other ports once each: cap reached at 64.
  table.add(100.0, tcp_info(victim, 80), 40, src);
  table.add(100.1, tcp_info(victim, 80), 40, src);
  for (std::uint16_t p = 1000; p < 1063; ++p)
    table.add(100.2, tcp_info(victim, p), 40, src);
  // New ports past the cap are not tracked...
  for (int i = 0; i < 10; ++i)
    table.add(100.3, tcp_info(victim, 9999), 40, src);
  // ...but hits on an existing port still count.
  for (int i = 0; i < 5; ++i)
    table.add(100.4, tcp_info(victim, 1042), 40, src);
  table.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].num_ports, 64);
  EXPECT_EQ(flows[0].top_port, 1042);  // 6 hits beats port 80's 2
}

TEST(FlowTable, MajorityProtocolAttribution) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  BackscatterInfo icmp;
  icmp.victim = victim;
  icmp.attack_proto = static_cast<std::uint8_t>(IpProto::kIcmp);
  for (int i = 0; i < 7; ++i)
    table.add(100.0 + i, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 1));
  for (int i = 0; i < 3; ++i)
    table.add(107.0 + i, icmp, 84, Ipv4Addr(44, 0, 0, 1));
  table.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].attack_proto, static_cast<std::uint8_t>(IpProto::kTcp));
}

TEST(FlowTable, MaxPpsIsPerMinuteMaximum) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  // Minute 1: 60 packets; minute 2: 120 packets.
  for (int i = 0; i < 60; ++i)
    table.add(0.0 + i, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 1));
  for (int i = 0; i < 120; ++i)
    table.add(60.0 + i * 0.5, tcp_info(victim, 80), 40, Ipv4Addr(44, 0, 0, 1));
  table.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_DOUBLE_EQ(flows[0].max_pps, 2.0);  // 120 packets / 60 s
}

TEST(FlowTable, CountsUniqueTelescopeSources) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  for (int i = 0; i < 50; ++i) {
    table.add(100.0 + i, tcp_info(victim, 80), 40,
              Ipv4Addr(44, 0, 0, static_cast<std::uint8_t>(i % 10)));
  }
  table.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].unique_sources, 10u);
}

// The source set is open-addressed with 0 marking an empty slot, so the
// addresses at both ends of the range are the ones a sentinel can swallow
// (0.0.0.0) or wrap onto (255.255.255.255). Each case feeds every source
// twice and expects it counted once, up to the 4096-source cap.
std::uint32_t unique_sources_of(const std::vector<std::uint32_t>& sources) {
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint32_t dst : sources)
      table.add(100.0 + pass, tcp_info(victim, 80), 40, Ipv4Addr(dst));
  }
  table.flush();
  EXPECT_EQ(flows.size(), 1u);
  return flows.empty() ? 0 : flows[0].unique_sources;
}

/// `first`, then `count` distinct addresses inside 44.0.0.0/8, then `last`.
std::vector<std::uint32_t> sources_between(
    const std::vector<std::uint32_t>& first, std::uint32_t count,
    const std::vector<std::uint32_t>& last) {
  std::vector<std::uint32_t> sources = first;
  for (std::uint32_t i = 1; i <= count; ++i)
    sources.push_back(0x2c000000u + i * 97u);
  for (const std::uint32_t value : last) sources.push_back(value);
  return sources;
}

TEST(FlowTable, SourceCapWithExtremeAddresses) {
  constexpr std::uint32_t kZero = 0x00000000u;
  constexpr std::uint32_t kOnes = 0xffffffffu;
  for (const std::uint32_t total : {4095u, 4096u, 4097u}) {
    SCOPED_TRACE("distinct sources: " + std::to_string(total));
    const std::uint32_t expected = std::min(total, 4096u);
    // Both extremes first, both last, and one at each end.
    EXPECT_EQ(unique_sources_of(sources_between({kZero, kOnes}, total - 2, {})),
              expected);
    EXPECT_EQ(unique_sources_of(sources_between({}, total - 2, {kOnes, kZero})),
              expected);
    EXPECT_EQ(unique_sources_of(sources_between({kOnes}, total - 2, {kZero})),
              expected);
  }
  EXPECT_EQ(unique_sources_of({kZero}), 1u);
  EXPECT_EQ(unique_sources_of({kOnes}), 1u);
  EXPECT_EQ(unique_sources_of({kOnes, kZero, kOnes, kZero}), 2u);
}

TEST(FlowTable, SourceSetGrowsAcrossRehashes) {
  // Counts just below, at and above each doubling of the slot vector, with
  // sequential, strided and high-bit-only addresses (the last collide in
  // the low bits, so probe runs cross the wrap of the slot vector).
  for (const std::uint32_t count :
       {1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 100u, 1000u, 2048u, 2049u,
        3000u}) {
    SCOPED_TRACE(count);
    std::vector<std::uint32_t> sequential, strided, high_bits;
    for (std::uint32_t i = 0; i < count; ++i) {
      sequential.push_back(0x2c000001u + i);
      strided.push_back(0x2c000000u + (i + 1) * 4096u);
      high_bits.push_back((i + 1) << 20);
    }
    EXPECT_EQ(unique_sources_of(sequential), count);
    EXPECT_EQ(unique_sources_of(strided), count);
    EXPECT_EQ(unique_sources_of(high_bits), count);
  }
}

TEST(FlowTable, PortCountsRiseForEveryTrackedPortPastCap) {
  // 64 ports fill the cap in ascending order; the first and the last of
  // them then take the lead in turn. Untracked ports never count.
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr victim(1, 1, 1, 1);
  const Ipv4Addr src(44, 0, 0, 1);
  for (std::uint16_t p = 2000; p < 2064; ++p)
    table.add(100.0, tcp_info(victim, p), 40, src);
  for (int i = 0; i < 50; ++i) table.add(101.0, tcp_info(victim, 1), 40, src);
  for (int i = 0; i < 3; ++i) table.add(101.0, tcp_info(victim, 2063), 40, src);
  for (int i = 0; i < 4; ++i) table.add(101.0, tcp_info(victim, 2000), 40, src);
  table.flush();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].num_ports, 64);
  EXPECT_EQ(flows[0].top_port, 2000);  // 5 hits beat 2063's 4 and port 1's 0
}

TEST(FlowTable, TiesBreakByValueWhateverTheArrivalOrder) {
  // Tied ports and protocols arrive highest first, so a first-seen winner
  // would be wrong. Also a three-way tie at the port cap.
  std::vector<TelescopeEvent> events;
  FlowTable table([&](const TelescopeEvent& e) { events.push_back(e); });
  const Ipv4Addr scope(44, 0, 0, 1);
  const Ipv4Addr a(1, 2, 3, 4), b(5, 6, 7, 8);
  auto add = [&](Ipv4Addr victim, double ts, std::uint16_t port,
                 std::uint8_t proto) {
    BackscatterInfo info = tcp_info(victim, port);
    info.attack_proto = proto;
    table.add(ts, info, 40, scope);
  };
  for (int i = 0; i < 2; ++i) {
    add(a, i, 443, 17);
    add(a, i, 80, 6);
  }
  for (std::uint16_t p = 64; p > 0; --p) add(b, 0.0, p, 1);
  const std::uint16_t tied[] = {64, 33, 7};
  for (const std::uint16_t p : tied) add(b, 1.0, p, 1);
  table.flush();
  std::sort(events.begin(), events.end(), event_less);
  ASSERT_EQ(events.size(), 2u);
  const TelescopeEvent& ea = events[0].victim == a ? events[0] : events[1];
  const TelescopeEvent& eb = events[0].victim == a ? events[1] : events[0];
  EXPECT_EQ(ea.top_port, 80);
  EXPECT_EQ(ea.attack_proto, 6);
  EXPECT_EQ(eb.num_ports, 64);
  EXPECT_EQ(eb.top_port, 7);
  EXPECT_EQ(eb.attack_proto, 1);
}

TEST(FlowTable, ManyVictimsAcrossIndexGrowthAndSweeps) {
  // 3,000 victims open flows (the victim index doubles many times), half
  // of them go quiet and are swept (the index is rebuilt smaller), and the
  // rest keep their flows through it.
  std::vector<TelescopeEvent> flows;
  FlowTable table([&](const TelescopeEvent& e) { flows.push_back(e); });
  const Ipv4Addr scope(44, 0, 0, 1);
  for (std::uint32_t v = 0; v < 3000; ++v)
    table.add(100.0, tcp_info(Ipv4Addr(v << 12), 80), 40, scope);
  EXPECT_EQ(table.active_flows(), 3000u);
  for (std::uint32_t v = 0; v < 3000; v += 2)
    table.add(300.0, tcp_info(Ipv4Addr(v << 12), 80), 40, scope);
  table.add(500.0, tcp_info(Ipv4Addr(0), 80), 40, scope);  // sweeps
  EXPECT_EQ(flows.size(), 1500u);
  EXPECT_EQ(table.active_flows(), 1500u);
  for (std::uint32_t v = 0; v < 3000; v += 2)
    table.add(550.0, tcp_info(Ipv4Addr(v << 12), 80), 40, scope);
  table.flush();
  ASSERT_EQ(flows.size(), 3000u);
  std::uint64_t packets = 0;
  for (const auto& flow : flows) {
    const bool even = (flow.victim.value() >> 12) % 2 == 0;
    EXPECT_EQ(flow.packets, even ? (flow.victim.value() == 0 ? 4u : 3u) : 1u);
    packets += flow.packets;
  }
  EXPECT_EQ(packets, 3000u + 1500u + 1u + 1500u);
}

TEST(Detector, FullPathFiltersSubThresholdFlows) {
  BackscatterDetector detector;
  net::PacketRecord rec;
  rec.src = Ipv4Addr(1, 1, 1, 1);
  rec.proto = static_cast<std::uint8_t>(IpProto::kTcp);
  rec.src_port = 80;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  rec.ip_len = 40;
  // Only 10 packets: below the 25-packet threshold.
  for (int i = 0; i < 10; ++i) {
    rec.ts_sec = 1000 + i * 10;
    detector.on_packet(rec);
  }
  EXPECT_EQ(detector.finish().size(), 0u);
  EXPECT_EQ(detector.flows_filtered(), 1u);
  EXPECT_EQ(detector.backscatter_packets(), 10u);
}

TEST(Detector, IgnoresNonBackscatter) {
  BackscatterDetector detector;
  net::PacketRecord scan;
  scan.src = Ipv4Addr(6, 6, 6, 6);
  scan.proto = static_cast<std::uint8_t>(IpProto::kTcp);
  scan.tcp_flags = net::tcp_flags::kSyn;
  for (int i = 0; i < 100; ++i) {
    scan.ts_sec = 1000 + i;
    detector.on_packet(scan);
  }
  EXPECT_EQ(detector.finish().size(), 0u);
  EXPECT_EQ(detector.packets_seen(), 100u);
  EXPECT_EQ(detector.backscatter_packets(), 0u);
}

// Parameterized sweep: tightening any threshold never increases the number
// of accepted events (monotonicity property of the classifier).
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, TighterMeansFewer) {
  const double scale = GetParam();
  auto count_with = [&](const ClassifierThresholds& t) {
    int count = 0;
    // Synthetic flow population with varied stats.
    for (int i = 1; i <= 100; ++i) {
      TelescopeEvent event;
      event.packets = static_cast<std::uint64_t>(i * 3);
      event.start = 0;
      event.end = i * 5.0;
      event.max_pps = i * 0.05;
      if (passes_thresholds(event, t)) ++count;
    }
    return count;
  };
  const ClassifierThresholds base;
  ClassifierThresholds tight;
  tight.min_packets =
      static_cast<std::uint64_t>(static_cast<double>(base.min_packets) * scale);
  tight.min_duration_s = base.min_duration_s * scale;
  tight.min_max_pps = base.min_max_pps * scale;
  if (scale >= 1.0) {
    EXPECT_LE(count_with(tight), count_with(base));
  } else {
    EXPECT_GE(count_with(tight), count_with(base));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ThresholdSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

// Regression: the top-port argmax iterates an unordered_map, and a
// first-wins comparison let the winner among tied counts depend on hash
// iteration order (libstdc++ iterates most-recently-inserted first, so
// inserting 80 before 443 made 443 win). The argmax must be a total order:
// lowest port wins ties.
TEST(FlowTable, TopPortTieBreaksTowardLowestPort) {
  std::vector<TelescopeEvent> events;
  FlowTable table([&](const TelescopeEvent& e) { events.push_back(e); });
  const Ipv4Addr victim(1, 2, 3, 4);
  const Ipv4Addr scope(44, 0, 0, 1);
  table.add(0.0, tcp_info(victim, 80), 40, scope);
  table.add(1.0, tcp_info(victim, 443), 40, scope);
  table.add(2.0, tcp_info(victim, 80), 40, scope);
  table.add(3.0, tcp_info(victim, 443), 40, scope);
  table.flush();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_ports, 2u);
  EXPECT_EQ(events[0].top_port, 80);
}

// Regression: same hash-order tie bug for the attack-protocol vote.
TEST(FlowTable, AttackProtoTieBreaksTowardLowestProto) {
  std::vector<TelescopeEvent> events;
  FlowTable table([&](const TelescopeEvent& e) { events.push_back(e); });
  const Ipv4Addr victim(1, 2, 3, 4);
  const Ipv4Addr scope(44, 0, 0, 1);
  auto vote = [&](double ts, std::uint8_t proto) {
    BackscatterInfo info = tcp_info(victim, 80);
    info.attack_proto = proto;
    table.add(ts, info, 40, scope);
  };
  vote(0.0, 6);
  vote(1.0, 17);
  vote(2.0, 6);
  vote(3.0, 17);
  table.flush();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].attack_proto, 6);
}


// Property: a victim's events depend only on that victim's traffic. The
// sweep that expires idle flows runs at most once per 60 s of stream time
// and is triggered by other victims' packets, so before flows split on the
// victim's own gap, a foreign packet stream could move a sweep past the
// victim's return and fold two attacks into one (or leave them split when
// alone). The sharded detector sees a different foreign stream per shard,
// so it must hold there too.

net::PacketRecord backscatter_from(Ipv4Addr victim, double ts) {
  net::PacketRecord rec;
  rec.ts_sec = static_cast<UnixSeconds>(std::floor(ts));
  rec.ts_usec = static_cast<std::uint32_t>((ts - std::floor(ts)) * 1e6);
  rec.src = victim;
  rec.dst = Ipv4Addr(44, 0, 0, static_cast<std::uint8_t>(rec.ts_sec % 256));
  rec.proto = static_cast<std::uint8_t>(IpProto::kTcp);
  rec.src_port = 80;
  rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  rec.ip_len = 40;
  return rec;
}

net::PacketRecord scan_at(double ts) {
  net::PacketRecord rec = backscatter_from(Ipv4Addr(6, 6, 6, 6), ts);
  rec.tcp_flags = net::tcp_flags::kSyn;  // not backscatter
  return rec;
}

/// Victim V's packets: on-periods of `on_s` seconds at 1 pps, separated by
/// `gap_s` seconds of silence (measured from last to first packet).
std::vector<net::PacketRecord> pulses(Ipv4Addr victim, int count, int on_s,
                                      double gap_s) {
  std::vector<net::PacketRecord> out;
  double t = 1000.0;
  for (int p = 0; p < count; ++p) {
    for (int i = 0; i < on_s; ++i)
      out.push_back(backscatter_from(victim, t + i));
    t += (on_s - 1) + gap_s;
  }
  return out;
}

using EventKey = std::tuple<double, double, std::uint64_t, std::uint64_t,
                            std::uint32_t, std::uint16_t, std::uint16_t,
                            std::uint8_t, double>;

/// Every flow closed for `victim`, in start order: by BackscatterDetector
/// when `shards` is 0, else by ParallelBackscatterDetector over that many
/// victim-hash shards.
std::vector<EventKey> victim_events(std::vector<net::PacketRecord> packets,
                                    Ipv4Addr victim, int shards) {
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::PacketRecord& a, const net::PacketRecord& b) {
                     return a.timestamp() < b.timestamp();
                   });
  // Zero thresholds: every closed flow is an event, so the test sees the
  // split itself rather than what the classifier keeps of it.
  const ClassifierThresholds keep_all{0, 0.0, 0.0};
  std::vector<TelescopeEvent> closed;
  if (shards == 0) {
    BackscatterDetector detector(keep_all);
    for (const auto& rec : packets) detector.on_packet(rec);
    closed = detector.finish();
  } else {
    closed = parallel::ParallelBackscatterDetector({1, shards}, keep_all)
                 .detect(packets);
  }
  std::vector<EventKey> events;
  for (const auto& e : closed) {
    if (e.victim != victim) continue;
    events.emplace_back(e.start, e.end, e.packets, e.bytes, e.unique_sources,
                        e.num_ports, e.top_port, e.attack_proto, e.max_pps);
  }
  std::sort(events.begin(), events.end());
  return events;
}

/// V's packets alone, then with each kind of foreign traffic mixed in from
/// the first packet to past the last: another victim's backscatter at
/// 1 pps, non-backscatter scans at 1 pps, and both at once. The sequential
/// detector and the sharded one at 1, 2 and 13 shards must all close V's
/// flows exactly as the sequential detector does for V alone.
void expect_independent_of_other_traffic(
    const std::vector<net::PacketRecord>& own, std::size_t expected_events) {
  const Ipv4Addr victim = own.front().src;
  const auto alone = victim_events(own, victim, 0);
  EXPECT_EQ(alone.size(), expected_events);
  const double first = own.front().timestamp();
  const double last = own.back().timestamp();
  std::vector<net::PacketRecord> other_victim = own;
  std::vector<net::PacketRecord> scans = own;
  std::vector<net::PacketRecord> both = own;
  for (double t = first - 30.0; t <= last + 30.0; t += 1.0) {
    other_victim.push_back(backscatter_from(Ipv4Addr(9, 9, 9, 9), t));
    scans.push_back(scan_at(t + 0.5));
    both.push_back(backscatter_from(Ipv4Addr(9, 9, 9, 9), t));
    both.push_back(scan_at(t + 0.5));
  }
  for (const int shards : {0, 1, 2, 13}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(victim_events(own, victim, shards), alone) << "alone";
    EXPECT_EQ(victim_events(other_victim, victim, shards), alone)
        << "other victims";
    EXPECT_EQ(victim_events(scans, victim, shards), alone)
        << "non-backscatter";
    EXPECT_EQ(victim_events(both, victim, shards), alone) << "both";
  }
}

TEST(FlowTable, VictimSplitIgnoresOtherTraffic) {
  const Ipv4Addr victim(1, 1, 1, 1);
  // Gaps just under, just over, and straddling one sweep interval past the
  // 300 s timeout.
  for (const double gap : {290.0, 310.0, 359.0, 361.0}) {
    SCOPED_TRACE(gap);
    expect_independent_of_other_traffic(pulses(victim, 2, 61, gap),
                                        gap > 300.0 ? 2u : 1u);
  }
}

TEST(FlowTable, PulseTrainSplitIgnoresOtherTraffic) {
  // Pulse-wave attack: 30 s on, 320 s off, six times. Each pulse is its own
  // attack under the 300 s per-victim timeout.
  const Ipv4Addr victim(1, 1, 1, 1);
  expect_independent_of_other_traffic(pulses(victim, 6, 30, 320.0), 6u);
  // 30 s on, 250 s off: one long attack.
  expect_independent_of_other_traffic(pulses(victim, 6, 30, 250.0), 1u);
}

TEST(Detector, DetectsAttackFromPackets) {
  // A dense flood: 300 packets over 120 seconds.
  BackscatterDetector detector;
  for (int i = 0; i < 300; ++i)
    detector.on_packet(backscatter_from(Ipv4Addr(7, 7, 7, 7), 1000.0 + i * 0.4));
  const auto events = detector.finish();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, Ipv4Addr(7, 7, 7, 7));
  EXPECT_EQ(events[0].packets, 300u);
  EXPECT_EQ(events[0].top_port, 80);
  EXPECT_GE(events[0].max_pps, 2.0);
}

TEST(Detector, ReplaysFromPcapStream) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  net::PcapWriter writer(stream);
  for (int i = 0; i < 100; ++i)
    writer.write_packet(backscatter_from(Ipv4Addr(8, 8, 8, 8), 2000.0 + i));
  net::PcapReader reader(stream);
  BackscatterDetector detector;
  while (auto rec = reader.next_packet()) detector.on_packet(*rec);
  const auto events = detector.finish();
  EXPECT_EQ(detector.packets_seen(), 100u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].packets, 100u);
  EXPECT_NEAR(events[0].duration(), 99.0, 0.01);
}

TEST(Detector, CustomThresholdsAreHonored) {
  ClassifierThresholds strict;
  strict.min_packets = 1000;
  BackscatterDetector detector(strict);
  for (int i = 0; i < 300; ++i)
    detector.on_packet(backscatter_from(Ipv4Addr(7, 7, 7, 7), 1000.0 + i * 0.4));
  EXPECT_EQ(detector.finish().size(), 0u);
  EXPECT_EQ(detector.flows_filtered(), 1u);
}

// Regression: the sequential detector once returned end-of-trace events in
// the flow table's flush order, while the sharded detector sorted, so the
// two paths disagreed on byte order. BackscatterDetector::finish() owns the
// order: it returns (start, victim)-sorted events, for inputs whose raw
// close order is not sorted.
TEST(Detector, EventsAreCanonicallySortedAfterFinish) {
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
  std::vector<std::vector<net::PacketRecord>> inputs(2);
  std::vector<std::size_t> closed = {16, 31};
  for (int i = 16; i >= 1; --i) inputs[0].push_back(backscatter_from(victim(i), 100.0));
  for (int i = 16; i >= 1; --i) inputs[0].push_back(backscatter_from(victim(i), 200.0));
  for (int i = 1; i <= 16; ++i) inputs[1].push_back(backscatter_from(victim(i), 100.0 + i));
  inputs[1].push_back(backscatter_from(victim(16), 380.0));
  for (int i = 1; i <= 15; ++i) inputs[1].push_back(backscatter_from(victim(i), 401.5 + i));

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
  }
}

TEST(BackscatterDetector, RejectsOutOfOrderTimestamps) {
  // ParallelDetect.RejectsOutOfOrderTimestamps' capture: victim A sends a
  // SYN/ACK every 2 s for 2,000 s, and one packet from victim B, stamped
  // 4.0e9 s, sits in the middle. Accepted, it split A into 501 + 500
  // packets at the far-future sweep.
  const Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  BackscatterDetector detector;
  try {
    for (int i = 0; i <= 1000; ++i) {
      detector.on_packet(backscatter_from(a, 1000.0 + 2.0 * i));
      if (i == 500) detector.on_packet(backscatter_from(b, 4.0e9));
    }
    ADD_FAILURE() << "an out-of-order capture was accepted";
  } catch (const std::invalid_argument& e) {
    // Packet 501 is B; packet 502, A again at 2002 s, steps back.
    EXPECT_NE(std::string(e.what()).find("packet 502 is stamped 2002.000000 s, "
                                         "before packet 501 at "
                                         "4000000000.000000 s"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(detector.packets_seen(), 502u);
  // Equal stamps are in order.
  BackscatterDetector ties;
  for (int i = 0; i < 3; ++i) ties.on_packet(backscatter_from(a, 1000.0));
  EXPECT_EQ(ties.packets_seen(), 3u);
}

}  // namespace
}  // namespace dosm::telescope
