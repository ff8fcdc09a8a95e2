// Failure-injection and deterministic-fuzz robustness tests: the packet
// parser and pcap reader must survive arbitrary malformed input (throwing
// cleanly or skipping), never crashing or reading out of bounds — a live
// telescope sees every kind of garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "parallel/detect.h"
#include "telescope/flow_table.h"

namespace dosm::net {
namespace {

/// One SYN/ACK per second, from `victims` victims in turn.
std::vector<std::uint8_t> valid_pcap_buffer(int packets, int victims = 256) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream);
  for (int i = 0; i < packets; ++i) {
    PacketRecord rec;
    rec.ts_sec = 1000 + i;
    rec.src = Ipv4Addr(1, 2, 3, static_cast<std::uint8_t>(i % victims));
    rec.dst = Ipv4Addr(44, 0, 0, 1);
    rec.proto = static_cast<std::uint8_t>(IpProto::kTcp);
    rec.src_port = 80;
    rec.tcp_flags = tcp_flags::kSyn | tcp_flags::kAck;
    writer.write_packet(rec);
  }
  const std::string data = stream.str();
  return {data.begin(), data.end()};
}

/// Parses a (possibly corrupted) pcap buffer; malformed records may throw
/// std::runtime_error, which counts as clean rejection.
std::size_t try_decode(const std::vector<std::uint8_t>& buffer) {
  try {
    return decode_pcap(buffer).size();
  } catch (const std::runtime_error&) {
    return 0;
  }
}

TEST(Robustness, RandomByteFlipsNeverCrashPcapReader) {
  const auto pristine = valid_pcap_buffer(20);
  Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupted = pristine;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.next_below(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    try_decode(corrupted);  // must not crash; result value is irrelevant
  }
  SUCCEED();
}

TEST(Robustness, RandomTruncationsNeverCrashPcapReader) {
  const auto pristine = valid_pcap_buffer(20);
  Rng rng(5678);
  for (int trial = 0; trial < 300; ++trial) {
    auto cut = pristine;
    cut.resize(rng.next_below(pristine.size() + 1));
    try_decode(cut);
  }
  SUCCEED();
}

TEST(Robustness, PureGarbageBuffers) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(rng.next_below(512));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next_u64());
    try_decode(garbage);
  }
  SUCCEED();
}

TEST(Robustness, DecodePacketOnRandomBuffers) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> buffer(rng.next_below(128));
    for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
    // Force it to look like IPv4 half the time so the deeper parse runs.
    if (!buffer.empty() && rng.bernoulli(0.5)) buffer[0] = 0x45;
    const auto rec = decode_packet(buffer);
    if (rec) {
      // A parsed record must be internally consistent.
      EXPECT_LE(rec->tcp_flags, 0x3f);
    }
  }
  SUCCEED();
}

auto record_key(const PacketRecord& rec) {
  return std::make_tuple(rec.ts_sec, rec.ts_usec, rec.src.value(),
                         rec.dst.value(), rec.proto, rec.ip_len, rec.ttl,
                         rec.src_port, rec.dst_port, rec.tcp_flags,
                         rec.icmp_type, rec.icmp_code, rec.has_quoted,
                         rec.quoted_proto, rec.quoted_src.value(),
                         rec.quoted_dst.value(), rec.quoted_src_port,
                         rec.quoted_dst_port);
}

auto event_key(const telescope::TelescopeEvent& e) {
  return std::make_tuple(e.victim.value(), e.start, e.end, e.packets, e.bytes,
                         e.unique_sources, e.num_ports, e.top_port,
                         e.attack_proto, e.max_pps);
}

TEST(Robustness, MutatedPacketsThroughFullPipeline) {
  // Each mutated capture goes through the path `dosmeter detect --pcap`
  // runs (ingest::read_packets, then ParallelBackscatterDetector) and
  // through its sequential references (decode_pcap, BackscatterDetector).
  // All must survive whatever the decoder lets through, and agree on the
  // records and events or reject the same captures. Two victims at 0.5 pps
  // each for 200 s just pass the Moore thresholds, so flipped bytes move
  // flows across them.
  const auto pristine = valid_pcap_buffer(200, 2);
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto corrupted = pristine;
    const int flips = 1 + static_cast<int>(rng.next_below(20));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.next_below(corrupted.size());
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    std::optional<std::vector<PacketRecord>> records;
    try {
      records = decode_pcap(corrupted);
    } catch (const std::runtime_error&) {
    }
    const std::string data(corrupted.begin(), corrupted.end());
    for (const std::size_t batch_frames : {std::size_t{1}, std::size_t{4096}}) {
      SCOPED_TRACE("batch_frames " + std::to_string(batch_frames));
      ingest::IngestOptions options;
      options.batch_frames = batch_frames;
      options.read_chunk_bytes = 512;
      std::istringstream in(data, std::ios::binary);
      if (!records) {
        EXPECT_THROW(ingest::read_packets(in, options), std::runtime_error);
        continue;
      }
      const auto batched = ingest::read_packets(in, options);
      ASSERT_EQ(batched.size(), records->size());
      for (std::size_t i = 0; i < batched.size(); ++i)
        ASSERT_EQ(record_key(batched[i]), record_key((*records)[i]))
            << "record " << i;
    }
    if (!records) continue;

    // A flipped timestamp byte can step the capture back in time: every
    // detector rejects that capture, and must survive it in time order.
    const auto earlier = [](const PacketRecord& a, const PacketRecord& b) {
      return a.timestamp() < b.timestamp();
    };
    if (!std::is_sorted(records->begin(), records->end(), earlier)) {
      telescope::BackscatterDetector rejecting;
      EXPECT_THROW(
          for (const auto& rec : *records) rejecting.on_packet(rec),
          std::invalid_argument);
      for (const int threads : {1, 3})
        EXPECT_THROW(
            parallel::ParallelBackscatterDetector({threads, 0}).detect(*records),
            std::invalid_argument)
            << threads << " threads";
      std::stable_sort(records->begin(), records->end(), earlier);
    }
    telescope::BackscatterDetector sequential;
    for (const auto& rec : *records) sequential.on_packet(rec);
    const auto expected = sequential.finish();
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const auto events =
          parallel::ParallelBackscatterDetector({threads, 0}).detect(*records);
      ASSERT_EQ(events.size(), expected.size());
      for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(event_key(events[i]), event_key(expected[i])) << "event " << i;
    }
  }
}

TEST(Robustness, IcmpQuotedHeaderEdgeCases) {
  // Craft an ICMP unreachable whose quoted IP header claims a giant IHL.
  PacketRecord rec;
  rec.src = Ipv4Addr(1, 1, 1, 1);
  rec.dst = Ipv4Addr(44, 0, 0, 1);
  rec.proto = static_cast<std::uint8_t>(IpProto::kIcmp);
  rec.icmp_type = static_cast<std::uint8_t>(IcmpType::kDestUnreachable);
  rec.has_quoted = true;
  rec.quoted_proto = static_cast<std::uint8_t>(IpProto::kUdp);
  rec.quoted_dst = Ipv4Addr(9, 9, 9, 9);
  auto bytes = encode_packet(rec);
  // Quoted header starts at 28; set IHL nibble to 15 (60-byte header) while
  // only 8 quoted payload bytes exist.
  bytes[28] = 0x4f;
  const auto decoded = decode_packet(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->has_quoted);  // truncated quote cleanly rejected

  // Quoted "IPv6" packet: not parsed as a quote.
  auto bytes6 = encode_packet(rec);
  bytes6[28] = 0x60;
  const auto decoded6 = decode_packet(bytes6);
  ASSERT_TRUE(decoded6.has_value());
  EXPECT_FALSE(decoded6->has_quoted);
}

TEST(Robustness, ImplausibleRecordLengthRejected) {
  auto buffer = valid_pcap_buffer(1);
  // Patch the record's caplen (offset 24+8 = 32, little endian) to 512 MiB.
  buffer[32] = 0x00;
  buffer[33] = 0x00;
  buffer[34] = 0x00;
  buffer[35] = 0x20;
  std::string data(buffer.begin(), buffer.end());
  std::istringstream in(data, std::ios::binary);
  PcapReader reader(in);
  EXPECT_THROW(reader.next_frame(), std::runtime_error);
}

}  // namespace
}  // namespace dosm::net
