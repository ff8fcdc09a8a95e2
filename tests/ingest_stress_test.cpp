// Concurrency stress for the ingest SPSC ring, meant to run under TSan
// (DOSMETER_SANITIZE=thread in CI). A capacity-2 ring forces both the
// producer-full and consumer-empty wait paths; assertions check strict FIFO
// order and zero loss. Two more drive the full pipeline, through run_ingest
// and read_packets, so TSan sees the real capture-thread / consumer-thread
// interleaving.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/pipeline.h"
#include "ingest/ring.h"
#include "net/pcap.h"

namespace dosm::ingest {
namespace {

TEST(IngestStress, BlockingRingIsFifoAndLossless) {
  constexpr std::uint64_t kItems = 200000;
  // Capacity 2 keeps the ring perpetually near-full and near-empty, so both
  // sides exercise their atomic wait/notify paths constantly.
  SpscRing<std::uint64_t> ring(2);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std::uint64_t v = i;
      ring.push(v);
    }
    ring.close();
  });

  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (ring.pop(out)) {
    ASSERT_EQ(out, expected) << "FIFO order violated";
    ++expected;
  }
  producer.join();

  EXPECT_EQ(expected, kItems) << "items lost or duplicated";
  EXPECT_EQ(ring.stats().pushed.load(), kItems);
  EXPECT_EQ(ring.stats().popped.load(), kItems);
}

TEST(IngestStress, TryApiInterleavesWithBlockingSide) {
  constexpr std::uint64_t kItems = 100000;
  SpscRing<std::uint64_t> ring(4);

  // Producer spins on try_push (drop-policy shape, but retrying instead of
  // dropping so the checksum must balance); consumer blocks on pop.
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std::uint64_t v = i;
      while (!ring.try_push(v)) std::this_thread::yield();
    }
    ring.close();
  });

  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  std::uint64_t out = 0;
  while (ring.pop(out)) {
    sum += out;
    ++count;
  }
  producer.join();

  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

std::string make_pcap(int packets) {
  std::ostringstream out(std::ios::binary);
  net::PcapWriter writer(out);
  for (int i = 0; i < packets; ++i) {
    net::PacketRecord rec;
    rec.ts_sec = 1425168000 + i / 100;
    rec.ts_usec = static_cast<std::uint32_t>(i % 100) * 10000;
    rec.src = net::Ipv4Addr(0x0a000000u + static_cast<std::uint32_t>(i % 500));
    rec.dst = net::Ipv4Addr(0x2c000000u + static_cast<std::uint32_t>(i));
    rec.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
    rec.src_port = 80;
    rec.dst_port = static_cast<std::uint16_t>(1024 + (i % 60000));
    rec.tcp_flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
    writer.write_packet(rec);
  }
  return out.str();
}

constexpr int kPackets = 20000;

TEST(IngestStress, RunIngestUnderContention) {
  // End-to-end: capture thread slices batches and pushes through a tiny
  // ring while this thread decodes. TSan validates the handoff; the counts
  // validate that no batch was lost or reordered.
  const std::string pcap = make_pcap(kPackets);
  IngestOptions options;
  options.batch_frames = 8;
  options.ring_capacity = 2;
  options.read_chunk_bytes = 4096;
  std::istringstream in(pcap, std::ios::binary);
  std::uint64_t seen = 0;
  UnixSeconds last_ts = 0;
  const auto stats = ingest::run_ingest(
      in, options, [&](std::span<const net::PacketRecord> records) {
        for (const net::PacketRecord& rec : records) {
          ASSERT_GE(rec.ts_sec, last_ts) << "packets reordered";
          last_ts = rec.ts_sec;
          ++seen;
        }
      });
  EXPECT_EQ(seen, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(stats.packets, static_cast<std::uint64_t>(kPackets));
}

TEST(IngestStress, ReadPacketsUnderContention) {
  // read_packets decodes every one-frame batch straight into its reserved
  // vector while the capture thread refills a two-slot ring.
  const std::string pcap = make_pcap(kPackets);
  IngestOptions options;
  options.batch_frames = 1;
  options.ring_capacity = 2;
  options.read_chunk_bytes = 4096;
  std::istringstream in(pcap, std::ios::binary);
  const auto packets = ingest::read_packets(in, options);

  std::istringstream seq_in(pcap, std::ios::binary);
  net::PcapReader reader(seq_in);
  std::size_t i = 0;
  while (auto rec = reader.next_packet()) {
    ASSERT_LT(i, packets.size());
    ASSERT_EQ(packets[i].ts_sec, rec->ts_sec) << "packet " << i;
    ASSERT_EQ(packets[i].ts_usec, rec->ts_usec) << "packet " << i;
    ASSERT_EQ(packets[i].dst, rec->dst) << "packet " << i;
    ASSERT_EQ(packets[i].dst_port, rec->dst_port) << "packet " << i;
    ++i;
  }
  EXPECT_EQ(i, packets.size());
  EXPECT_EQ(i, static_cast<std::size_t>(kPackets));
}

}  // namespace
}  // namespace dosm::ingest
