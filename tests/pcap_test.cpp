// pcap reader/writer tests, including byte-swapped and Ethernet captures.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/pcap.h"

namespace dosm::net {
namespace {

PacketRecord sample_packet(std::uint32_t i) {
  PacketRecord rec;
  rec.ts_sec = 1425168000 + static_cast<UnixSeconds>(i);
  rec.ts_usec = i * 100;
  rec.src = Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + (i % 200)));
  rec.dst = Ipv4Addr(44, 1, 2, static_cast<std::uint8_t>(i));
  rec.proto = static_cast<std::uint8_t>(IpProto::kTcp);
  rec.src_port = 80;
  rec.dst_port = static_cast<std::uint16_t>(1024 + i);
  rec.tcp_flags = tcp_flags::kSyn | tcp_flags::kAck;
  return rec;
}

TEST(Pcap, WriteReadRoundTrip) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream);
  for (std::uint32_t i = 0; i < 50; ++i) writer.write_packet(sample_packet(i));
  EXPECT_EQ(writer.frames_written(), 50u);

  PcapReader reader(stream);
  EXPECT_EQ(reader.link_type(), kLinkTypeRaw);
  std::uint32_t count = 0;
  while (auto rec = reader.next_packet()) {
    EXPECT_EQ(rec->src_port, 80);
    EXPECT_EQ(rec->ts_sec, 1425168000 + count);
    ++count;
  }
  EXPECT_EQ(count, 50u);
}

TEST(Pcap, EmptyFileYieldsNoFrames) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream);
  PcapReader reader(stream);
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_FALSE(reader.next_packet().has_value());
}

TEST(Pcap, RejectsBadMagic) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  stream.write("NOTPCAP0123456789012345", 24);
  stream.seekg(0);
  EXPECT_THROW(PcapReader reader(stream), std::runtime_error);
}

TEST(Pcap, RejectsTruncatedHeader) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  const char magic[4] = {'\xd4', '\xc3', '\xb2', '\xa1'};
  stream.write(magic, 4);
  stream.seekg(0);
  EXPECT_THROW(PcapReader reader(stream), std::runtime_error);
}

TEST(Pcap, ThrowsOnTruncatedRecordBody) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream);
  writer.write_packet(sample_packet(0));
  std::string data = stream.str();
  data.resize(data.size() - 5);  // cut into the packet body
  std::istringstream cut(data, std::ios::binary);
  PcapReader reader(cut);
  EXPECT_THROW(reader.next_frame(), std::runtime_error);
}

TEST(Pcap, ReadsByteSwappedFiles) {
  // Build a swapped-endianness file by hand: magic 0xd4c3b2a1 as stored.
  std::ostringstream out(std::ios::binary);
  auto put_be = [&](std::uint32_t v) {  // big-endian = swapped for us
    char b[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
    out.write(b, 4);
  };
  auto put_be16 = [&](std::uint16_t v) {
    char b[2] = {static_cast<char>(v >> 8), static_cast<char>(v)};
    out.write(b, 2);
  };
  put_be(kPcapMagic);
  put_be16(2);
  put_be16(4);
  put_be(0);
  put_be(0);
  put_be(65535);
  put_be(kLinkTypeRaw);
  const auto packet = encode_packet(sample_packet(3));
  put_be(42);  // ts_sec
  put_be(7);   // ts_usec
  put_be(static_cast<std::uint32_t>(packet.size()));
  put_be(static_cast<std::uint32_t>(packet.size()));
  out.write(reinterpret_cast<const char*>(packet.data()),
            static_cast<std::streamsize>(packet.size()));

  std::istringstream in(out.str(), std::ios::binary);
  PcapReader reader(in);
  EXPECT_EQ(reader.link_type(), kLinkTypeRaw);
  const auto rec = reader.next_packet();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ts_sec, 42);
  EXPECT_EQ(rec->ts_usec, 7u);
  EXPECT_EQ(rec->src_port, 80);
}

TEST(Pcap, EthernetFramesAreStripped) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream, kLinkTypeEthernet);
  const auto ip = encode_packet(sample_packet(1));
  std::vector<std::uint8_t> frame(14, 0);
  frame[12] = 0x08;  // EtherType IPv4
  frame[13] = 0x00;
  frame.insert(frame.end(), ip.begin(), ip.end());
  writer.write_frame(123, 456, frame);
  // A non-IPv4 EtherType frame must be skipped by next_packet().
  std::vector<std::uint8_t> arp(14, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  writer.write_frame(124, 0, arp);

  PcapReader reader(stream);
  const auto rec = reader.next_packet();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->src_port, 80);
  EXPECT_FALSE(reader.next_packet().has_value());
}

TEST(Pcap, WritePacketRequiresRawLinkType) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream, kLinkTypeEthernet);
  EXPECT_THROW(writer.write_packet(sample_packet(0)), std::logic_error);
}

TEST(Pcap, SnaplenTruncatesCapture) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream, kLinkTypeRaw, /*snaplen=*/16);
  const auto packet = encode_packet(sample_packet(0));
  writer.write_frame(1, 0, packet);
  PcapReader reader(stream);
  const auto frame = reader.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->bytes.size(), 16u);
  EXPECT_EQ(frame->orig_len, packet.size());
}

/// Serves a fixed prefix and then fails like a torn-down pipe: underflow
/// throws, which istream::read converts to badbit with the exception
/// swallowed (the default exception mask).
class FailingStreamBuf : public std::streambuf {
 public:
  explicit FailingStreamBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    throw std::runtime_error("simulated I/O error");
  }

 private:
  std::string data_;
};

// Regression: a failed (non-EOF) stream used to read as a clean end of
// capture — next_frame() saw gcount() == 0 and returned nullopt, silently
// dropping the rest of the capture on any mid-read I/O error.
TEST(Pcap, MidCaptureStreamErrorThrowsInsteadOfEof) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream);
  writer.write_packet(sample_packet(0));
  // Cut the stream exactly at a record boundary: the reader consumes the
  // global header plus one full record, then the next header read fails.
  FailingStreamBuf buf(stream.str());
  std::istream in(&buf);
  PcapReader reader(in);
  ASSERT_TRUE(reader.next_frame().has_value());
  EXPECT_THROW(reader.next_frame(), std::runtime_error);
}

// Regression: VLAN-tagged Ethernet frames (TPID 0x8100 / 0x88a8) used to be
// silently dropped because the EtherType check only accepted a bare 0x0800.
TEST(Pcap, VlanTaggedFramesAreDecoded) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream, kLinkTypeEthernet);
  const auto ip = encode_packet(sample_packet(1));
  // Sized once and filled by copy: GCC 12 misreads an inlined range insert
  // into a short vector as an out-of-bounds memcpy (-Warray-bounds).
  auto tagged = [&](std::vector<std::uint8_t> tags) {
    std::vector<std::uint8_t> frame(12 + tags.size() + 2 + ip.size(), 0);
    auto pos = std::copy(tags.begin(), tags.end(), frame.begin() + 12);
    *pos++ = 0x08;  // inner EtherType IPv4
    *pos++ = 0x00;
    std::copy(ip.begin(), ip.end(), pos);
    return frame;
  };
  // 802.1Q single tag.
  writer.write_frame(1, 0, tagged({0x81, 0x00, 0x00, 0x64}));
  // 802.1ad QinQ: outer service tag + inner customer tag.
  writer.write_frame(2, 0,
                     tagged({0x88, 0xa8, 0x00, 0xc8, 0x81, 0x00, 0x00, 0x64}));

  PcapReader reader(stream);
  const auto single = reader.next_packet();
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->src_port, 80);
  const auto qinq = reader.next_packet();
  ASSERT_TRUE(qinq.has_value());
  EXPECT_EQ(qinq->src_port, 80);
  EXPECT_FALSE(reader.next_packet().has_value());
}

// Regression: snaplen-truncated frames used to flow into decode_packet as if
// complete, yielding bogus records (e.g. zero ports) instead of being
// skipped. The IPv4 total_length must fit inside the captured bytes.
TEST(Pcap, SnaplenTruncatedFramesAreSkippedByNextPacket) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  // 24-byte snaplen cuts the 40-byte TCP packet mid-transport-header.
  PcapWriter writer(stream, kLinkTypeRaw, /*snaplen=*/24);
  const auto packet = encode_packet(sample_packet(0));
  ASSERT_GT(packet.size(), 24u);
  writer.write_frame(1, 0, packet);
  PcapReader reader(stream);
  EXPECT_FALSE(reader.next_packet().has_value());
}

TEST(Pcap, DecodePcapHelper) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  PcapWriter writer(stream);
  for (std::uint32_t i = 0; i < 10; ++i) writer.write_packet(sample_packet(i));
  const std::string data = stream.str();
  const auto records = decode_pcap(std::span(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(records.size(), 10u);
}

}  // namespace
}  // namespace dosm::net
