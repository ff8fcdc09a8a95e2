#include "net/headers.h"

#include <cstring>

namespace dosm::net {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::size_t offset, std::uint16_t v) {
  out[offset] = static_cast<std::uint8_t>(v >> 8);
  out[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
}

void put_u32(std::vector<std::uint8_t>& out, std::size_t offset, std::uint32_t v) {
  out[offset] = static_cast<std::uint8_t>(v >> 24);
  out[offset + 1] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out[offset + 2] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out[offset + 3] = static_cast<std::uint8_t>(v & 0xff);
}

using detail::is_icmp_error;
using detail::kIcmpHeaderLen;
using detail::kIpHeaderLen;
constexpr std::size_t kTcpHeaderLen = 20;
constexpr std::size_t kUdpHeaderLen = 8;

/// Writes the 20-byte IPv4 header (checksum filled) at out[0..20).
void write_ip_header(std::vector<std::uint8_t>& out, const PacketRecord& rec,
                     std::uint16_t total_len) {
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = 0;     // DSCP/ECN
  put_u16(out, 2, total_len);
  put_u16(out, 4, 0);  // identification
  put_u16(out, 6, 0);  // flags/fragment offset
  out[8] = rec.ttl ? rec.ttl : 64;
  out[9] = rec.proto;
  put_u16(out, 10, 0);  // checksum placeholder
  put_u32(out, 12, rec.src.value());
  put_u32(out, 16, rec.dst.value());
  const std::uint16_t csum =
      internet_checksum(std::span(out.data(), kIpHeaderLen));
  put_u16(out, 10, csum);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i] << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::vector<std::uint8_t> encode_packet(const PacketRecord& rec) {
  std::vector<std::uint8_t> out;
  if (rec.is_tcp()) {
    out.assign(kIpHeaderLen + kTcpHeaderLen, 0);
    put_u16(out, kIpHeaderLen + 0, rec.src_port);
    put_u16(out, kIpHeaderLen + 2, rec.dst_port);
    put_u32(out, kIpHeaderLen + 4, 0);                      // seq
    put_u32(out, kIpHeaderLen + 8, 0);                      // ack
    out[kIpHeaderLen + 12] = 0x50;                          // data offset 5
    out[kIpHeaderLen + 13] = rec.tcp_flags;
    put_u16(out, kIpHeaderLen + 14, 8192);                  // window
    // TCP checksum over pseudo-header + segment.
    std::vector<std::uint8_t> pseudo(12 + kTcpHeaderLen, 0);
    put_u32(pseudo, 0, rec.src.value());
    put_u32(pseudo, 4, rec.dst.value());
    pseudo[9] = rec.proto;
    put_u16(pseudo, 10, kTcpHeaderLen);
    std::memcpy(pseudo.data() + 12, out.data() + kIpHeaderLen, kTcpHeaderLen);
    put_u16(out, kIpHeaderLen + 16, internet_checksum(pseudo));
  } else if (rec.is_udp()) {
    constexpr std::size_t kPayload = 8;
    out.assign(kIpHeaderLen + kUdpHeaderLen + kPayload, 0);
    put_u16(out, kIpHeaderLen + 0, rec.src_port);
    put_u16(out, kIpHeaderLen + 2, rec.dst_port);
    put_u16(out, kIpHeaderLen + 4, kUdpHeaderLen + kPayload);
    put_u16(out, kIpHeaderLen + 6, 0);  // checksum optional for IPv4 UDP
  } else if (rec.is_icmp()) {
    std::size_t len = kIpHeaderLen + kIcmpHeaderLen;
    const bool quoted = rec.has_quoted && is_icmp_error(rec.icmp_type);
    if (quoted) len += kIpHeaderLen + 8;  // quoted IP header + 8 bytes
    out.assign(len, 0);
    out[kIpHeaderLen + 0] = rec.icmp_type;
    out[kIpHeaderLen + 1] = rec.icmp_code;
    if (quoted) {
      const std::size_t q = kIpHeaderLen + kIcmpHeaderLen;
      out[q + 0] = 0x45;
      put_u16(out, q + 2, kIpHeaderLen + 8);
      out[q + 8] = 64;
      out[q + 9] = rec.quoted_proto;
      put_u32(out, q + 12, rec.quoted_src.value());
      put_u32(out, q + 16, rec.quoted_dst.value());
      // First 8 bytes of the quoted transport header (ports for TCP/UDP).
      put_u16(out, q + kIpHeaderLen + 0, rec.quoted_src_port);
      put_u16(out, q + kIpHeaderLen + 2, rec.quoted_dst_port);
    }
    const std::uint16_t csum = internet_checksum(
        std::span(out.data() + kIpHeaderLen, out.size() - kIpHeaderLen));
    put_u16(out, kIpHeaderLen + 2, csum);
  } else {
    // Other protocols: bare IP header + 8 opaque bytes.
    out.assign(kIpHeaderLen + 8, 0);
  }
  write_ip_header(out, rec, static_cast<std::uint16_t>(out.size()));
  return out;
}

std::optional<PacketRecord> decode_packet(std::span<const std::uint8_t> bytes,
                                          UnixSeconds ts_sec,
                                          std::uint32_t ts_usec,
                                          bool* checksum_ok) {
  PacketRecord rec;
  if (!decode_packet_into(bytes, ts_sec, ts_usec, rec)) return std::nullopt;
  if (checksum_ok != nullptr) {
    const std::size_t ihl = static_cast<std::size_t>(bytes[0] & 0x0f) * 4;
    *checksum_ok = internet_checksum(bytes.subspan(0, ihl)) == 0;
  }
  return rec;
}

}  // namespace dosm::net
