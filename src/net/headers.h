// Raw IPv4 / TCP / UDP / ICMP packet construction and parsing.
//
// The telescope pipeline consumes real packet bytes: the simulator encodes
// backscatter as raw IPv4 frames (through PacketWriter/pcap) and the Moore
// et al. detector decodes them here, exactly as the Corsaro plugin would via
// libpcap. The decoded form is the compact PacketRecord.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "net/ipv4.h"

namespace dosm::net {

/// IANA IP protocol numbers we care about.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kIgmp = 2,
  kTcp = 6,
  kUdp = 17,
  kGre = 47,
  kEsp = 50,
};

/// TCP flag bits (low byte of the flags field).
namespace tcp_flags {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
inline constexpr std::uint8_t kUrg = 0x20;
}  // namespace tcp_flags

/// ICMP message types (RFC 792 et al.).
enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kSourceQuench = 4,
  kRedirect = 5,
  kEcho = 8,
  kTimeExceeded = 11,
  kParameterProblem = 12,
  kTimestamp = 13,
  kTimestampReply = 14,
  kInfoRequest = 15,
  kInfoReply = 16,
  kAddressMaskRequest = 17,
  kAddressMaskReply = 18,
};

/// A decoded packet in the compact form the analysis pipeline uses.
/// For ICMP error messages (destination unreachable, time exceeded, ...)
/// the quoted original datagram's header fields are captured too, since the
/// Moore methodology attributes the attack's transport protocol from them.
struct PacketRecord {
  UnixSeconds ts_sec = 0;
  std::uint32_t ts_usec = 0;

  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint8_t proto = 0;      // raw IP protocol number
  std::uint16_t ip_len = 0;    // total IP length, bytes
  std::uint8_t ttl = 0;

  std::uint16_t src_port = 0;  // TCP/UDP only
  std::uint16_t dst_port = 0;
  std::uint8_t tcp_flags = 0;  // TCP only

  std::uint8_t icmp_type = 0;  // ICMP only
  std::uint8_t icmp_code = 0;

  // Quoted datagram inside ICMP error messages, when present and parseable.
  bool has_quoted = false;
  std::uint8_t quoted_proto = 0;
  Ipv4Addr quoted_src;
  Ipv4Addr quoted_dst;
  std::uint16_t quoted_src_port = 0;
  std::uint16_t quoted_dst_port = 0;

  bool is_tcp() const { return proto == static_cast<std::uint8_t>(IpProto::kTcp); }
  bool is_udp() const { return proto == static_cast<std::uint8_t>(IpProto::kUdp); }
  bool is_icmp() const { return proto == static_cast<std::uint8_t>(IpProto::kIcmp); }

  double timestamp() const {
    return static_cast<double>(ts_sec) + static_cast<double>(ts_usec) * 1e-6;
  }
};

/// RFC 1071 internet checksum over a byte range (pads odd length with zero).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Encodes the record as a raw IPv4 packet (no link-layer header). TCP
/// packets carry a 20-byte header; UDP an 8-byte header with an 8-byte dummy
/// payload; ICMP error types embed the quoted IP header + 8 bytes when
/// `has_quoted` is set. All checksums are valid.
std::vector<std::uint8_t> encode_packet(const PacketRecord& rec);

/// Decodes a raw IPv4 packet. Returns std::nullopt on truncated or
/// non-IPv4 input. Checksum failures are tolerated (real telescopes see
/// broken packets) but reported via `checksum_ok` when non-null.
std::optional<PacketRecord> decode_packet(std::span<const std::uint8_t> bytes,
                                          UnixSeconds ts_sec = 0,
                                          std::uint32_t ts_usec = 0,
                                          bool* checksum_ok = nullptr);

namespace detail {

inline constexpr std::size_t kIpHeaderLen = 20;
inline constexpr std::size_t kIcmpHeaderLen = 8;

inline std::uint16_t get_u16(std::span<const std::uint8_t> in,
                             std::size_t offset) {
  return static_cast<std::uint16_t>((in[offset] << 8) | in[offset + 1]);
}

inline std::uint32_t get_u32(std::span<const std::uint8_t> in,
                             std::size_t offset) {
  return (static_cast<std::uint32_t>(in[offset]) << 24) |
         (static_cast<std::uint32_t>(in[offset + 1]) << 16) |
         (static_cast<std::uint32_t>(in[offset + 2]) << 8) |
         static_cast<std::uint32_t>(in[offset + 3]);
}

inline bool is_icmp_error(std::uint8_t type) {
  const auto t = static_cast<IcmpType>(type);
  return t == IcmpType::kDestUnreachable || t == IcmpType::kSourceQuench ||
         t == IcmpType::kRedirect || t == IcmpType::kTimeExceeded ||
         t == IcmpType::kParameterProblem;
}

}  // namespace detail

/// Allocation-free core of decode_packet: writes into `rec` and returns
/// false on truncated or non-IPv4 input; decode_packet shares the parse by
/// construction. Both ingest front ends reach it once per packet through
/// decode_frame (net/pcap.h). Both are forced inline, as GCC's heuristics
/// inline neither call: the whole per-packet decode then compiles into the
/// callers' loops, at less than half the cost per packet.
[[gnu::always_inline]] inline bool decode_packet_into(
    std::span<const std::uint8_t> bytes, UnixSeconds ts_sec,
    std::uint32_t ts_usec, PacketRecord& rec) {
  if (bytes.size() < detail::kIpHeaderLen) return false;
  if ((bytes[0] >> 4) != 4) return false;  // not IPv4
  const std::size_t ihl = static_cast<std::size_t>(bytes[0] & 0x0f) * 4;
  if (ihl < detail::kIpHeaderLen || bytes.size() < ihl) return false;

  rec = PacketRecord{};
  rec.ts_sec = ts_sec;
  rec.ts_usec = ts_usec;
  rec.ip_len = detail::get_u16(bytes, 2);
  rec.ttl = bytes[8];
  rec.proto = bytes[9];
  rec.src = Ipv4Addr(detail::get_u32(bytes, 12));
  rec.dst = Ipv4Addr(detail::get_u32(bytes, 16));

  const auto payload = bytes.subspan(ihl);
  if (rec.is_tcp()) {
    if (payload.size() < 14) return true;  // truncated transport: keep IP view
    rec.src_port = detail::get_u16(payload, 0);
    rec.dst_port = detail::get_u16(payload, 2);
    rec.tcp_flags = payload[13] & 0x3f;
  } else if (rec.is_udp()) {
    if (payload.size() < 4) return true;
    rec.src_port = detail::get_u16(payload, 0);
    rec.dst_port = detail::get_u16(payload, 2);
  } else if (rec.is_icmp()) {
    if (payload.size() < 2) return true;
    rec.icmp_type = payload[0];
    rec.icmp_code = payload[1];
    if (detail::is_icmp_error(rec.icmp_type) &&
        payload.size() >= detail::kIcmpHeaderLen + detail::kIpHeaderLen) {
      const auto quoted = payload.subspan(detail::kIcmpHeaderLen);
      if ((quoted[0] >> 4) == 4) {
        const std::size_t qihl =
            static_cast<std::size_t>(quoted[0] & 0x0f) * 4;
        if (qihl >= detail::kIpHeaderLen && quoted.size() >= qihl) {
          rec.has_quoted = true;
          rec.quoted_proto = quoted[9];
          rec.quoted_src = Ipv4Addr(detail::get_u32(quoted, 12));
          rec.quoted_dst = Ipv4Addr(detail::get_u32(quoted, 16));
          if (quoted.size() >= qihl + 4 &&
              (rec.quoted_proto == static_cast<std::uint8_t>(IpProto::kTcp) ||
               rec.quoted_proto == static_cast<std::uint8_t>(IpProto::kUdp))) {
            rec.quoted_src_port = detail::get_u16(quoted, qihl + 0);
            rec.quoted_dst_port = detail::get_u16(quoted, qihl + 2);
          }
        }
      }
    }
  }
  return true;
}

}  // namespace dosm::net
