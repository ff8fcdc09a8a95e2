// Minimal pcap (libpcap savefile) reader/writer, implemented from scratch.
//
// We write and read the classic pcap format (magic 0xa1b2c3d4, version 2.4)
// with microsecond timestamps. The telescope simulator stores synthesized
// backscatter as LINKTYPE_RAW (101) captures — raw IPv4 packets with no
// link-layer header — and the detection pipeline replays them through
// net::decode_packet. LINKTYPE_ETHERNET (1) files are also readable; the
// 14-byte Ethernet header — plus any 802.1Q/802.1ad VLAN tags — is stripped
// when the (inner) EtherType is IPv4.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "net/headers.h"

namespace dosm::net {

inline constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;
inline constexpr std::uint32_t kLinkTypeEthernet = 1;
inline constexpr std::uint32_t kLinkTypeRaw = 101;

/// 802.1Q / 802.1ad tag protocol identifiers (VLAN single- and double-tag).
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;
inline constexpr std::uint16_t kEtherTypeQinQ = 0x88a8;

/// A captured frame: timestamp plus raw bytes at the file's link layer.
struct CapturedFrame {
  UnixSeconds ts_sec = 0;
  std::uint32_t ts_usec = 0;
  std::uint32_t orig_len = 0;  // original wire length
  std::vector<std::uint8_t> bytes;
};

/// Streams pcap records to an ostream. Writes the global header on
/// construction. Not seekable; suitable for pipes.
class PcapWriter {
 public:
  /// Throws std::runtime_error if the stream is bad.
  explicit PcapWriter(std::ostream& out, std::uint32_t link_type = kLinkTypeRaw,
                      std::uint32_t snaplen = 65535);

  /// Writes one frame; bytes are at the configured link layer.
  void write_frame(UnixSeconds ts_sec, std::uint32_t ts_usec,
                   std::span<const std::uint8_t> bytes);

  /// Convenience: encodes the record as raw IPv4 and writes it. Only valid
  /// for LINKTYPE_RAW writers (throws std::logic_error otherwise).
  void write_packet(const PacketRecord& rec);

  std::uint64_t frames_written() const { return frames_written_; }

 private:
  std::ostream& out_;
  std::uint32_t link_type_;
  std::uint32_t snaplen_;
  std::uint64_t frames_written_ = 0;
};

/// Reads pcap records from an istream, handling both native and
/// byte-swapped files.
class PcapReader {
 public:
  /// Throws std::runtime_error on a malformed global header.
  explicit PcapReader(std::istream& in);

  std::uint32_t link_type() const { return link_type_; }

  /// Next raw frame, or nullopt at clean EOF. Throws on truncated records
  /// and on mid-capture stream errors (badbit / failbit without eofbit).
  std::optional<CapturedFrame> next_frame();

  /// Next frame decoded to a PacketRecord via decode_frame (VLAN tags
  /// stripped, snaplen-truncated and undecodable frames skipped and counted
  /// in the ingest.skipped.* metrics), or nullopt at EOF.
  std::optional<PacketRecord> next_packet();

 private:
  std::istream& in_;
  std::uint32_t link_type_ = kLinkTypeRaw;
  bool swapped_ = false;
};

/// Outcome of decoding one captured frame to a PacketRecord. The skip kinds
/// mirror the `ingest.skipped.*` counters: both the sequential reader and
/// the batched ingest decoder (src/ingest) classify frames through
/// decode_frame so the two front ends drop exactly the same frames.
enum class FrameDecode : std::uint8_t {
  kOk,                // `rec` holds the decoded packet
  kSkipLink,          // link layer unusable (short frame, non-IPv4 EtherType)
  kSkipTruncated,     // IPv4 total_length exceeds the captured bytes
  kSkipUndecodable,   // not parseable IPv4
};

/// Decodes one frame's bytes at the given link layer: strips the Ethernet
/// header (including 802.1Q/802.1ad VLAN tags) when `link_type` is
/// kLinkTypeEthernet, rejects snaplen-truncated IPv4 (total_length beyond
/// the capture), then parses via decode_packet_into. Forced inline into
/// both front ends' per-packet loops, like decode_packet_into.
[[gnu::always_inline]] inline FrameDecode decode_frame(
    std::span<const std::uint8_t> bytes, std::uint32_t link_type,
    UnixSeconds ts_sec, std::uint32_t ts_usec, PacketRecord& rec) {
  std::span<const std::uint8_t> payload = bytes;
  if (link_type == kLinkTypeEthernet) {
    if (payload.size() < 14) return FrameDecode::kSkipLink;
    std::uint16_t ethertype =
        static_cast<std::uint16_t>((payload[12] << 8) | payload[13]);
    std::size_t offset = 14;
    // Strip 802.1Q/802.1ad VLAN tags (4 bytes each: TPID already consumed as
    // the EtherType, then TCI + the inner EtherType). Captures at IXP/core
    // vantage points are routinely tagged; bounded nesting guards against
    // adversarial tag chains.
    for (int depth = 0;
         (ethertype == kEtherTypeVlan || ethertype == kEtherTypeQinQ) &&
         depth < 4;
         ++depth) {
      if (payload.size() < offset + 4) return FrameDecode::kSkipLink;
      ethertype = static_cast<std::uint16_t>((payload[offset + 2] << 8) |
                                             payload[offset + 3]);
      offset += 4;
    }
    if (ethertype != kEtherTypeIpv4) return FrameDecode::kSkipLink;
    payload = payload.subspan(offset);
  }
  // Snaplen truncation gate: an IPv4 packet whose total_length claims more
  // bytes than the capture holds must not flow downstream as if complete —
  // flow byte counts and transport fields would be computed from a partial
  // packet. (total_length < captured size is fine: Ethernet pads.)
  if (payload.size() < 20) {
    return (!payload.empty() && (payload[0] >> 4) == 4)
               ? FrameDecode::kSkipTruncated
               : FrameDecode::kSkipUndecodable;
  }
  if ((payload[0] >> 4) == 4) {
    const std::size_t total_length =
        static_cast<std::size_t>((payload[2] << 8) | payload[3]);
    if (total_length > payload.size()) return FrameDecode::kSkipTruncated;
  }
  if (!decode_packet_into(payload, ts_sec, ts_usec, rec))
    return FrameDecode::kSkipUndecodable;
  return FrameDecode::kOk;
}

/// Reads every decodable packet from a pcap byte buffer (test helper).
std::vector<PacketRecord> decode_pcap(std::span<const std::uint8_t> file_bytes);

}  // namespace dosm::net
