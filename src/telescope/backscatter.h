// Backscatter classification — step 1 of the Moore et al. methodology.
//
// A packet arriving at the darknet is backscatter if it is a *response*
// packet: a victim of a randomly-spoofed flood replies to the spoofed
// sources, a fraction of which fall inside the telescope. The response types
// recognized here are exactly the paper's list (§3.1.1): TCP SYN/ACK, TCP
// RST, ICMP Echo Reply, Destination Unreachable, Source Quench, Redirect,
// Time Exceeded, Parameter Problem, Timestamp Reply, Information Reply, and
// Address Mask Reply.
#pragma once

#include <cstdint>

#include "net/headers.h"

namespace dosm::telescope {

/// Attack-protocol attribution for a backscatter packet (what protocol the
/// *attack traffic* used, per Moore et al.): TCP for SYN/ACK / RST
/// backscatter, the quoted datagram's protocol for ICMP error messages, and
/// ICMP for echo/timestamp/info/mask replies (ping-flood style attacks).
struct BackscatterInfo {
  net::Ipv4Addr victim;          // source of the response packet
  std::uint16_t victim_port = 0; // attacked port on the victim (0 if unknown)
  std::uint8_t attack_proto = 0; // attributed IP protocol of the attack
  bool has_port = false;
};

/// True if the packet is one of the recognized response types.
bool is_backscatter(const net::PacketRecord& rec);

/// Classifies a backscatter packet; precondition: is_backscatter(rec).
BackscatterInfo classify_backscatter(const net::PacketRecord& rec);

}  // namespace dosm::telescope
