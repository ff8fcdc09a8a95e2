// The AmpPot fleet — 24 honeypot instances plus the attacker-side request
// synthesizer (the honeypot-dataset substitute).
//
// A reflection attack sprays spoofed requests over a list of reflectors the
// attacker scanned beforehand; some of our honeypots are on that list and
// each sees a per-reflector share of the request stream. The fleet mirrors
// the paper's deployment: 24 instances spread over America (11), Europe (8),
// Asia (4) and Australia (1) — enough to catch most reflection attacks [7].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amppot/consolidator.h"
#include "amppot/honeypot.h"
#include "common/rng.h"

namespace dosm::amppot {

/// Ground truth for one reflection/amplification attack.
struct ReflectionAttackSpec {
  net::Ipv4Addr victim;
  ReflectionProtocol protocol = ReflectionProtocol::kNtp;
  double start = 0.0;
  double duration_s = 300.0;
  /// Requests/sec the attacker sends to each reflector on its list.
  double per_reflector_rps = 100.0;
  /// How many of the fleet's honeypots are on the attacker's reflector list
  /// (0 means the attack is invisible to us).
  int honeypots_hit = 1;
};

/// Background scanning traffic (researchers and attackers looking for open
/// reflectors); stays below the event threshold and must not become events.
struct ScannerNoiseConfig {
  double scans_per_hour_per_honeypot = 0.0;
  /// Probes each scanner sends per honeypot (well under 100).
  int probes_per_scan = 4;
};

class HoneypotFleet {
 public:
  explicit HoneypotFleet(std::uint64_t seed, int num_honeypots = 24);

  std::span<const Honeypot> honeypots() const { return honeypots_; }
  std::size_t size() const { return honeypots_.size(); }

  /// Drives the given attacks (clipped to [window_start, window_end)) plus
  /// scanner noise into the honeypot logs, in timestamp order.
  void run(std::span<const ReflectionAttackSpec> attacks, double window_start,
           double window_end, const ScannerNoiseConfig& noise = {});

  /// Consolidates every honeypot's log into fleet-level attack events and
  /// clears the logs. Events are time-ordered.
  std::vector<AmpPotEvent> harvest(const ConsolidatorConfig& config = {});

  /// Clears every honeypot's request log without consolidating (used by the
  /// parallel harvest path, which reads the logs in place first).
  void clear_logs();

  std::uint64_t total_requests() const;
  std::uint64_t total_replies() const;

 private:
  Rng rng_;
  std::vector<Honeypot> honeypots_;
};

}  // namespace dosm::amppot
