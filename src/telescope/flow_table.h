// Per-victim flow aggregation — step 2 of the Moore et al. methodology.
//
// Backscatter packets are grouped into attack "flows" keyed by the victim IP
// address; a flow ends after `flow_timeout` (default 300 s, the paper's
// conservative choice) of inactivity. On expiry the flow is handed to the
// attack classifier (step 3), which applies the filtering thresholds and
// emits a TelescopeEvent.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/time.h"
#include "net/headers.h"
#include "telescope/backscatter.h"

namespace dosm::telescope {

/// A randomly-spoofed DoS attack event inferred from telescope backscatter.
struct TelescopeEvent {
  net::Ipv4Addr victim;
  double start = 0.0;  // unix seconds of first backscatter packet
  double end = 0.0;    // unix seconds of last backscatter packet

  std::uint64_t packets = 0;      // backscatter packets seen at the telescope
  std::uint64_t bytes = 0;
  std::uint32_t unique_sources = 0;  // distinct telescope addresses hit
  std::uint16_t num_ports = 0;       // distinct attacked victim ports observed
  std::uint16_t top_port = 0;        // most frequent attacked port (if any)
  std::uint8_t attack_proto = 0;     // majority-attributed IP protocol
  double max_pps = 0.0;  // max backscatter packets/sec in any one minute

  double duration() const { return end - start; }
  bool single_port() const { return num_ports == 1; }
};

/// Canonical total order on telescope events: (start, victim). A victim has
/// at most one open flow at a time, so the key is unique across a capture.
bool event_less(const TelescopeEvent& a, const TelescopeEvent& b);

/// Classification thresholds (Moore et al. §3.1.1). The defaults are the
/// paper's; tests sweep them to validate monotonicity.
struct ClassifierThresholds {
  std::uint64_t min_packets = 25;
  double min_duration_s = 60.0;
  double min_max_pps = 0.5;  // max packet rate in any minute, at the telescope
};

/// True if the aggregated flow passes all three thresholds (each cutoff is
/// inclusive). Records the outcome in the global metrics registry:
/// telescope.events_emitted on pass, telescope.reject.{min_packets,
/// min_duration,min_pps} on the first failing threshold.
bool passes_thresholds(const TelescopeEvent& event,
                       const ClassifierThresholds& thresholds);

/// Aggregates classified backscatter into flows and emits expired flows.
///
/// Flows are keyed by victim address. A victim's packet arriving more than
/// the timeout after its flow's last packet closes that flow first, so the
/// split depends only on the victim's own traffic. Each add() also expires
/// idle flows of other victims lazily, which emits them earlier and frees
/// their memory. Packets must be fed in non-decreasing time order;
/// parallel::ParallelBackscatterDetector::detect rejects a capture that is
/// not.
class FlowTable {
 public:
  using FlowCallback = std::function<void(const TelescopeEvent&)>;

  explicit FlowTable(FlowCallback on_flow, double flow_timeout_s = 300.0);

  /// Adds one backscatter observation at time `ts` (unix seconds).
  void add(double ts, const BackscatterInfo& info, std::uint16_t ip_len,
           net::Ipv4Addr telescope_dst);

  /// Flushes every remaining flow (end of trace).
  void flush();

  std::size_t active_flows() const { return flows_.size(); }

 private:
  /// Distinct uint32 values in one open-addressed, linearly probed vector
  /// of slots. A zero slot is empty, so the value 0 is held by a flag
  /// instead; every other value, 0xffffffff included, sits in a slot.
  class SourceSet {
   public:
    void insert(std::uint32_t value);
    std::size_t size() const { return size_; }

   private:
    void grow();

    std::vector<std::uint32_t> slots_;  // power-of-two size, or empty
    std::size_t size_ = 0;              // distinct values, 0 included
    int shift_ = 32;                    // 32 - log2(slots_.size())
    bool has_zero_ = false;
  };

  struct PortCount {
    std::uint16_t port;
    std::uint32_t count;
  };
  struct ProtoVotes {
    std::uint8_t proto;
    std::uint64_t votes;
  };

  struct Flow {
    explicit Flow(net::Ipv4Addr v) : victim(v) {}

    net::Ipv4Addr victim;
    double first_ts = 0.0;
    double last_ts = 0.0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    // Distinct telescope destinations (spoofed sources that fell in the
    // darknet). Bounded: once the set holds kMaxTrackedSources we only
    // count packets.
    SourceSet sources;
    // Distinct victim ports with frequencies, in first-seen order
    // (bounded; beyond the cap the flow is multi-port regardless).
    std::vector<PortCount> ports;
    // Attack-protocol votes, in first-seen order.
    std::vector<ProtoVotes> proto_votes;
    // Max packets/sec over one-minute buckets: `minute` is floor(ts / 60)
    // of the packets counted in count_in_minute.
    double minute = -1.0;
    std::uint64_t count_in_minute = 0;
    std::uint64_t max_per_minute = 0;
  };

  /// The open flow of `victim`, opened empty if it has none.
  Flow& flow_of(net::Ipv4Addr victim);
  /// Rebuilds index_ over flows_, sized to keep it at most half full.
  void reindex();
  TelescopeEvent finalize(const Flow& flow) const;
  void sweep(double now);

  FlowCallback on_flow_;
  double flow_timeout_s_;
  // Open flows, one per victim, in no particular order.
  std::vector<Flow> flows_;
  // Open-addressed, linearly probed index over flows_: a slot holds the
  // flow's position + 1, and 0 marks an empty slot.
  std::vector<std::uint32_t> index_;
  int index_shift_ = 0;  // 32 - log2(index_.size())
  double last_sweep_ = 0.0;

  static constexpr std::size_t kMaxTrackedSources = 4096;
  static constexpr std::size_t kMaxTrackedPorts = 64;
};

/// Full detector: backscatter filter -> flow table -> thresholds, the
/// Moore et al. RS-DoS method (paper §3.1.1). Feed it decoded packets (from
/// a pcap replay or the synthesizer), then finish() returns the attack
/// events. parallel::ParallelBackscatterDetector runs one per victim shard.
class BackscatterDetector {
 public:
  explicit BackscatterDetector(ClassifierThresholds thresholds = {},
                               double flow_timeout_s = 300.0);

  /// Processes one captured packet (non-backscatter packets are ignored but
  /// counted). Throws std::invalid_argument, via throw_out_of_order, for a
  /// packet stamped before the previous on_packet's.
  void on_packet(const net::PacketRecord& rec);

  /// Processes one packet the caller already classified: `info` is
  /// classify_backscatter of a backscatter packet captured at `ts` with IP
  /// length `ip_len` and destination `telescope_dst`. Counts it as seen
  /// and as backscatter, exactly as on_packet would.
  void on_backscatter(double ts, const BackscatterInfo& info,
                      std::uint16_t ip_len, net::Ipv4Addr telescope_dst) {
    ++packets_seen_;
    ++backscatter_packets_;
    flows_.add(ts, info, ip_len, telescope_dst);
  }

  /// Counts `packets` non-backscatter packets that the caller filtered out
  /// instead of passing them to on_packet.
  void skip_non_backscatter(std::uint64_t packets) { packets_seen_ += packets; }

  /// Ends the trace, flushing all open flows through classification, and
  /// returns every event that passed the thresholds in event_less order
  /// (flows close in packet and hash-flush order, so the detector sorts).
  std::vector<TelescopeEvent> finish();

  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t backscatter_packets() const { return backscatter_packets_; }
  std::uint64_t flows_filtered() const { return flows_filtered_; }
  std::uint64_t events_emitted() const { return events_emitted_; }

 private:
  std::vector<TelescopeEvent> events_;
  ClassifierThresholds thresholds_;
  FlowTable flows_;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t backscatter_packets_ = 0;
  std::uint64_t flows_filtered_ = 0;
  std::uint64_t events_emitted_ = 0;
  double last_packet_ts_ = -std::numeric_limits<double>::infinity();
};

/// Rejects a capture whose packet `index`, stamped `ts`, precedes packet
/// `index - 1`, stamped `previous_ts`: the std::invalid_argument that both
/// the sequential and the parallel detector throw.
[[noreturn]] void throw_out_of_order(std::uint64_t index, double ts,
                                     double previous_ts);

}  // namespace dosm::telescope
