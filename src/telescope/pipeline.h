// Corsaro-style plugin pipeline for telescope traffic.
//
// Corsaro processes darknet captures through a chain of plugins, each seeing
// every packet. We reproduce that shape: a Pipeline replays a pcap stream
// (or an in-memory packet vector) through registered PacketPlugins. The
// RsdosPlugin is the open-source "RS DoS" plugin the paper describes —
// backscatter filter, per-victim flows, Moore thresholds — and the
// TrafficStatsPlugin mirrors Corsaro's flowtuple-style counters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ingest/pipeline.h"
#include "net/pcap.h"
#include "telescope/flow_table.h"

namespace dosm::telescope {

/// Interface every pipeline stage implements.
class PacketPlugin {
 public:
  virtual ~PacketPlugin() = default;

  virtual std::string name() const = 0;
  virtual void on_packet(const net::PacketRecord& rec) = 0;
  /// Called once when the trace ends.
  virtual void on_end() {}
};

/// Replays packets through the registered plugins in registration order.
class Pipeline {
 public:
  /// Registers a plugin; the pipeline owns it. Returns a stable reference.
  template <typename P, typename... Args>
  P& emplace_plugin(Args&&... args) {
    auto plugin = std::make_unique<P>(std::forward<Args>(args)...);
    P& ref = *plugin;
    plugins_.push_back(std::move(plugin));
    return ref;
  }

  void process(const net::PacketRecord& rec);

  /// Replays an entire pcap stream through the batched ingest front end
  /// (capture thread -> SPSC ring -> decode on this thread); returns the
  /// number of decoded packets. The plugins see exactly the packet
  /// sequence the sequential reader would produce, at any batch size and
  /// ring capacity.
  std::uint64_t replay(std::istream& pcap_stream,
                       const ingest::IngestOptions& options = {});

  /// Replays an entire pcap stream through the sequential one-packet-at-a-
  /// time reader; returns the number of decoded packets. Reference path for
  /// the batched front end's identity tests.
  std::uint64_t replay(net::PcapReader& reader);

  /// Replays an in-memory packet vector (must be time-ordered).
  void replay(const std::vector<net::PacketRecord>& packets);

  /// Signals end-of-trace to every plugin.
  void finish();

 private:
  std::vector<std::unique_ptr<PacketPlugin>> plugins_;
};

/// The RS-DoS detection plugin: a facade over BackscatterDetector. After
/// on_end(), events() holds the randomly-spoofed attack events in
/// event_less order.
class RsdosPlugin : public PacketPlugin {
 public:
  explicit RsdosPlugin(ClassifierThresholds thresholds = {},
                       double flow_timeout_s = 300.0);

  std::string name() const override { return "rsdos"; }
  void on_packet(const net::PacketRecord& rec) override;
  void on_end() override;

  const std::vector<TelescopeEvent>& events() const { return events_; }
  const BackscatterDetector& detector() const { return detector_; }

 private:
  std::vector<TelescopeEvent> events_;
  BackscatterDetector detector_;
};

/// Aggregate traffic counters (packets per IP protocol, backscatter share).
class TrafficStatsPlugin : public PacketPlugin {
 public:
  std::string name() const override { return "stats"; }
  void on_packet(const net::PacketRecord& rec) override;

  std::uint64_t total_packets() const { return total_; }
  std::uint64_t total_bytes() const { return bytes_; }
  std::uint64_t backscatter_packets() const { return backscatter_; }
  /// Packet count per IP protocol number.
  const std::map<std::uint8_t, std::uint64_t>& per_protocol() const {
    return per_proto_;
  }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t backscatter_ = 0;
  std::map<std::uint8_t, std::uint64_t> per_proto_;
};

}  // namespace dosm::telescope
