#include "telescope/pipeline.h"

namespace dosm::telescope {

void Pipeline::process(const net::PacketRecord& rec) {
  for (auto& plugin : plugins_) plugin->on_packet(rec);
}

std::uint64_t Pipeline::replay(std::istream& pcap_stream,
                               const ingest::IngestOptions& options) {
  const auto stats = ingest::run_ingest(
      pcap_stream, options, [this](std::span<const net::PacketRecord> records) {
        for (const net::PacketRecord& rec : records) process(rec);
      });
  return stats.packets;
}

std::uint64_t Pipeline::replay(net::PcapReader& reader) {
  std::uint64_t count = 0;
  while (auto rec = reader.next_packet()) {
    process(*rec);
    ++count;
  }
  return count;
}

void Pipeline::replay(const std::vector<net::PacketRecord>& packets) {
  for (const auto& rec : packets) process(rec);
}

void Pipeline::finish() {
  for (auto& plugin : plugins_) plugin->on_end();
}

RsdosPlugin::RsdosPlugin(ClassifierThresholds thresholds, double flow_timeout_s)
    : detector_(thresholds, flow_timeout_s) {}

void RsdosPlugin::on_packet(const net::PacketRecord& rec) {
  detector_.on_packet(rec);
}

void RsdosPlugin::on_end() { events_ = detector_.finish(); }

void TrafficStatsPlugin::on_packet(const net::PacketRecord& rec) {
  ++total_;
  bytes_ += rec.ip_len;
  ++per_proto_[rec.proto];
  if (is_backscatter(rec)) ++backscatter_;
}

}  // namespace dosm::telescope
