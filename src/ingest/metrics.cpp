#include "ingest/metrics.h"

#include <array>

namespace dosm::ingest {

Metrics& Metrics::get() {
  static Metrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    static const std::array<double, 7> occupancy_bounds = {0, 1, 2, 4,
                                                           8, 16, 32};
    return Metrics{
        reg.counter("ingest.batches", "Frame batches read from the capture"),
        reg.counter("ingest.frames", "Captured frames ingested"),
        reg.counter("ingest.packets", "Frames decoded to packet records"),
        reg.counter("ingest.bytes", "Captured payload bytes ingested"),
        reg.counter("ingest.skipped.link",
                    "Frames dropped at the link layer (short frame or "
                    "non-IPv4 EtherType)"),
        reg.counter("ingest.skipped.truncated",
                    "Frames dropped because the IPv4 total_length exceeds "
                    "the captured bytes (snaplen truncation)"),
        reg.counter("ingest.skipped.undecodable",
                    "Frames dropped because the payload is not parseable "
                    "IPv4"),
        reg.counter("ingest.ring.pushed", "Batches pushed into the SPSC ring"),
        reg.counter("ingest.ring.popped", "Batches popped from the SPSC ring"),
        reg.counter("ingest.ring.producer_waits",
                    "Producer blocking waits on a full ring"),
        reg.counter("ingest.ring.consumer_waits",
                    "Consumer blocking waits on an empty ring"),
        reg.histogram("ingest.ring.occupancy",
                      "Batches queued in the ring, sampled at each push",
                      occupancy_bounds),
    };
  }();
  return metrics;
}

}  // namespace dosm::ingest
