// ingest.* instrumentation: batch/frame/packet throughput, per-reason frame
// skips, and ring backpressure. Same obs contract as every other Metrics
// struct in the repo: registered once on the process-wide registry, updates
// lock-free, write-only (nothing in the pipeline reads these to decide).
//
// The ingest.skipped.* counters are shared with the sequential reader:
// net/pcap.cpp resolves the same names from the same registry, so a mixed
// deployment (sequential tests, batched production path) reports one truth.
#pragma once

#include "obs/metrics.h"

namespace dosm::ingest {

struct Metrics {
  // Capture -> decode throughput.
  obs::Counter& batches;
  obs::Counter& frames;
  obs::Counter& packets;        // frames decoded to PacketRecords
  obs::Counter& bytes;          // captured payload bytes ingested

  // Per-reason frame skips (shared names with net/pcap.cpp).
  obs::Counter& skipped_link;
  obs::Counter& skipped_truncated;
  obs::Counter& skipped_undecodable;

  // SPSC ring backpressure.
  obs::Counter& ring_pushed;
  obs::Counter& ring_popped;
  obs::Counter& ring_producer_waits;
  obs::Counter& ring_consumer_waits;
  obs::Histogram& ring_occupancy;      // batches queued, sampled per push

  static Metrics& get();
};

}  // namespace dosm::ingest
