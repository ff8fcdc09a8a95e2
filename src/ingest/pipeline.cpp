#include "ingest/pipeline.h"

#include <exception>
#include <thread>
#include <utility>

#include "ingest/decode.h"
#include "ingest/metrics.h"
#include "ingest/ring.h"

namespace dosm::ingest {

IngestStats run_ingest(std::istream& pcap_stream, const IngestOptions& options,
                       const RecordBatchSink& sink) {
  BatchedPcapReader reader(pcap_stream, options.read_chunk_bytes);
  const std::uint32_t link_type = reader.link_type();
  SpscRing<FrameBatch> ring(options.ring_capacity);
  // Return path for drained batches: the consumer hands emptied batches back
  // so their arena capacity is reused instead of reallocated per batch
  // (~tens of KB of malloc/free and page traffic per batch otherwise). Both
  // rings stay SPSC — the roles just swap sides. One extra slot guarantees
  // a returned batch always fits even when the main ring is full.
  SpscRing<FrameBatch> recycle(options.ring_capacity + 1);
  auto& metrics = Metrics::get();

  IngestStats stats;
  std::exception_ptr capture_error;

  std::thread capture([&] {
    try {
      FrameBatch batch;
      while (reader.next_batch(batch, options.batch_frames)) {
        metrics.ring_occupancy.observe(static_cast<double>(ring.size()));
        ring.push(batch);
        // Moved away: grab a recycled batch if one is waiting, otherwise
        // continue with the empty moved-from shell.
        recycle.try_pop(batch);
      }
    } catch (...) {
      // Surfaced on the consumer thread after the ring drains, so every
      // frame that preceded the error is still decoded and sunk first.
      capture_error = std::current_exception();
    }
    ring.close();
  });

  FrameBatch batch;
  std::vector<net::PacketRecord> records;
  while (ring.pop(batch)) {
    records.clear();
    const DecodeStats decoded = decode_batch(batch, link_type, records);
    sink(std::span<const net::PacketRecord>(records));
    ++stats.batches;
    stats.frames += batch.size();
    stats.packets += records.size();
    stats.bytes += batch.bytes.size();
    stats.skipped_link += decoded.skipped_link;
    stats.skipped_truncated += decoded.skipped_truncated;
    stats.skipped_undecodable += decoded.skipped_undecodable;
    // Return the drained batch for arena reuse; if the return ring is full
    // the batch simply frees here.
    batch.clear();
    recycle.try_push(batch);
  }
  capture.join();

  // Fold the run's traffic into the process-wide registry (write-only; the
  // per-run stats the caller gets back are computed independently).
  metrics.batches.add(stats.batches);
  metrics.frames.add(stats.frames);
  metrics.packets.add(stats.packets);
  metrics.bytes.add(stats.bytes);
  const RingStats& ring_stats = ring.stats();
  metrics.ring_pushed.add(
      ring_stats.pushed.load(std::memory_order_relaxed));
  metrics.ring_popped.add(
      ring_stats.popped.load(std::memory_order_relaxed));
  metrics.ring_producer_waits.add(
      ring_stats.producer_waits.load(std::memory_order_relaxed));
  metrics.ring_consumer_waits.add(
      ring_stats.consumer_waits.load(std::memory_order_relaxed));

  if (capture_error) std::rethrow_exception(capture_error);
  return stats;
}

std::vector<net::PacketRecord> read_packets(std::istream& pcap_stream,
                                            const IngestOptions& options) {
  std::vector<net::PacketRecord> packets;
  run_ingest(pcap_stream, options,
             [&](std::span<const net::PacketRecord> records) {
               packets.insert(packets.end(), records.begin(), records.end());
             });
  return packets;
}

}  // namespace dosm::ingest
