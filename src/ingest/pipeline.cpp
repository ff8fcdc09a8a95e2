#include "ingest/pipeline.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "ingest/decode.h"
#include "ingest/metrics.h"
#include "ingest/ring.h"

namespace dosm::ingest {

namespace {

/// Fewest capture bytes a kept packet consumes: a 16-byte record header
/// plus a 20-byte IPv4 header. A stream's size over this bounds its packets.
constexpr std::size_t kMinKeptRecordBytes = 16 + 20;

/// Most records read_packets reserves from a size hint (192 MiB of
/// PacketRecords), so a huge or lying hint cannot fail the reservation
/// before a byte is read. Past it the vector grows geometrically.
constexpr std::size_t kMaxReservedRecords = std::size_t{1} << 22;

/// The capture-thread -> ring -> decode pipeline behind run_ingest and
/// read_packets. Each batch decodes by appending to `out`; `deliver(out)`
/// then runs on the consumer thread before the next batch is popped.
template <typename Deliver>
IngestStats run_pipeline(std::istream& pcap_stream,
                         const IngestOptions& options,
                         std::vector<net::PacketRecord>& out,
                         Deliver&& deliver) {
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
  while (ring.pop(batch)) {
    const std::size_t before = out.size();
    const DecodeStats decoded = decode_batch(batch, link_type, out);
    ++stats.batches;
    stats.frames += batch.size();
    stats.packets += out.size() - before;
    stats.bytes += batch.bytes.size();
    stats.skipped_link += decoded.skipped_link;
    stats.skipped_truncated += decoded.skipped_truncated;
    stats.skipped_undecodable += decoded.skipped_undecodable;
    deliver(out);
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

}  // namespace

IngestStats run_ingest(std::istream& pcap_stream, const IngestOptions& options,
                       const RecordBatchSink& sink) {
  std::vector<net::PacketRecord> records;
  return run_pipeline(pcap_stream, options, records,
                      [&](std::vector<net::PacketRecord>& decoded) {
                        sink(std::span<const net::PacketRecord>(decoded));
                        decoded.clear();
                      });
}

std::vector<net::PacketRecord> read_packets(std::istream& pcap_stream,
                                            const IngestOptions& options) {
  std::vector<net::PacketRecord> packets;
  // Asked before the reader takes the global header: an ifstream reports
  // the whole file only while its buffer is still empty.
  const std::streamsize hint =
      pcap_stream.rdbuf() != nullptr ? pcap_stream.rdbuf()->in_avail() : 0;
  if (hint > 0) {
    packets.reserve(std::min(
        static_cast<std::size_t>(hint) / kMinKeptRecordBytes,
        kMaxReservedRecords));
  }
  run_pipeline(pcap_stream, options, packets,
               [](const std::vector<net::PacketRecord>&) {});
  return packets;
}

}  // namespace dosm::ingest
