// The batched, backpressured ingest front end.
//
// run_ingest wires the pieces together: a capture thread slices the pcap
// stream into FrameBatches (ingest/batch.h) and pushes them through a
// bounded SPSC ring (ingest/ring.h); the calling thread pops batches,
// decodes them (ingest/decode.h), and hands each decoded batch of
// PacketRecords to the sink in capture order.
//
// Determinism contract: the sink sees exactly the packet sequence
// PcapReader::next_packet would have produced — at any batch size and any
// ring capacity. A full ring stalls the capture thread; the SPSC ring is
// strictly FIFO and nothing is dropped, so batching changes only how bytes
// move, never what they decode to. A lossy ring would change the packet
// counts the detector's thresholds are defined over.
//
// Errors: a malformed record or mid-capture stream error is rethrown on the
// consumer thread after every frame read before the error has been decoded
// and sunk — again matching the sequential reader's progress-then-throw
// behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <span>
#include <vector>

#include "ingest/batch.h"
#include "net/headers.h"

namespace dosm::ingest {

struct IngestOptions {
  std::size_t batch_frames = 4096;    // frames sliced per batch (>= 1)
  std::size_t ring_capacity = 8;      // batches in flight (rounded to pow2)
  std::size_t read_chunk_bytes = 256 * 1024;  // istream read granularity
};

struct IngestStats {
  std::uint64_t batches = 0;
  std::uint64_t frames = 0;
  std::uint64_t packets = 0;         // records delivered to the sink
  std::uint64_t bytes = 0;           // captured payload bytes
  std::uint64_t skipped_link = 0;
  std::uint64_t skipped_truncated = 0;
  std::uint64_t skipped_undecodable = 0;
};

/// Batch-granular sink: one call per decoded batch, records in capture
/// order. The span is valid only for the duration of the call.
using RecordBatchSink = std::function<void(std::span<const net::PacketRecord>)>;

/// Replays `pcap_stream` through the capture-thread -> ring -> decode
/// pipeline, invoking `sink` once per decoded batch in capture order.
/// Throws std::invalid_argument when options.batch_frames is 0 (raised by
/// BatchedPcapReader::next_batch on the capture thread and rethrown here,
/// before any batch is sunk), and std::runtime_error on malformed input or
/// stream errors (after sinking every packet that preceded the error).
IngestStats run_ingest(std::istream& pcap_stream, const IngestOptions& options,
                       const RecordBatchSink& sink);

/// Batched read of an entire capture into one vector, decoded straight into
/// it through the same pipeline as run_ingest (same order, same errors).
/// The vector is reserved once from `pcap_stream.rdbuf()->in_avail()`, asked
/// before the global header is read: an ifstream reports the file's size
/// only while its buffer is still empty, an istringstream or an in-memory
/// streambuf its whole content. A kept packet consumes at least 36 bytes (a
/// 16-byte record header and a 20-byte IPv4 header), so size / 36 records
/// suffice for a truthful hint. The reservation is capped at 4 Mi records;
/// past the cap, or without a hint, the vector grows geometrically.
std::vector<net::PacketRecord> read_packets(std::istream& pcap_stream,
                                            const IngestOptions& options = {});

}  // namespace dosm::ingest
