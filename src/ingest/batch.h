// Batched pcap capture: one buffered read slices many frames per call.
//
// PcapReader::next_frame costs two istream reads plus a heap-allocated byte
// vector per record — fine for tests, a ceiling for replaying telescope
// captures at line rate. BatchedPcapReader instead fills a large chunk
// buffer with a single istream read and slices record headers out of it in
// memory, emitting FrameBatch objects: one contiguous byte arena plus an
// index of FrameView descriptors. A batch owns its bytes, so it can cross
// the SPSC ring (src/ingest/ring.h) to a consumer thread while the reader
// refills its buffer.
//
// Error semantics match the sequential reader exactly: truncated record
// headers/bodies, implausible lengths, and mid-capture stream errors throw
// std::runtime_error; a clean EOF ends iteration. When a malformed record
// follows good frames inside one batch, the good frames are returned first
// and the error is rethrown on the *next* call — the consumer processes
// exactly the same frame prefix the sequential reader would have.
#pragma once

#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <vector>

#include "net/pcap.h"

namespace dosm::ingest {

/// One captured frame inside a FrameBatch: record header fields plus the
/// [offset, offset + caplen) slice of the batch's byte arena.
struct FrameView {
  UnixSeconds ts_sec = 0;
  std::uint32_t ts_usec = 0;
  std::uint32_t orig_len = 0;
  std::uint32_t offset = 0;
  std::uint32_t caplen = 0;
};

/// A batch of captured frames backed by one contiguous byte arena.
struct FrameBatch {
  std::vector<std::uint8_t> bytes;
  std::vector<FrameView> frames;

  std::span<const std::uint8_t> payload(const FrameView& frame) const {
    return std::span(bytes).subspan(frame.offset, frame.caplen);
  }
  std::size_t size() const { return frames.size(); }
  bool empty() const { return frames.empty(); }
  void clear() {
    bytes.clear();
    frames.clear();
  }
};

/// Slices pcap records out of a chunked read buffer. Single-threaded; the
/// pipeline runs one reader on the capture thread.
class BatchedPcapReader {
 public:
  /// Reads and validates the global header (same checks as PcapReader).
  /// `chunk_bytes` is the size of each buffered istream read.
  explicit BatchedPcapReader(std::istream& in,
                             std::size_t chunk_bytes = 256 * 1024);

  std::uint32_t link_type() const { return link_type_; }

  /// Fills `out` (cleared first) with up to `max_frames` frames. Returns
  /// false at clean EOF with no frames remaining. Throws
  /// std::invalid_argument when `max_frames` is 0, and std::runtime_error
  /// on malformed records or stream errors — after first surfacing, via a
  /// non-empty batch, any frames that preceded the error.
  bool next_batch(FrameBatch& out, std::size_t max_frames);

  std::uint64_t frames_read() const { return frames_read_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  /// Tops up the buffer from the stream. Returns false when the stream is
  /// exhausted; throws on stream errors.
  bool refill();
  /// Bytes currently buffered and unconsumed.
  std::size_t available() const { return end_ - pos_; }

  std::istream& in_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::uint32_t link_type_ = net::kLinkTypeRaw;
  bool swapped_ = false;
  bool exhausted_ = false;  // istream fully drained
  std::string pending_error_;  // deferred from a partially-filled batch
  std::uint64_t frames_read_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace dosm::ingest
