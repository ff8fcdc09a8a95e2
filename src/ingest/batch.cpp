#include "ingest/batch.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dosm::ingest {

namespace {

std::uint32_t swap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) |
         (v >> 24);
}

std::uint16_t swap16(std::uint16_t v) {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

constexpr std::size_t kRecordHeaderLen = 16;
constexpr std::uint32_t kMaxCaplen = 1u << 26;

}  // namespace

BatchedPcapReader::BatchedPcapReader(std::istream& in, std::size_t chunk_bytes)
    : in_(in), buf_(std::max<std::size_t>(chunk_bytes, 4096)) {
  // The 24-byte global header is read directly; everything after flows
  // through the chunked buffer.
  std::uint8_t header[24];
  in_.read(reinterpret_cast<char*>(header), 4);
  if (in_.gcount() != 4)
    throw std::runtime_error("BatchedPcapReader: missing global header");
  std::uint32_t magic;
  std::memcpy(&magic, header, 4);
  if (magic == net::kPcapMagic) {
    swapped_ = false;
  } else if (swap32(magic) == net::kPcapMagic) {
    swapped_ = true;
  } else {
    throw std::runtime_error("BatchedPcapReader: bad magic");
  }
  in_.read(reinterpret_cast<char*>(header + 4), 20);
  if (in_.gcount() != 20)
    throw std::runtime_error("BatchedPcapReader: truncated global header");
  std::uint16_t vmaj;
  std::memcpy(&vmaj, header + 4, 2);
  if ((swapped_ ? swap16(vmaj) : vmaj) != 2)
    throw std::runtime_error("BatchedPcapReader: unsupported version");
  std::uint32_t lt;
  std::memcpy(&lt, header + 20, 4);
  link_type_ = swapped_ ? swap32(lt) : lt;
}

bool BatchedPcapReader::refill() {
  if (exhausted_) return false;
  if (pos_ > 0) {
    // Slide the unconsumed tail to the front before topping up.
    if (end_ > pos_) std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);  // oversized record
  in_.read(reinterpret_cast<char*>(buf_.data() + end_),
           static_cast<std::streamsize>(buf_.size() - end_));
  const auto got = static_cast<std::size_t>(in_.gcount());
  // Same EOF-vs-error discipline as PcapReader::next_frame: a short read is
  // expected at the file tail, but a zero-byte read on a stream that is not
  // at EOF (or any badbit) is an I/O failure, not end of capture.
  if (in_.bad() || (got == 0 && !in_.eof()))
    throw std::runtime_error("BatchedPcapReader: stream read error mid-capture");
  if (in_.eof()) exhausted_ = true;
  end_ += got;
  bytes_read_ += got;
  return got > 0;
}

bool BatchedPcapReader::next_batch(FrameBatch& out, std::size_t max_frames) {
  // A zero-frame batch never reaches the end of the capture.
  if (max_frames == 0)
    throw std::invalid_argument("next_batch: max_frames must be >= 1");
  out.clear();
  if (!pending_error_.empty()) {
    const std::string error = pending_error_;
    pending_error_.clear();
    throw std::runtime_error(error);
  }
  // Defers `message` if this batch already has frames (they are returned
  // first, matching the sequential reader's frame-by-frame progress),
  // otherwise throws immediately.
  const auto fail = [&](const char* message) -> bool {
    if (out.frames.empty()) throw std::runtime_error(message);
    pending_error_ = message;
    return true;
  };
  // Stream errors inside refill() defer like any other mid-batch failure so
  // sliced frames are never lost; `topped_up` distinguishes EOF (false) from
  // a deferred error (also false, with pending_error_ set).
  const auto try_refill = [&](bool& topped_up) -> bool {
    try {
      topped_up = refill();
      return false;
    } catch (const std::exception& e) {
      topped_up = false;
      fail(e.what());
      return true;
    }
  };
  while (out.frames.size() < max_frames) {
    while (available() < kRecordHeaderLen) {
      bool topped_up = false;
      if (try_refill(topped_up)) return true;
      if (!topped_up) {
        if (available() == 0) return !out.frames.empty();  // clean EOF
        return fail("BatchedPcapReader: truncated record header");
      }
    }
    std::uint32_t hdr[4];
    std::memcpy(hdr, buf_.data() + pos_, kRecordHeaderLen);
    if (swapped_)
      for (auto& w : hdr) w = swap32(w);
    const std::uint32_t caplen = hdr[2];
    if (caplen > kMaxCaplen)
      return fail("BatchedPcapReader: implausible record length");
    while (available() < kRecordHeaderLen + caplen) {
      bool topped_up = false;
      if (try_refill(topped_up)) return true;
      if (!topped_up) return fail("BatchedPcapReader: truncated record body");
    }
    // Keep FrameView::offset within u32: flush the batch early if the next
    // record would push the arena past that (only reachable with maximal
    // caplen records; the record stays buffered for the next batch).
    if (!out.frames.empty() &&
        out.bytes.size() + caplen >
            std::numeric_limits<std::uint32_t>::max()) {
      return true;
    }
    FrameView frame;
    frame.ts_sec = hdr[0];
    frame.ts_usec = hdr[1];
    frame.caplen = caplen;
    frame.orig_len = hdr[3];
    frame.offset = static_cast<std::uint32_t>(out.bytes.size());
    out.bytes.insert(out.bytes.end(),
                     buf_.data() + pos_ + kRecordHeaderLen,
                     buf_.data() + pos_ + kRecordHeaderLen + caplen);
    out.frames.push_back(frame);
    pos_ += kRecordHeaderLen + caplen;
    ++frames_read_;
  }
  return true;
}

}  // namespace dosm::ingest
