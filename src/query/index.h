// Secondary indexes over an EventFrame.
//
// Two kinds of index:
//
//   time     — rows are sorted by start, so a time-range filter is two
//              binary searches yielding a contiguous row range. Nothing is
//              built for it.
//   postings — equality postings keyed by target /32, target /24, origin
//              ASN, country, and top port, built once per sealed or loaded
//              segment. Each key family is three flat arrays: ascending
//              distinct keys, offsets, and the row ids grouped by key. A
//              lookup is a binary search over the keys.
//
// Within a key the row ids are ascending, which the executor exploits to
// clip them against a time range with two more binary searches instead of
// per-row checks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "query/event_frame.h"

namespace dosm::query {

/// A [begin, end) row-id range.
struct RowRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  std::uint32_t size() const { return end - begin; }
};

class FrameIndex {
 public:
  FrameIndex() = default;
  /// Builds all indexes; the frame must outlive the index (a Snapshot owns
  /// both).
  explicit FrameIndex(const EventFrame& frame);

  /// Rows whose start falls in [t0, t1); contiguous because the frame is
  /// start-sorted.
  RowRange time_range(double t0, double t1) const;

  /// Equality postings, ascending; empty span when the key was never seen.
  std::span<const std::uint32_t> by_target(std::uint32_t addr) const;
  std::span<const std::uint32_t> by_slash24(std::uint32_t network) const;
  std::span<const std::uint32_t> by_asn(meta::Asn asn) const;
  std::span<const std::uint32_t> by_country(PackedCountry country) const;
  std::span<const std::uint32_t> by_port(std::uint16_t port) const;

 private:
  /// One key family: the rows of keys[i] are rows[offsets[i], offsets[i+1]).
  struct Postings {
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> rows;

    /// Fills the family from (key << 32 | row) words sorted by key.
    void build(std::span<const std::uint64_t> sorted);
    std::span<const std::uint32_t> find(std::uint32_t key) const;
  };

  const EventFrame* frame_ = nullptr;
  Postings target_;
  Postings slash24_;
  Postings asn_;
  Postings country_;
  Postings port_;
};

}  // namespace dosm::query
