#include "query/index.h"

#include <algorithm>
#include <array>
#include <utility>

namespace dosm::query {

namespace {

/// Stable LSD radix sort of (key << 32 | row) words by key, one pass per
/// key byte that is not the same in every word. Words arrive in row order,
/// so the rows of each key stay ascending.
void sort_by_key(std::vector<std::uint64_t>& words,
                 std::vector<std::uint64_t>& scratch) {
  if (words.size() < 2) return;
  std::array<std::array<std::uint32_t, 256>, 4> counts{};
  for (const std::uint64_t word : words)
    for (std::size_t b = 0; b < 4; ++b)
      ++counts[b][(word >> (32 + 8 * b)) & 0xff];
  scratch.resize(words.size());
  for (std::size_t b = 0; b < 4; ++b) {
    const std::size_t shift = 32 + 8 * b;
    auto& count = counts[b];
    if (count[(words.front() >> shift) & 0xff] == words.size()) continue;
    std::uint32_t next = 0;
    for (std::uint32_t& c : count) next += std::exchange(c, next);
    for (const std::uint64_t word : words)
      scratch[count[(word >> shift) & 0xff]++] = word;
    words.swap(scratch);
  }
}

}  // namespace

FrameIndex::FrameIndex(const EventFrame& frame) : frame_(&frame) {
  const auto n = static_cast<std::uint32_t>(frame.size());
  const auto target = frame.target();
  const auto port = frame.top_port();
  const auto asn = frame.asn();
  const auto country = frame.country();

  // Two scratch buffers of (key << 32 | row) words serve every family:
  // sorting them by key groups the rows by key, ascending within a key.
  std::vector<std::uint64_t> packed(n);
  std::vector<std::uint64_t> scratch;
  const auto build = [&](Postings& postings, auto key_of) {
    for (std::uint32_t row = 0; row < n; ++row)
      packed[row] = static_cast<std::uint64_t>(key_of(row)) << 32 | row;
    sort_by_key(packed, scratch);
    postings.build(packed);
  };
  build(target_, [&](std::uint32_t row) { return target[row]; });
  build(slash24_,
        [&](std::uint32_t row) { return target[row] & 0xffffff00u; });
  build(asn_, [&](std::uint32_t row) { return asn[row]; });
  build(country_, [&](std::uint32_t row) { return country[row]; });
  build(port_, [&](std::uint32_t row) { return port[row]; });
}

void FrameIndex::Postings::build(std::span<const std::uint64_t> sorted) {
  const auto key = [&](std::size_t i) {
    return static_cast<std::uint32_t>(sorted[i] >> 32);
  };
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (i == 0 || key(i) != key(i - 1)) ++distinct;
  keys.reserve(distinct);
  offsets.reserve(distinct + 1);
  rows.resize(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || key(i) != key(i - 1)) {
      keys.push_back(key(i));
      offsets.push_back(static_cast<std::uint32_t>(i));
    }
    rows[i] = static_cast<std::uint32_t>(sorted[i]);
  }
  offsets.push_back(static_cast<std::uint32_t>(sorted.size()));
}

std::span<const std::uint32_t> FrameIndex::Postings::find(
    std::uint32_t key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  const auto i = static_cast<std::size_t>(it - keys.begin());
  return std::span<const std::uint32_t>(rows).subspan(
      offsets[i], offsets[i + 1] - offsets[i]);
}

RowRange FrameIndex::time_range(double t0, double t1) const {
  const auto start = frame_->start();
  const auto lo = std::lower_bound(start.begin(), start.end(), t0);
  const auto hi = std::lower_bound(lo, start.end(), t1);
  return {static_cast<std::uint32_t>(lo - start.begin()),
          static_cast<std::uint32_t>(hi - start.begin())};
}

std::span<const std::uint32_t> FrameIndex::by_target(std::uint32_t addr) const {
  return target_.find(addr);
}

std::span<const std::uint32_t> FrameIndex::by_slash24(std::uint32_t network) const {
  return slash24_.find(network & 0xffffff00u);
}

std::span<const std::uint32_t> FrameIndex::by_asn(meta::Asn asn) const {
  return asn_.find(asn);
}

std::span<const std::uint32_t> FrameIndex::by_country(PackedCountry country) const {
  return country_.find(country);
}

std::span<const std::uint32_t> FrameIndex::by_port(std::uint16_t port) const {
  return port_.find(port);
}

}  // namespace dosm::query
