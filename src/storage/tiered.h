// Tiered snapshots: hot segments resident in memory, cold segments decoded
// on demand from a DOSARCH1 archive through a byte-budgeted LRU cache.
//
// open_tiered() splits an archive's segments by BuildContext::hot_days (the
// trailing window days kept resident; 0 keeps everything cold) and hands
// back an ordinary query::Snapshot whose cold slots route through a
// TieredStore. The planner clips cold segments by TOC metadata and zone
// maps before any byte is read; a fetched segment is the byte-identical
// FrameSegment the writer archived, so every aggregation result matches a
// fully resident snapshot exactly — at any cache budget, including 0.
//
// Cache policy: strict LRU over decoded segments, charged at an estimated
// decoded footprint (frame columns + index postings). A segment larger than
// the whole budget is served without being cached; budget 0 disables the
// cache entirely (each access decodes afresh). Evicted segments stay alive
// as long as a running query pins them (shared_ptr), so eviction can never
// dangle a scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "query/build_context.h"
#include "query/segment_provider.h"
#include "query/snapshot.h"
#include "storage/archive.h"

namespace dosm::storage {

/// Estimated resident bytes of a decoded segment: 42 B/row of frame columns
/// plus ~30 B/row of postings (20 B/row of row ids, 8 B per distinct key of
/// each family; a one-day segment's targets are nearly all distinct). An
/// estimate is fine — the budget is a working-set knob, not an allocator —
/// but it must be deterministic, so it is a pure function of the row count.
inline constexpr std::size_t kDecodedBytesPerRow = 72;

/// SegmentProvider over one archive: LRU-cached decodes plus zone-map
/// clipping, with storage.cache.* / storage.zone.* metrics. Thread-safe.
class TieredStore : public query::SegmentProvider {
 public:
  TieredStore(std::shared_ptr<const ArchiveReader> reader,
              std::size_t cache_budget_bytes);
  ~TieredStore() override;

  /// Decodes (or returns the cached copy of) segment `id`. Byte-identical
  /// to the archived segment; throws core::SerializeError on corruption.
  std::shared_ptr<const query::FrameSegment> fetch(
      std::uint32_t id) const override;

  /// Zone-map clip; counts skipped blocks (and fully skipped segments) in
  /// the storage.zone.* metrics. Never reads segment bytes.
  query::RowRange clip(std::uint32_t id, double t0,
                       double t1) const override;

  const ArchiveReader& reader() const { return *reader_; }
  std::size_t cache_budget_bytes() const { return budget_; }

 private:
  struct Entry {
    std::shared_ptr<const query::FrameSegment> segment;
    std::size_t bytes = 0;
    std::list<std::uint32_t>::iterator lru_pos;
  };

  /// Drops least-recently-used entries until the cache fits the budget.
  /// Caller holds mutex_.
  void evict_to_fit() const;

  std::shared_ptr<const ArchiveReader> reader_;
  std::size_t budget_;

  mutable std::mutex mutex_;
  mutable std::list<std::uint32_t> lru_;  // front = most recent
  mutable std::unordered_map<std::uint32_t, Entry> entries_;
  mutable std::size_t resident_bytes_ = 0;
};

/// Opens an archive as a tiered snapshot. ctx.hot_days trailing window days
/// are decoded eagerly and kept resident; everything older stays cold
/// behind a TieredStore with a ctx.cold_cache_bytes LRU budget. Query
/// results are byte-identical to Snapshot::build over the same events for
/// any (hot_days, cold_cache_bytes) setting.
std::shared_ptr<const query::Snapshot> open_tiered(
    const std::string& path, const query::BuildContext& ctx,
    std::uint64_t version = 0);

}  // namespace dosm::storage
