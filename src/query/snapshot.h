// An immutable, indexed, servable view of the fused event dataset.
//
// A Snapshot is an ordered list of sealed FrameSegments (per-day or
// per-day-range columnar frames, each with its own postings/index — see
// query/segment.h). Queries run segment-at-a-time: a time filter first
// clips the segment list itself (segments are start-time buckets), then
// inside each surviving segment the tiny cost-based planner picks between
// the contiguous start-sorted row range and the equality postings (target
// /32, /24, ASN, country, port), and the executor verifies the remaining
// predicates column-wise.
//
// Row ids are GLOBAL: segment concatenation order, which by the bucket
// invariant equals the (start, target, source, insertion)-sorted order of
// a monolithic build — so results, row ids included, are identical at any
// segment granularity.
//
// Snapshots are immutable after construction and published by shared_ptr
// (see query/engine.h), so any number of reader threads may query one
// concurrently with no synchronization. Consecutive snapshots from the
// streaming publisher share sealed segments by pointer.
//
// Tiering: a slot may instead be a COLD reference (query/segment_provider.h)
// that the storage layer materializes on demand from an on-disk archive.
// The planner clips cold segments by their TOC metadata and per-block zone
// maps before loading anything; once a segment is fetched it goes through
// exactly the hot execution path, so results are byte-identical across
// tiers (the ExecBudget row budget counts MATCHED rows, which no access
// path or tier can change).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.h"
#include "core/event_store.h"
#include "query/budget.h"
#include "query/build_context.h"
#include "query/event_frame.h"
#include "query/index.h"
#include "query/query.h"
#include "query/segment.h"
#include "query/segment_provider.h"

namespace dosm::query {

/// One row of an event listing (see Snapshot::event_rows).
struct EventRow {
  double start = 0.0;
  net::Ipv4Addr target;
  core::EventSource source = core::EventSource::kTelescope;
  double intensity = 0.0;
  std::uint16_t top_port = 0;
};

class Snapshot {
 public:
  /// Assembles a snapshot over already-sealed segments (must be in bucket
  /// order; see segment.h). Prefer the named constructors for batch data —
  /// this is the streaming publisher's structural-sharing path.
  Snapshot(StudyWindow window,
           std::vector<std::shared_ptr<const FrameSegment>> segments,
           std::uint64_t version);

  /// Assembles a tiered snapshot over a mix of resident segments and cold
  /// references (slot order must still cover strictly increasing start
  /// ranges). This is storage::open_tiered's path; query results are
  /// byte-identical to a fully resident snapshot over the same segments.
  Snapshot(StudyWindow window, std::vector<TieredSlot> slots,
           std::uint64_t version);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Builds a snapshot over a raw event span. Metadata and build knobs come
  /// from the context (metadata borrowed only during the build);
  /// ctx.segment_days picks the segment granularity — every granularity
  /// yields identical query results.
  static std::shared_ptr<const Snapshot> build(
      StudyWindow window, std::span<const core::AttackEvent> events,
      const BuildContext& ctx, std::uint64_t version = 0);

  /// Builds a snapshot of a (finalized or not) batch EventStore.
  static std::shared_ptr<const Snapshot> from_store(
      const core::EventStore& store, const BuildContext& ctx,
      std::uint64_t version = 0);

  /// Sealed segments in time order. Cold slots appear as null pointers —
  /// callers that walk this span (structural-sharing checks, the archive
  /// writer) must hold a fully resident snapshot; see fully_resident().
  std::span<const std::shared_ptr<const FrameSegment>> segments() const {
    return segments_;
  }
  /// True when every slot is resident (no cold references).
  bool fully_resident() const { return num_cold_ == 0; }
  std::size_t num_segments() const { return segments_.size(); }
  const StudyWindow& window() const { return window_; }
  /// Total rows across all segments.
  std::size_t size() const { return total_rows_; }
  /// Publication sequence number (monotone per QueryEngine).
  std::uint64_t version() const { return version_; }

  /// The listed fields of the given global row ids (each < size(), e.g. a
  /// prefix of match_rows()), in the given order. Each run of rows that
  /// falls in one segment resolves that segment once, so a cold run costs
  /// one fetch.
  std::vector<EventRow> event_rows(std::span<const std::uint32_t> rows) const;

  /// The aggregate access path the executor would take, without running the
  /// query: per-segment candidate counts summed, the choice taken from the
  /// segment contributing the most candidates (the one that dominates
  /// execution cost). Empty snapshots report a zero-candidate full scan.
  QueryPlan plan(const Query& query) const;

  // Every aggregation accepts an optional ExecBudget (default: unlimited).
  // Blowing the row budget is deterministic for a given (snapshot, query);
  // both budget kinds surface as BudgetExceeded (see query/budget.h).
  std::uint64_t count(const Query& query, const ExecBudget& budget = {}) const;
  std::uint64_t unique_targets(const Query& query,
                               const ExecBudget& budget = {}) const;
  /// Attacks per window day (events starting outside the window are
  /// dropped; an event counts toward the day its start falls on).
  DailySeries daily_attacks(const Query& query,
                            const ExecBudget& budget = {}) const;
  std::vector<TargetCount> top_targets(const Query& query, std::size_t k,
                                       const ExecBudget& budget = {}) const;
  std::vector<AsnCount> top_asns(const Query& query, std::size_t k,
                                 const ExecBudget& budget = {}) const;
  /// Table-4 semantics: unique matching targets per country, descending
  /// (ties by country code), with shares of the matching target population.
  std::vector<core::CountryCount> country_ranking(
      const Query& query, const ExecBudget& budget = {}) const;
  std::vector<core::CountryCount> top_countries(
      const Query& query, std::size_t k, const ExecBudget& budget = {}) const;
  /// Matching global row ids in frame order (ascending start).
  std::vector<std::uint32_t> match_rows(const Query& query,
                                        const ExecBudget& budget = {}) const;

 private:
  /// Per-slot metadata, valid without materializing the slot: what the
  /// segment-list clip and the cold planner run on.
  struct SlotMeta {
    std::uint32_t rows = 0;
    double start_min = 0.0;
    double start_max = 0.0;

    bool overlaps(double t0, double t1) const {
      return start_min < t1 && start_max >= t0;
    }
  };

  /// Materializes slot s: resident pointer, or provider fetch for a cold
  /// slot (validated against the slot metadata). `keep` extends the cold
  /// segment's lifetime for the caller's scan.
  const FrameSegment& resolve(std::size_t s,
                              std::shared_ptr<const FrameSegment>& keep) const;

  static bool row_matches(const Query& query, const EventFrame& frame,
                          std::uint32_t row);
  static QueryPlan plan_segment(const Query& query, const FrameSegment& seg);

  /// Calls fn(frame, local_row, global_row) for every matching row, in
  /// global row order. Charges every MATCHED row against the row budget
  /// (access-path- and tier-independent) and polls the deadline per visited
  /// candidate; throws BudgetExceeded when a ceiling is hit.
  template <typename Fn>
  void for_each_match(const Query& query, const ExecBudget& budget,
                      Fn&& fn) const;

  StudyWindow window_;
  std::vector<std::shared_ptr<const FrameSegment>> segments_;  // null = cold
  std::vector<ColdSegmentRef> cold_;  // parallel to segments_ when tiered
  std::vector<SlotMeta> meta_;        // parallel: rows + start bounds
  std::vector<std::uint32_t> bases_;  // global row id of each segment's row 0
  std::size_t num_cold_ = 0;
  std::size_t total_rows_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace dosm::query
