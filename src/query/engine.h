// The concurrent serving layer: snapshot-swap publication.
//
// Readers call QueryEngine::snapshot() — a copy of a
// shared_ptr<const Snapshot>, under a mutex held only for that copy — and
// run any number of queries against the immutable snapshot they obtained;
// they never wait on a query or a seal and can never observe torn state,
// because published snapshots are never mutated. The streaming
// path (SnapshotPublisher) seals only the just-completed day into a new
// FrameSegment at every day boundary and publishes a snapshot whose segment
// list reuses every previously sealed segment by pointer — an O(new-day)
// publish. Readers holding an old snapshot keep it alive until they drop it.
//
// This is the §9 "near-realtime fusion, extraction, correlation" serving
// model: one writer, many ad-hoc query clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/streaming.h"
#include "query/build_context.h"
#include "query/event_frame.h"
#include "query/segment.h"
#include "query/snapshot.h"

namespace dosm::query {

class QueryEngine {
 public:
  /// Starts empty (snapshot() returns nullptr) or with an initial snapshot.
  explicit QueryEngine(std::shared_ptr<const Snapshot> initial = nullptr);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The current snapshot; safe from any thread. May be null before the
  /// first publish.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Atomically replaces the served snapshot. Throws std::invalid_argument
  /// on a null snapshot or a version not greater than the current one
  /// (readers rely on versions to detect swaps).
  void publish(std::shared_ptr<const Snapshot> next);

  std::uint64_t publishes() const { return publishes_.load(std::memory_order_relaxed); }

 private:
  // A mutex rather than std::atomic<std::shared_ptr>: with libstdc++ 12,
  // ThreadSanitizer reports a race inside the atomic's swap on every
  // publish, and the critical sections here are one pointer copy each.
  mutable std::mutex mutex_;
  std::shared_ptr<const Snapshot> current_;
  std::atomic<std::uint64_t> publishes_{0};
};

/// Bridges time-ordered streaming ingest to snapshot publication. Mirrors
/// StreamingFusion's contract (non-decreasing start order, out-of-window
/// events ignored). Each completed day is sealed ONCE into an immutable
/// FrameSegment; the publish assembles a new segment list sharing all prior
/// segments by pointer, so publish cost is O(rows in the sealed day), not
/// O(all history) — while a reader still always sees a whole-day-consistent
/// dataset. The publisher always seals per completed day; ctx.segment_days
/// does not apply to the streaming path.
class SnapshotPublisher {
 public:
  /// The engine is borrowed and must outlive the publisher. The publisher
  /// keeps a copy of ctx, so the metadata ctx borrows must outlive the
  /// publisher too (see BuildContext).
  SnapshotPublisher(QueryEngine& engine, StudyWindow window,
                    const BuildContext& ctx);

  /// Ingests one event; throws std::invalid_argument when start order
  /// decreases. Seals + publishes whenever a day boundary is crossed.
  void ingest(const core::AttackEvent& event);

  /// Seals and publishes the final (possibly partial) day.
  void finish();

  std::uint64_t events_ingested() const { return events_ingested_; }
  std::uint64_t snapshots_published() const { return snapshots_published_; }
  /// Segments sealed so far == days completed (each sealed exactly once).
  std::size_t segments_sealed() const { return sealed_.size(); }

 private:
  void seal_and_publish();

  QueryEngine* engine_;
  StudyWindow window_;
  BuildContext ctx_;
  std::vector<std::shared_ptr<const FrameSegment>> sealed_;
  FrameBuilder day_builder_;
  int current_day_ = -1;
  double last_start_ = -1.0e300;
  std::uint64_t events_ingested_ = 0;
  std::uint64_t snapshots_published_ = 0;
  std::uint64_t next_version_ = 1;
};

}  // namespace dosm::query
