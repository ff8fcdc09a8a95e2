// Dispatcher: the push side of the watch/subscribe layer (ROADMAP item 5).
//
// An observer-pattern datastore in the spirit of SIMDIS MemoryDataStore:
// clients register Predicates and the streaming pipeline pushes matching
// alerts into bounded per-subscription queues. The dispatcher is itself a
// core::AlertSink, so it plugs directly into StreamingFusion (spike alerts)
// while ingest() lifts raw detector events into kNewAttack alerts —
// resolving the victim's ASN and country once per event, not per watcher.
//
// Dispatch pipeline, all under one mutex:
//
//   ingest/on_alert ─▶ SubscriptionIndex::match ─▶ stage (coalesce) ─▶
//   tick() ─▶ per-subscription ring (drop-oldest at the bound) ─▶
//   fetch(cursor) long-poll
//
// A subscription's flushed notifications hold contiguous seqs (staging
// assigns them in order, eviction only ever takes the oldest), so each
// queue is a bounded ring: tick evicts by advancing its head, in time
// proportional to what it evicts and enqueues, and fetch finds its cursor
// by index arithmetic rather than by scanning.
//
// Contracts:
//  * Deterministic notification order — alerts dispatch in arrival order
//    and each alert stages its matches in ascending subscription-id order,
//    so the per-subscription sequence numbers realize the total order on
//    (event, subscription_id). A fetch at a given cursor over a given
//    dispatched history returns identical bytes every time.
//  * Coalescing — within one tick, alerts for the same victim (same kind +
//    target; same kind + day for victimless spikes) fold into one staged
//    notification whose `coalesced` counts the folds. Deltas are thereby
//    deduplicated per tick, the batching the paper's near-realtime §9
//    loop needs at millions of events.
//  * Drop policy — queues are bounded (DispatcherConfig::max_pending);
//    overflow evicts the OLDEST notification and counts it in both the
//    per-subscription `dropped` (surfaced in FetchResult) and the
//    subscribe.dropped obs counter. A client detects loss by a sequence
//    gap or the dropped delta; it never blocks the dispatch path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/time.h"
#include "core/alert.h"
#include "core/event.h"
#include "meta/geo.h"
#include "meta/pfx2as.h"
#include "subscribe/index.h"
#include "subscribe/subscription.h"

namespace dosm::subscribe {

struct DispatcherConfig {
  /// Resolves the victim's origin AS for kNewAttack alerts (nullable).
  const meta::PrefixToAsMap* pfx2as = nullptr;
  /// Resolves the victim's country for kNewAttack alerts (nullable).
  const meta::GeoDatabase* geo = nullptr;
  /// Day resolution for event alerts; events outside get day = -1.
  StudyWindow window{};
  /// Per-subscription queue bound; the oldest notification is evicted when
  /// a tick would exceed it. Must be >= 1.
  std::size_t max_pending = 1024;
};

/// One queued delta. `seq` is per-subscription, 1-based, strictly
/// increasing; `coalesced` counts additional same-victim alerts folded into
/// this entry within its tick.
struct Notification {
  std::uint64_t seq = 0;
  std::uint32_t coalesced = 0;
  core::Alert alert;
};

struct FetchResult {
  /// Notifications with seq > cursor, in ascending seq order.
  std::vector<Notification> notifications;
  /// Cursor to pass next time: the last delivered seq (== the request
  /// cursor when nothing was delivered).
  std::uint64_t next_cursor = 0;
  /// Lifetime drop-oldest evictions for this subscription. A growing value
  /// between fetches means the client is too slow for its queue bound.
  std::uint64_t dropped = 0;
  /// Notifications still queued beyond next_cursor (more to fetch now).
  std::uint64_t pending = 0;
};

class Dispatcher final : public core::AlertSink {
 public:
  /// Throws std::invalid_argument when config.max_pending == 0.
  explicit Dispatcher(DispatcherConfig config = {});

  /// Registers a predicate; returns its id (never reused). Throws
  /// std::invalid_argument on an invalid predicate (see validate()).
  SubscriptionId subscribe(const Predicate& predicate);

  /// Unregisters; queued notifications are discarded and concurrent
  /// long-polls on the id return std::nullopt. False if unknown.
  bool unsubscribe(SubscriptionId id);

  /// Lifts one detected attack event into a kNewAttack alert (resolving
  /// ASN/country/day once) and dispatches it to matching subscriptions.
  void ingest(const core::AttackEvent& event);

  /// AlertSink: dispatches an already-built alert (StreamingFusion spikes).
  void on_alert(const core::Alert& alert) override;

  /// Closes the coalescing window: flushes staged notifications into the
  /// per-subscription queues (enforcing the drop policy) and wakes
  /// long-pollers. Call once per batch/day/tick of the ingest loop.
  void tick();

  /// Returns the notifications with seq > cursor (at most max_items; 0 =
  /// unlimited), blocking up to wait_ms milliseconds for one to arrive when
  /// the queue has nothing past the cursor. std::nullopt for an unknown or
  /// unsubscribed id. Pure function of (id, cursor, max_items) given a
  /// fixed dispatched history — the byte-determinism contract /watch
  /// inherits.
  std::optional<FetchResult> fetch(SubscriptionId id, std::uint64_t cursor,
                                   std::size_t max_items, int wait_ms = 0);

  std::size_t active_subscriptions() const;
  std::uint64_t events_ingested() const;
  std::uint64_t alerts_dispatched() const;

 private:
  struct Subscription {
    Predicate predicate;
    bool active = false;
    // Flushed notifications: `count` entries with contiguous ascending
    // seqs, the oldest at ring[head], wrapping at ring.size(). The ring
    // grows by doubling from 8 up to max_pending, so light watchers stay
    // small. (A std::deque allocates a block per four notifications and
    // took twice the tick time in bench_subscribe's queue phase.)
    std::vector<Notification> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::vector<Notification> staged;  // open tick, pre-flush
    std::uint64_t next_seq = 1;
    std::uint64_t dropped = 0;

    /// The i-th oldest flushed notification (i < count).
    const Notification& at(std::size_t i) const {
      return ring[(head + i) % ring.size()];
    }
    Notification& at(std::size_t i) { return ring[(head + i) % ring.size()]; }
  };

  void dispatch_locked(const core::Alert& alert);
  /// Moves sub's staged notifications into its ring, dropping the oldest
  /// beyond max_pending; returns how many were dropped.
  std::size_t flush_locked(Subscription& sub);
  /// Active subscription for id, else nullptr. Pointer invalidated by any
  /// unlock (subscribe() may grow subs_) — re-resolve after waits.
  Subscription* find_locked(SubscriptionId id);

  DispatcherConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable data_ready_;
  std::vector<Subscription> subs_;  // index = id - 1; slots never reused
  SubscriptionIndex index_;
  std::vector<SubscriptionId> dirty_;  // staged-nonempty subs this tick
  std::vector<SubscriptionId> match_scratch_;
  std::size_t active_count_ = 0;
  std::uint64_t pending_total_ = 0;
  std::uint64_t events_ingested_ = 0;
  std::uint64_t alerts_dispatched_ = 0;
};

}  // namespace dosm::subscribe
