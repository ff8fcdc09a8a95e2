// The per-subscription queue the dispatcher's ring replaced, kept as the
// one reference model of its delivery semantics: bench_subscribe times the
// ring against it, and subscribe_test drives the Dispatcher and it in
// lockstep. Flush appends the staged notifications and erases the oldest
// beyond the bound from the front; fetch scans the whole queue for
// seq > cursor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/alert.h"
#include "subscribe/dispatcher.h"

namespace dosm::bench {

struct VectorQueue {
  std::vector<subscribe::Notification> queue;   // flushed, oldest first
  std::vector<subscribe::Notification> staged;  // open tick
  std::uint64_t next_seq = 1;
  std::uint64_t dropped = 0;

  /// Stages alert, folding it into a staged notification of the same
  /// bucket (same kind; same victim for event alerts, same day otherwise).
  void stage(const core::Alert& alert) {
    for (subscribe::Notification& n : staged) {
      if (n.alert.kind != alert.kind || n.alert.has_event != alert.has_event)
        continue;
      if (alert.has_event ? n.alert.event.target == alert.event.target
                          : n.alert.day == alert.day) {
        ++n.coalesced;
        return;
      }
    }
    subscribe::Notification n;
    n.seq = next_seq++;
    n.alert = alert;
    staged.push_back(n);
  }

  /// Closes the tick; returns how many notifications the bound dropped.
  std::size_t flush(std::size_t bound) {
    queue.insert(queue.end(), staged.begin(), staged.end());
    staged.clear();
    if (queue.size() <= bound) return 0;
    const std::size_t excess = queue.size() - bound;
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(excess));
    dropped += excess;
    return excess;
  }

  /// Notifications with seq > cursor, at most max_items (0 = unlimited).
  subscribe::FetchResult fetch(std::uint64_t cursor,
                               std::size_t max_items) const {
    subscribe::FetchResult result;
    result.next_cursor = cursor;
    result.dropped = dropped;
    for (const subscribe::Notification& n : queue) {
      if (n.seq <= cursor) continue;
      if (max_items != 0 && result.notifications.size() >= max_items)
        ++result.pending;
      else
        result.notifications.push_back(n);
    }
    if (!result.notifications.empty())
      result.next_cursor = result.notifications.back().seq;
    return result;
  }
};

/// Empty when a and b agree on the cursor, dropped, pending and every
/// notification's seq, coalesced count and alert; else names the first
/// difference.
inline std::string fetch_difference(const subscribe::FetchResult& a,
                                    const subscribe::FetchResult& b) {
  if (a.next_cursor != b.next_cursor) return "next_cursor";
  if (a.dropped != b.dropped) return "dropped";
  if (a.pending != b.pending) return "pending";
  if (a.notifications.size() != b.notifications.size()) return "size";
  for (std::size_t i = 0; i < a.notifications.size(); ++i) {
    const subscribe::Notification& x = a.notifications[i];
    const subscribe::Notification& y = b.notifications[i];
    const core::Alert& p = x.alert;
    const core::Alert& q = y.alert;
    if (x.seq != y.seq || x.coalesced != y.coalesced || p.kind != q.kind ||
        p.day != q.day || p.has_event != q.has_event ||
        p.event.target != q.event.target || p.event.start != q.event.start ||
        p.asn != q.asn || p.country != q.country)
      return "item " + std::to_string(i) + " (seq " + std::to_string(x.seq) +
             " vs " + std::to_string(y.seq) + ")";
  }
  return {};
}

}  // namespace dosm::bench
