#include "subscribe/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "subscribe/metrics.h"

namespace dosm::subscribe {
namespace {

/// Same coalescing bucket: one victim's repeated alerts within a tick fold
/// into one delta (same kind + target for event alerts; same kind + day for
/// victimless spikes).
bool same_bucket(const core::Alert& a, const core::Alert& b) {
  if (a.kind != b.kind || a.has_event != b.has_event) return false;
  return a.has_event ? a.event.target == b.event.target : a.day == b.day;
}

}  // namespace

Dispatcher::Dispatcher(DispatcherConfig config) : config_(config) {
  if (config_.max_pending == 0)
    throw std::invalid_argument(
        "Dispatcher: max_pending must be >= 1 (a zero bound would drop "
        "every notification at the first tick)");
}

SubscriptionId Dispatcher::subscribe(const Predicate& predicate) {
  validate(predicate);
  Metrics& metrics = Metrics::get();
  std::uint64_t active = 0;
  SubscriptionId id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<SubscriptionId>(subs_.size()) + 1;
    index_.insert(id, predicate);
    Subscription sub;
    sub.predicate = predicate;
    sub.active = true;
    subs_.push_back(std::move(sub));
    ++active_count_;
    active = active_count_;
  }
  metrics.subscriptions_created.inc();
  metrics.subscriptions_active.set(static_cast<std::int64_t>(active));
  return id;
}

bool Dispatcher::unsubscribe(SubscriptionId id) {
  Metrics& metrics = Metrics::get();
  std::uint64_t active = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Subscription* sub = find_locked(id);
    if (sub == nullptr) return false;
    index_.erase(id, sub->predicate);
    sub->active = false;
    pending_total_ -= sub->count;
    sub->ring.clear();
    sub->ring.shrink_to_fit();
    sub->head = 0;
    sub->count = 0;
    sub->staged.clear();
    sub->staged.shrink_to_fit();
    --active_count_;
    active = active_count_;
    metrics.pending.set(static_cast<std::int64_t>(pending_total_));
  }
  metrics.subscriptions_removed.inc();
  metrics.subscriptions_active.set(static_cast<std::int64_t>(active));
  // Long-pollers on this id must observe the removal and return nullopt.
  data_ready_.notify_all();
  return true;
}

void Dispatcher::ingest(const core::AttackEvent& event) {
  const auto t = static_cast<UnixSeconds>(event.start);
  const int day = config_.window.contains(t) ? config_.window.day_of(t) : -1;
  const meta::Asn asn = config_.pfx2as != nullptr
                            ? config_.pfx2as->origin(event.target)
                            : meta::kUnknownAsn;
  const meta::CountryCode country = config_.geo != nullptr
                                        ? config_.geo->locate(event.target)
                                        : meta::CountryCode{};
  const core::Alert alert = core::event_alert(event, day, asn, country);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++events_ingested_;
  Metrics::get().events_ingested.inc();
  dispatch_locked(alert);
}

void Dispatcher::on_alert(const core::Alert& alert) {
  const std::lock_guard<std::mutex> lock(mutex_);
  dispatch_locked(alert);
}

void Dispatcher::dispatch_locked(const core::Alert& alert) {
  Metrics& metrics = Metrics::get();
  ++alerts_dispatched_;  // analyze:allow(shared-state-race): every caller holds mutex_ (dispatch_locked contract)
  metrics.alerts_dispatched.inc();
  match_scratch_.clear();
  index_.match(
      alert,
      [this](SubscriptionId id) -> const Predicate& {
        return subs_[id - 1].predicate;
      },
      match_scratch_);
  metrics.matches.add(static_cast<std::uint64_t>(match_scratch_.size()));
  // Ascending subscription-id order (the index contract) — together with
  // arrival-order dispatch this realizes the (event, subscription_id)
  // total order the determinism contract promises.
  for (const SubscriptionId id : match_scratch_) {
    Subscription& sub = subs_[id - 1];
    bool folded = false;
    for (Notification& staged : sub.staged) {
      if (same_bucket(staged.alert, alert)) {
        ++staged.coalesced;
        metrics.coalesced.inc();
        folded = true;
        break;
      }
    }
    if (folded) continue;
    if (sub.staged.empty()) dirty_.push_back(id);
    Notification notification;
    notification.seq = sub.next_seq++;
    notification.alert = alert;
    sub.staged.push_back(std::move(notification));
  }
}

std::size_t Dispatcher::flush_locked(Subscription& sub) {
  const std::size_t bound = config_.max_pending;
  const std::size_t staged = sub.staged.size();
  // Staged notifications the bound would evict at once are never copied;
  // their seqs are consumed all the same.
  const std::size_t skipped = staged > bound ? staged - bound : 0;
  const std::size_t kept = staged - skipped;
  const std::size_t evicted =
      sub.count + kept > bound ? sub.count + kept - bound : 0;
  if (evicted != 0) {
    sub.head = (sub.head + evicted) % sub.ring.size();
    sub.count -= evicted;
  }
  if (sub.count + kept > sub.ring.size()) {
    std::size_t size = std::max<std::size_t>(sub.ring.size(), 8);
    while (size < sub.count + kept) size *= 2;
    std::vector<Notification> grown(std::min(size, bound));
    for (std::size_t i = 0; i < sub.count; ++i) grown[i] = sub.at(i);
    sub.ring = std::move(grown);
    sub.head = 0;
  }
  for (std::size_t i = skipped; i < staged; ++i)
    sub.at(sub.count++) = sub.staged[i];
  sub.staged.clear();
  return skipped + evicted;
}

void Dispatcher::tick() {
  Metrics& metrics = Metrics::get();
  bool flushed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics.ticks.inc();
    // dirty_ accumulates in first-staged order across alerts; sort so the
    // flush (and its metric updates) walk subscriptions deterministically.
    std::sort(dirty_.begin(), dirty_.end());
    for (const SubscriptionId id : dirty_) {
      Subscription& sub = subs_[id - 1];
      if (!sub.active) continue;  // unsubscribed mid-tick; already cleared
      metrics.enqueued.add(static_cast<std::uint64_t>(sub.staged.size()));
      pending_total_ += sub.staged.size();
      const std::size_t dropped = flush_locked(sub);
      if (dropped != 0) {
        sub.dropped += dropped;
        pending_total_ -= dropped;
        metrics.dropped.add(static_cast<std::uint64_t>(dropped));
      }
    }
    flushed = !dirty_.empty();
    dirty_.clear();
    metrics.pending.set(static_cast<std::int64_t>(pending_total_));
  }
  if (flushed) data_ready_.notify_all();
}

std::optional<FetchResult> Dispatcher::fetch(SubscriptionId id,
                                             std::uint64_t cursor,
                                             std::size_t max_items,
                                             int wait_ms) {
  Metrics& metrics = Metrics::get();
  metrics.fetches.inc();
  std::unique_lock<std::mutex> lock(mutex_);
  Subscription* sub = find_locked(id);
  if (sub == nullptr) return std::nullopt;
  const auto has_delta = [](const Subscription& s, std::uint64_t after) {
    return s.count != 0 && s.at(s.count - 1).seq > after;
  };
  if (wait_ms > 0 && !has_delta(*sub, cursor)) {
    data_ready_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                         [&, this] {
                           sub = find_locked(id);
                           return sub == nullptr || has_delta(*sub, cursor);
                         });
    sub = find_locked(id);  // waits unlock; subs_ may have reallocated
    if (sub == nullptr) return std::nullopt;
  }
  FetchResult result;
  result.next_cursor = cursor;
  result.dropped = sub->dropped;
  if (sub->count != 0) {
    // Seqs are contiguous, so the first entry past the cursor sits at
    // cursor - first + 1, clamped to [0, count].
    const std::uint64_t first = sub->at(0).seq;
    const std::uint64_t last = first + (sub->count - 1);
    std::size_t begin = 0;
    if (cursor >= last)
      begin = sub->count;
    else if (cursor >= first)
      begin = static_cast<std::size_t>(cursor - first + 1);
    const std::size_t available = sub->count - begin;
    const std::size_t taken =
        max_items == 0 ? available : std::min(available, max_items);
    result.notifications.reserve(taken);
    for (std::size_t i = 0; i < taken; ++i)
      result.notifications.push_back(sub->at(begin + i));
    result.pending = available - taken;
    if (taken != 0) result.next_cursor = result.notifications.back().seq;
  }
  metrics.delivered.add(
      static_cast<std::uint64_t>(result.notifications.size()));
  return result;
}

Dispatcher::Subscription* Dispatcher::find_locked(SubscriptionId id) {
  if (id == 0 || id > subs_.size()) return nullptr;
  Subscription& sub = subs_[id - 1];
  return sub.active ? &sub : nullptr;
}

std::size_t Dispatcher::active_subscriptions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return active_count_;
}

std::uint64_t Dispatcher::events_ingested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_ingested_;
}

std::uint64_t Dispatcher::alerts_dispatched() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return alerts_dispatched_;
}

}  // namespace dosm::subscribe
