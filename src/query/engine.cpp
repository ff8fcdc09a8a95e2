#include "query/engine.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::query {
namespace {

struct EngineMetrics {
  obs::Counter& snapshot_swaps;
  obs::Gauge& snapshot_events;
  obs::Histogram& publish_seconds;
  obs::Counter& segments_reused;

  static EngineMetrics& get() {
    static EngineMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return EngineMetrics{
          reg.counter("query.snapshot_swaps",
                      "Snapshots atomically published to the query engine"),
          reg.gauge("query.snapshot_events",
                    "Events in the most recently published snapshot"),
          reg.histogram("query.publish_seconds",
                        "Seal-new-day-and-publish time (incremental)",
                        obs::latency_buckets()),
          reg.counter("query.segment.reused",
                      "Previously sealed segments shared by pointer into a "
                      "newly published snapshot"),
      };
    }();
    return metrics;
  }
};

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const Snapshot> initial)
    : current_(std::move(initial)) {
  if (snapshot()) publishes_.store(1, std::memory_order_relaxed);
}

std::shared_ptr<const Snapshot> QueryEngine::snapshot() const {
  const std::lock_guard lock(mutex_);
  return current_;
}

void QueryEngine::publish(std::shared_ptr<const Snapshot> next) {
  if (!next) throw std::invalid_argument("QueryEngine::publish: null snapshot");
  EngineMetrics& metrics = EngineMetrics::get();
  const auto size = static_cast<std::int64_t>(next->size());
  std::shared_ptr<const Snapshot> previous;  // released after the unlock
  {
    const std::lock_guard lock(mutex_);
    if (current_ && next->version() <= current_->version())
      throw std::invalid_argument(
          "QueryEngine::publish: snapshot version must increase");
    previous = std::exchange(current_, std::move(next));
    publishes_.fetch_add(1, std::memory_order_relaxed);
  }
  metrics.snapshot_events.set(size);
  metrics.snapshot_swaps.inc();
}

SnapshotPublisher::SnapshotPublisher(QueryEngine& engine, StudyWindow window,
                                     const BuildContext& ctx)
    : engine_(&engine),
      window_(window),
      ctx_(ctx),
      day_builder_(window, ctx.pfx2as, ctx.geo) {}

void SnapshotPublisher::ingest(const core::AttackEvent& event) {
  if (event.start < last_start_)
    throw std::invalid_argument(
        "SnapshotPublisher::ingest: events must arrive in time order");
  last_start_ = event.start;

  const auto t = static_cast<UnixSeconds>(event.start);
  if (!window_.contains(t)) return;
  const int day = window_.day_of(t);
  if (current_day_ >= 0 && day > current_day_) seal_and_publish();
  current_day_ = day;

  day_builder_.add(event);
  ++events_ingested_;
}

void SnapshotPublisher::finish() {
  if (current_day_ >= 0) seal_and_publish();
  current_day_ = -1;
}

void SnapshotPublisher::seal_and_publish() {
  EngineMetrics& metrics = EngineMetrics::get();
  const obs::ScopedTimer timer(metrics.publish_seconds);
  metrics.segments_reused.add(sealed_.size());
  sealed_.push_back(seal_segment(day_builder_));
  day_builder_ = FrameBuilder(window_, ctx_.pfx2as, ctx_.geo);
  engine_->publish(
      std::make_shared<const Snapshot>(window_, sealed_, next_version_));
  ++next_version_;
  ++snapshots_published_;
}

}  // namespace dosm::query
