#include "query/segment.h"

#include <limits>
#include <map>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::query {
namespace {

struct SegmentMetrics {
  obs::Counter& sealed;
  obs::Counter& rows_sealed;
  obs::Histogram& seal_seconds;

  static SegmentMetrics& get() {
    static SegmentMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return SegmentMetrics{
          reg.counter("query.segment.sealed",
                      "Immutable frame segments sealed (built once)"),
          reg.counter("query.segment.rows_sealed",
                      "Event rows materialized into sealed segments"),
          reg.histogram("query.segment.seal_seconds",
                        "Per-segment frame + index build time",
                        obs::latency_buckets()),
      };
    }();
    return metrics;
  }
};

}  // namespace

std::shared_ptr<const FrameSegment> seal_segment(const FrameBuilder& builder) {
  SegmentMetrics& metrics = SegmentMetrics::get();
  const obs::ScopedTimer timer(metrics.seal_seconds);
  auto segment = std::make_shared<const FrameSegment>(builder.build());
  metrics.sealed.inc();
  metrics.rows_sealed.add(segment->size());
  return segment;
}

std::vector<std::shared_ptr<const FrameSegment>> build_segments(
    StudyWindow window, std::span<const core::AttackEvent> events,
    const BuildContext& ctx) {
  std::vector<std::shared_ptr<const FrameSegment>> segments;
  if (events.empty()) return segments;

  if (ctx.segment_days <= 0) {
    FrameBuilder builder(window, ctx.pfx2as, ctx.geo);
    builder.add(events);
    segments.push_back(seal_segment(builder));
    return segments;
  }

  // Bucket keys order like event starts: everything before the window,
  // then runs of segment_days window days, then everything at/after the
  // window end. Ties in (start, target, source) share a start, hence a
  // bucket, so concatenating the sealed buckets reproduces the monolithic
  // sort order exactly (see segment.h).
  const auto key_of = [&](const core::AttackEvent& event) {
    const auto t = static_cast<UnixSeconds>(event.start);
    if (!window.contains(t)) {
      return t < window.start_time() ? std::numeric_limits<int>::min()
                                     : std::numeric_limits<int>::max();
    }
    return window.day_of(t) / ctx.segment_days;
  };

  std::map<int, FrameBuilder> buckets;
  for (const auto& event : events) {
    const int key = key_of(event);
    auto it = buckets.find(key);
    if (it == buckets.end()) {
      it = buckets.emplace(key, FrameBuilder(window, ctx.pfx2as, ctx.geo))
               .first;
    }
    it->second.add(event);
  }
  segments.reserve(buckets.size());
  for (const auto& [key, builder] : buckets)
    segments.push_back(seal_segment(builder));
  return segments;
}

}  // namespace dosm::query
