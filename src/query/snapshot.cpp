#include "query/snapshot.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::query {
namespace {

/// Clips an ascending postings list to row ids in [range.begin, range.end).
std::span<const std::uint32_t> clip(std::span<const std::uint32_t> postings,
                                    RowRange range) {
  const auto lo =
      std::lower_bound(postings.begin(), postings.end(), range.begin);
  const auto hi = std::lower_bound(lo, postings.end(), range.end);
  return postings.subspan(static_cast<std::size_t>(lo - postings.begin()),
                          static_cast<std::size_t>(hi - lo));
}

struct QueryMetrics {
  // One execution counter per access path, indexed by IndexChoice. With
  // segmented snapshots these count per-SEGMENT executions: one query may
  // scan several segments, each through its own cheapest index.
  obs::Counter& exec_full_scan;
  obs::Counter& exec_time_range;
  obs::Counter& exec_target32;
  obs::Counter& exec_slash24;
  obs::Counter& exec_asn;
  obs::Counter& exec_country;
  obs::Counter& exec_port;
  obs::Counter& postings_clipped;
  obs::Counter& segments_scanned;
  obs::Counter& segments_skipped;
  obs::Counter& budget_rows_exceeded;
  obs::Counter& budget_time_exceeded;
  obs::Histogram& build_seconds;

  static QueryMetrics& get() {
    static QueryMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return QueryMetrics{
          reg.counter("query.exec.full_scan",
                      "Segment executions by full frame scan"),
          reg.counter("query.exec.time_range",
                      "Segment executions over the start-sorted time range"),
          reg.counter("query.exec.target32",
                      "Segment executions via the /32 target index"),
          reg.counter("query.exec.slash24",
                      "Segment executions via the /24 prefix index"),
          reg.counter("query.exec.asn",
                      "Segment executions via the ASN index"),
          reg.counter("query.exec.country",
                      "Segment executions via the country index"),
          reg.counter("query.exec.port",
                      "Segment executions via the port index"),
          reg.counter("query.postings_clipped",
                      "Postings entries discarded by time-range clipping"),
          reg.counter("query.segment.scanned",
                      "Segments executed on behalf of queries"),
          reg.counter("query.segment.skipped",
                      "Segments skipped by time-range segment clipping"),
          reg.counter("query.budget.rows_exceeded",
                      "Queries aborted by the candidate-row budget"),
          reg.counter("query.budget.time_exceeded",
                      "Queries aborted by the execution deadline"),
          reg.histogram("query.snapshot_build_seconds",
                        "Batch snapshot build time (all segments)",
                        obs::latency_buckets()),
      };
    }();
    return metrics;
  }

  void record_exec(IndexChoice choice) {
    switch (choice) {
      case IndexChoice::kFullScan: exec_full_scan.inc(); return;
      case IndexChoice::kTimeRange: exec_time_range.inc(); return;
      case IndexChoice::kTarget32: exec_target32.inc(); return;
      case IndexChoice::kSlash24: exec_slash24.inc(); return;
      case IndexChoice::kAsn: exec_asn.inc(); return;
      case IndexChoice::kCountry: exec_country.inc(); return;
      case IndexChoice::kPort: exec_port.inc(); return;
    }
  }
};

/// Per-execution budget accounting, global across the whole segment list.
///
/// The two ceilings deliberately count different things. The row budget
/// charges MATCHED rows only: the matched set — unlike the candidates an
/// access path happens to visit — is the same for every per-segment planner
/// choice, every --segment-days granularity, and every storage tier, so a
/// row-budget abort is a pure function of (dataset, query). The deadline is
/// polled per VISITED candidate on a stride (cheap, and visits bound the
/// actual work done); which queries it rejects is timing-dependent by
/// contract, and it never changes the bytes of a successful response.
class BudgetState {
 public:
  explicit BudgetState(const ExecBudget& budget) : budget_(budget) {}

  /// Once per visited candidate row, before verification.
  void visit() {
    if (budget_.deadline_ns == 0) return;
    ++visited_;
    // Poll on the first row (fail fast on an already-expired deadline —
    // scans shorter than the stride would otherwise never look at the
    // clock), then once per stride.
    if (visited_ % kDeadlineStride == 1 &&
        obs::monotonic_now_ns() > budget_.deadline_ns) {
      QueryMetrics::get().budget_time_exceeded.inc();
      throw BudgetExceeded(BudgetExceeded::Kind::kTime, budget_.deadline_ns);
    }
  }

  /// Once per matched row, before it reaches the aggregator: the
  /// (max_rows + 1)-th match aborts deterministically.
  void charge_match() {
    if (budget_.max_rows == 0) return;
    if (++matched_ > budget_.max_rows) {
      QueryMetrics::get().budget_rows_exceeded.inc();
      throw BudgetExceeded(BudgetExceeded::Kind::kRows, budget_.max_rows);
    }
  }

 private:
  static constexpr std::uint64_t kDeadlineStride = 4096;

  const ExecBudget& budget_;
  std::uint64_t visited_ = 0;
  std::uint64_t matched_ = 0;
};

}  // namespace

Snapshot::Snapshot(StudyWindow window,
                   std::vector<std::shared_ptr<const FrameSegment>> segments,
                   std::uint64_t version)
    : window_(window), segments_(std::move(segments)), version_(version) {
  meta_.reserve(segments_.size());
  bases_.reserve(segments_.size());
  double prev_max = -1.0e300;
  bool first = true;
  for (const auto& segment : segments_) {
    if (!segment || segment->size() == 0)
      throw std::invalid_argument("Snapshot: null or empty segment");
    if (!first && segment->start_min() <= prev_max)
      throw std::invalid_argument(
          "Snapshot: segments must cover strictly increasing start ranges");
    first = false;
    prev_max = segment->start_max();
    meta_.push_back({static_cast<std::uint32_t>(segment->size()),
                     segment->start_min(), segment->start_max()});
    bases_.push_back(static_cast<std::uint32_t>(total_rows_));
    total_rows_ += segment->size();
  }
}

Snapshot::Snapshot(StudyWindow window, std::vector<TieredSlot> slots,
                   std::uint64_t version)
    : window_(window), version_(version) {
  segments_.reserve(slots.size());
  cold_.reserve(slots.size());
  meta_.reserve(slots.size());
  bases_.reserve(slots.size());
  double prev_max = -1.0e300;
  bool first = true;
  for (TieredSlot& slot : slots) {
    SlotMeta meta;
    if (slot.resident != nullptr) {
      if (slot.resident->size() == 0)
        throw std::invalid_argument("Snapshot: empty resident segment");
      meta = {static_cast<std::uint32_t>(slot.resident->size()),
              slot.resident->start_min(), slot.resident->start_max()};
    } else {
      if (slot.cold.provider == nullptr || slot.cold.rows == 0 ||
          !(slot.cold.start_min <= slot.cold.start_max))
        throw std::invalid_argument("Snapshot: malformed cold segment ref");
      meta = {slot.cold.rows, slot.cold.start_min, slot.cold.start_max};
      ++num_cold_;
    }
    if (!first && meta.start_min <= prev_max)
      throw std::invalid_argument(
          "Snapshot: segments must cover strictly increasing start ranges");
    first = false;
    prev_max = meta.start_max;
    segments_.push_back(std::move(slot.resident));
    cold_.push_back(std::move(slot.cold));
    meta_.push_back(meta);
    bases_.push_back(static_cast<std::uint32_t>(total_rows_));
    total_rows_ += meta.rows;
  }
}

const FrameSegment& Snapshot::resolve(
    std::size_t s, std::shared_ptr<const FrameSegment>& keep) const {
  if (segments_[s] != nullptr) return *segments_[s];
  const ColdSegmentRef& cold = cold_[s];
  keep = cold.provider->fetch(cold.id);
  if (keep == nullptr || keep->size() != meta_[s].rows ||
      keep->start_min() != meta_[s].start_min ||
      keep->start_max() != meta_[s].start_max)
    throw std::runtime_error(
        "Snapshot: cold segment does not match its archived metadata");
  return *keep;
}

std::shared_ptr<const Snapshot> Snapshot::build(
    StudyWindow window, std::span<const core::AttackEvent> events,
    const BuildContext& ctx, std::uint64_t version) {
  const obs::ScopedTimer timer(QueryMetrics::get().build_seconds);
  return std::make_shared<const Snapshot>(
      window, build_segments(window, events, ctx), version);
}

std::shared_ptr<const Snapshot> Snapshot::from_store(
    const core::EventStore& store, const BuildContext& ctx,
    std::uint64_t version) {
  return build(store.window(), store.events(), ctx, version);
}

std::vector<EventRow> Snapshot::event_rows(
    std::span<const std::uint32_t> rows) const {
  std::vector<EventRow> out;
  out.reserve(rows.size());
  std::shared_ptr<const FrameSegment> keep;
  const FrameSegment* segment = nullptr;
  std::size_t s = 0;
  for (const std::uint32_t row : rows) {
    if (segment == nullptr || row < bases_[s] ||
        row - bases_[s] >= meta_[s].rows) {
      const auto it = std::upper_bound(bases_.begin(), bases_.end(), row);
      s = static_cast<std::size_t>(it - bases_.begin()) - 1;
      segment = &resolve(s, keep);
    }
    const EventFrame& frame = segment->frame();
    const std::uint32_t local = row - bases_[s];
    out.push_back({frame.start()[local], frame.target_at(local),
                   frame.source_at(local), frame.intensity()[local],
                   frame.top_port()[local]});
  }
  return out;
}

QueryPlan Snapshot::plan_segment(const Query& query, const FrameSegment& seg) {
  const EventFrame& frame = seg.frame();
  const FrameIndex& index = seg.index();
  QueryPlan best{IndexChoice::kFullScan, frame.size()};
  // With a time filter, every postings candidate is clipped to the
  // start-sorted row range first, so its cost is the clipped length.
  RowRange time_rows{0, static_cast<std::uint32_t>(frame.size())};
  if (query.time) {
    time_rows = index.time_range(query.time->begin, query.time->end);
    best = {IndexChoice::kTimeRange, time_rows.size()};
  }
  const auto consider = [&](IndexChoice choice,
                            std::span<const std::uint32_t> postings) {
    const std::uint64_t cost =
        query.time ? clip(postings, time_rows).size() : postings.size();
    if (cost < best.candidates) best = {choice, cost};
  };
  if (query.prefix && query.prefix->length() == 32)
    consider(IndexChoice::kTarget32,
             index.by_target(query.prefix->network().value()));
  if (query.prefix && query.prefix->length() == 24)
    consider(IndexChoice::kSlash24,
             index.by_slash24(query.prefix->network().value()));
  if (query.asn) consider(IndexChoice::kAsn, index.by_asn(*query.asn));
  if (query.country)
    consider(IndexChoice::kCountry,
             index.by_country(pack_country(*query.country)));
  if (query.port) consider(IndexChoice::kPort, index.by_port(*query.port));
  return best;
}

QueryPlan Snapshot::plan(const Query& query) const {
  // Aggregate of the per-segment plans over the time-clipped segment
  // subset: candidates sum; the reported choice is the dominant segment's
  // (most candidates, earliest segment on ties). Cold segments are
  // estimated from archive metadata alone — segment bounds plus per-block
  // zone maps — so explain never pages anything in; their postings are
  // unknowable without loading, hence a scan-shaped estimate.
  QueryPlan total{IndexChoice::kFullScan, 0};
  std::uint64_t dominant = 0;
  bool any = false;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    if (query.time && !meta_[s].overlaps(query.time->begin, query.time->end))
      continue;
    QueryPlan part;
    if (segments_[s] != nullptr) {
      part = plan_segment(query, *segments_[s]);
    } else if (query.time) {
      const RowRange rows =
          cold_[s].provider->clip(cold_[s].id, query.time->begin,
                                  query.time->end);
      if (rows.size() == 0) continue;
      part = {IndexChoice::kTimeRange, rows.size()};
    } else {
      part = {IndexChoice::kFullScan, meta_[s].rows};
    }
    total.candidates += part.candidates;
    if (!any || part.candidates > dominant) {
      total.choice = part.choice;
      dominant = part.candidates;
      any = true;
    }
  }
  return total;
}

bool Snapshot::row_matches(const Query& query, const EventFrame& frame,
                           std::uint32_t row) {
  if (query.time && !(frame.start()[row] >= query.time->begin &&
                      frame.start()[row] < query.time->end))
    return false;
  if (!core::matches(query.source, frame.source_at(row))) return false;
  if (query.prefix &&
      (frame.target()[row] & query.prefix->mask()) !=
          query.prefix->network().value())
    return false;
  if (query.asn && frame.asn()[row] != *query.asn) return false;
  if (query.country &&
      frame.country()[row] != pack_country(*query.country))
    return false;
  if (query.port && frame.top_port()[row] != *query.port) return false;
  if (query.min_intensity && frame.intensity()[row] < *query.min_intensity)
    return false;
  return true;
}

template <typename Fn>
void Snapshot::for_each_match(const Query& query, const ExecBudget& budget,
                              Fn&& fn) const {
  QueryMetrics& metrics = QueryMetrics::get();
  BudgetState spent(budget);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    if (query.time && !meta_[s].overlaps(query.time->begin, query.time->end)) {
      metrics.segments_skipped.inc();
      continue;
    }
    // Cold slot + time filter: consult the zone maps before paging the
    // segment in. An empty clip proves no start can fall in the range
    // (possible even after the segment-level overlap check, when the range
    // lands in a gap between blocks), so the load is skipped entirely.
    if (segments_[s] == nullptr && query.time &&
        cold_[s]
                .provider->clip(cold_[s].id, query.time->begin,
                                query.time->end)
                .size() == 0) {
      metrics.segments_skipped.inc();
      continue;
    }
    std::shared_ptr<const FrameSegment> keep;
    const FrameSegment& seg = resolve(s, keep);
    metrics.segments_scanned.inc();
    const EventFrame& frame = seg.frame();
    const std::uint32_t base = bases_[s];
    const QueryPlan chosen = plan_segment(query, seg);
    metrics.record_exec(chosen.choice);
    RowRange time_rows{0, static_cast<std::uint32_t>(frame.size())};
    if (query.time)
      time_rows = seg.index().time_range(query.time->begin, query.time->end);

    const auto verify_postings = [&](std::span<const std::uint32_t> postings) {
      const auto clipped = clip(postings, time_rows);
      metrics.postings_clipped.add(postings.size() - clipped.size());
      for (const std::uint32_t row : clipped) {
        spent.visit();
        if (row_matches(query, frame, row)) {
          spent.charge_match();
          fn(frame, row, base + row);
        }
      }
    };
    switch (chosen.choice) {
      case IndexChoice::kFullScan:
        for (std::uint32_t row = 0; row < frame.size(); ++row) {
          spent.visit();
          if (row_matches(query, frame, row)) {
            spent.charge_match();
            fn(frame, row, base + row);
          }
        }
        break;
      case IndexChoice::kTimeRange:
        for (std::uint32_t row = time_rows.begin; row < time_rows.end; ++row) {
          spent.visit();
          if (row_matches(query, frame, row)) {
            spent.charge_match();
            fn(frame, row, base + row);
          }
        }
        break;
      case IndexChoice::kTarget32:
        verify_postings(seg.index().by_target(query.prefix->network().value()));
        break;
      case IndexChoice::kSlash24:
        verify_postings(
            seg.index().by_slash24(query.prefix->network().value()));
        break;
      case IndexChoice::kAsn:
        verify_postings(seg.index().by_asn(*query.asn));
        break;
      case IndexChoice::kCountry:
        verify_postings(seg.index().by_country(pack_country(*query.country)));
        break;
      case IndexChoice::kPort:
        verify_postings(seg.index().by_port(*query.port));
        break;
    }
  }
}

std::uint64_t Snapshot::count(const Query& query,
                              const ExecBudget& budget) const {
  std::uint64_t n = 0;
  for_each_match(query, budget,
                 [&](const EventFrame&, std::uint32_t, std::uint32_t) { ++n; });
  return n;
}

std::uint64_t Snapshot::unique_targets(const Query& query,
                                       const ExecBudget& budget) const {
  std::unordered_set<std::uint32_t> targets;
  for_each_match(query, budget,
                 [&](const EventFrame& frame, std::uint32_t row,
                     std::uint32_t) { targets.insert(frame.target()[row]); });
  return targets.size();
}

DailySeries Snapshot::daily_attacks(const Query& query,
                                    const ExecBudget& budget) const {
  DailySeries series(window_.num_days());
  for_each_match(query, budget, [&](const EventFrame& frame, std::uint32_t row,
                                    std::uint32_t) {
    const std::int32_t day = frame.day()[row];
    if (day >= 0) series.add(day, 1.0);
  });
  return series;
}

std::vector<TargetCount> Snapshot::top_targets(const Query& query,
                                               std::size_t k,
                                               const ExecBudget& budget) const {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for_each_match(query, budget,
                 [&](const EventFrame& frame, std::uint32_t row,
                     std::uint32_t) { ++counts[frame.target()[row]]; });
  std::vector<TargetCount> out;
  out.reserve(counts.size());
  for (const auto& [addr, events] : counts)
    out.push_back({net::Ipv4Addr(addr), events});
  std::sort(out.begin(), out.end(),
            [](const TargetCount& a, const TargetCount& b) {
              if (a.events != b.events) return a.events > b.events;
              return a.target < b.target;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<AsnCount> Snapshot::top_asns(const Query& query, std::size_t k,
                                         const ExecBudget& budget) const {
  std::unordered_map<meta::Asn, std::unordered_set<std::uint32_t>> targets;
  std::unordered_map<meta::Asn, std::uint64_t> events;
  for_each_match(query, budget, [&](const EventFrame& frame, std::uint32_t row,
                                    std::uint32_t) {
    const meta::Asn asn = frame.asn()[row];
    if (asn == meta::kUnknownAsn) return;
    targets[asn].insert(frame.target()[row]);
    ++events[asn];
  });
  std::vector<AsnCount> out;
  out.reserve(targets.size());
  for (const auto& [asn, addrs] : targets)
    out.push_back({asn, addrs.size(), events[asn]});
  std::sort(out.begin(), out.end(), [](const AsnCount& a, const AsnCount& b) {
    return std::tuple(b.targets, b.events, a.asn) <
           std::tuple(a.targets, a.events, b.asn);
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<core::CountryCount> Snapshot::country_ranking(
    const Query& query, const ExecBudget& budget) const {
  // Packed codes order exactly like CountryCode (both compare the two ASCII
  // letters lexicographically), so sorting on the packed key gives the
  // ScanOracle tie-break. The first-seen dedup walks global row order, so
  // it is granularity-independent.
  std::unordered_set<std::uint32_t> seen;
  std::unordered_map<PackedCountry, std::uint64_t> counts;
  std::uint64_t total = 0;
  for_each_match(query, budget, [&](const EventFrame& frame, std::uint32_t row,
                                    std::uint32_t) {
    if (!seen.insert(frame.target()[row]).second) return;
    ++counts[frame.country()[row]];
    ++total;
  });
  std::vector<std::pair<PackedCountry, std::uint64_t>> entries(counts.begin(),
                                                               counts.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  std::vector<core::CountryCount> out;
  out.reserve(entries.size());
  for (const auto& [packed, count] : entries) {
    out.push_back({unpack_country(packed), count,
                   total ? static_cast<double>(count) / static_cast<double>(total)
                         : 0.0});
  }
  return out;
}

std::vector<core::CountryCount> Snapshot::top_countries(
    const Query& query, std::size_t k, const ExecBudget& budget) const {
  auto ranking = country_ranking(query, budget);
  if (ranking.size() > k) ranking.resize(k);
  return ranking;
}

std::vector<std::uint32_t> Snapshot::match_rows(const Query& query,
                                                const ExecBudget& budget) const {
  std::vector<std::uint32_t> rows;
  for_each_match(query, budget,
                 [&](const EventFrame&, std::uint32_t, std::uint32_t global) {
                   rows.push_back(global);
                 });
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace dosm::query
