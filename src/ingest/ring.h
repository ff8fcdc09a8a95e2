// Bounded lock-free single-producer/single-consumer ring.
//
// The batched ingest pipeline (src/ingest/pipeline.h) runs capture on one
// thread and decode + detection on another; this ring is the only channel
// between them. Design constraints:
//
//  * SPSC only. One producer index (tail_), one consumer index (head_),
//    each written by exactly one thread — no CAS loops, no ABA. A second
//    ingest modality (flow records, ROADMAP item 3) gets its own ring and
//    its own consumer rather than widening this one to MPSC.
//
//  * Bounded with explicit backpressure. try_push fails when the ring is
//    full; push blocks. The ring itself never drops anything.
//
//  * Lost-wakeup-free blocking without any clock. Blocking uses C++20
//    std::atomic wait/notify on the index words themselves, so a waiter's
//    compare value always encodes the predicate it is waiting on. close()
//    is folded into the tail word's high bit: the value change wakes a
//    consumer that raced with the final notify.
//
// FIFO order is exact, which is what makes batched ingest deterministic:
// the consumer sees batches in precisely the order the producer read them
// from the capture, at any capacity.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace dosm::ingest {

/// Producer/consumer traffic counts, folded into obs metrics by the
/// pipeline after a run (plain atomics so the ring stays header-only and
/// obs-free).
struct RingStats {
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> producer_waits{0};
  std::atomic<std::uint64_t> consumer_waits{0};
};

/// Polite busy-wait hint for the bounded spin phases below.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spinning only makes sense when the other side can make progress on
/// another core; on a single-core machine it just burns the quantum the
/// peer thread needs, so the blocking paths park immediately instead.
inline bool spin_waits_enabled() noexcept {
  static const bool enabled = std::thread::hardware_concurrency() > 1;
  return enabled;
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Items currently queued (approximate under concurrency).
  std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire) & kIndexMask;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  /// Producer: moves `v` into the ring and returns true, or returns false
  /// (leaving `v` intact) when the ring is full.
  bool try_push(T& v) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed) & kIndexMask;
    if (tail - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity()) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    tail_.notify_one();
    stats_.pushed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Producer: blocks until space is available (backpressure on capture).
  /// Spins briefly before parking: in the steady state the other side
  /// frees a slot within a batch's processing time, and a futex round trip
  /// costs far more than the bounded busy-wait.
  void push(T& v) {
    // Exponential backoff keeps the shared index lines quiet while the
    // other side works: probe, then pause progressively longer between
    // probes, parking on the futex only if the wait outlives the spin
    // window (~10s of us — roughly one batch's processing time).
    int backoff = 1;
    const int rounds = spin_waits_enabled() ? kSpinRounds : 0;
    for (int spin = 0; spin < rounds; ++spin) {
      if (try_push(v)) return;
      for (int i = 0; i < backoff; ++i) cpu_relax();
      if (backoff < kMaxBackoff) backoff <<= 1;
    }
    while (!try_push(v)) {
      stats_.producer_waits.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t head = head_.load(std::memory_order_acquire);
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed) & kIndexMask;
      if (tail - head < capacity()) continue;  // space appeared; retry
      head_.wait(head, std::memory_order_acquire);
    }
  }

  /// Consumer: moves the next item into `out` and returns true, or returns
  /// false when the ring is currently empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire) & kIndexMask;
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    head_.notify_one();
    stats_.popped.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer: blocks until an item arrives (true) or the ring is closed
  /// and fully drained (false).
  bool pop(T& out) {
    int backoff = 1;
    const int rounds = spin_waits_enabled() ? kSpinRounds : 0;
    for (int spin = 0; spin < rounds; ++spin) {
      if (try_pop(out)) return true;
      if (closed()) break;  // no more pushes coming; skip straight to drain
      for (int i = 0; i < backoff; ++i) cpu_relax();
      if (backoff < kMaxBackoff) backoff <<= 1;
    }
    for (;;) {
      if (try_pop(out)) return true;
      const std::uint64_t tail_word = tail_.load(std::memory_order_acquire);
      if ((tail_word & kClosedBit) != 0 &&
          (tail_word & kIndexMask) == head_.load(std::memory_order_relaxed)) {
        return false;  // closed and drained
      }
      if ((tail_word & kIndexMask) != head_.load(std::memory_order_relaxed))
        continue;  // item arrived between try_pop and the tail load
      stats_.consumer_waits.fetch_add(1, std::memory_order_relaxed);
      tail_.wait(tail_word, std::memory_order_acquire);
    }
  }

  /// Producer: marks the stream complete. Must be called by the producer
  /// thread after its last push; wakes a blocked consumer.
  void close() {
    tail_.fetch_or(kClosedBit, std::memory_order_release);
    tail_.notify_one();
  }

  bool closed() const noexcept {
    return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  const RingStats& stats() const noexcept { return stats_; }
  RingStats& stats() noexcept { return stats_; }

 private:
  // The tail word carries the produced count in the low 63 bits and the
  // closed flag in the top bit, so close() changes the value a blocked
  // consumer waits on (no separate flag = no lost wakeup).
  static constexpr std::uint64_t kClosedBit = 1ull << 63;
  static constexpr std::uint64_t kIndexMask = kClosedBit - 1;
  // Spin window before a futex park; tuned against bench_ingest. Total
  // pause budget is sum(min(2^i, kMaxBackoff)) over the rounds — a few
  // thousand pause cycles, comparable to one batch's processing time.
  static constexpr int kSpinRounds = 64;
  static constexpr int kMaxBackoff = 32;

  std::vector<T> slots_;
  std::size_t mask_ = 1;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer-owned
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-owned
  // Single-thread-owned index caches avoid re-loading the other side's
  // atomic on every call; stale values only cause a refresh, never a race.
  alignas(64) std::uint64_t head_cache_ = 0;  // producer-owned
  alignas(64) std::uint64_t tail_cache_ = 0;  // consumer-owned
  RingStats stats_;
};

}  // namespace dosm::ingest
