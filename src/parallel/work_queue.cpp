#include "parallel/work_queue.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace dosm::parallel {
namespace {

struct QueueMetrics {
  obs::Counter& tasks_executed;
  obs::Histogram& queue_wait_seconds;
  obs::Histogram& task_seconds;

  static QueueMetrics& get() {
    static QueueMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::global();
      return QueueMetrics{
          reg.counter("parallel.tasks_executed",
                      "Tasks executed by the work queue"),
          reg.histogram("parallel.queue_wait_seconds",
                        "Delay between queue start and task claim",
                        obs::latency_buckets()),
          reg.histogram("parallel.task_seconds", "Per-task execution time",
                        obs::latency_buckets()),
      };
    }();
    return metrics;
  }
};

}  // namespace

void run_tasks(std::size_t num_tasks, int threads,
               const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  QueueMetrics& metrics = QueueMetrics::get();
  const std::size_t workers =
      threads <= 1 ? 1
                   : std::min<std::size_t>(static_cast<std::size_t>(threads),
                                           num_tasks);
  if (workers == 1) {
    for (std::size_t i = 0; i < num_tasks; ++i) {
      metrics.tasks_executed.inc();
      const obs::ScopedTimer timer(metrics.task_seconds);
      task(i);
    }
    return;
  }
  const std::uint64_t queue_start_ns =
      obs::enabled() ? obs::monotonic_now_ns() : 0;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto drain = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      if (obs::enabled()) {
        metrics.queue_wait_seconds.observe(
            static_cast<double>(obs::monotonic_now_ns() - queue_start_ns) *
            1e-9);
      }
      metrics.tasks_executed.inc();
      try {
        const obs::ScopedTimer timer(metrics.task_seconds);
        task(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();  // the caller is worker 0
  for (auto& worker : pool) worker.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dosm::parallel
