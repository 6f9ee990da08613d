/// \file thread_pool.hpp
/// \brief ThreadPool: the shared worker pool behind every parallel stage
///        (dependency-graph sharding, escape sweeps, instance sweeps and
///        campaign variants).
///
/// Extracted from instance/BatchRunner so that lower layers (routing/,
/// deadlock/) can accept a pool without depending on the instance
/// subsystem. parallel_for is work-sharing: the calling thread claims chunks
/// alongside the workers and completion never depends on a worker picking
/// up the task, so nested calls (an instance task sharding its own graph
/// build) cannot deadlock the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace genoc {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

class ThreadPool {
 public:
  /// Spawns \p threads - 1 workers (the caller is the remaining thread);
  /// 0 means hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: workers + the calling thread.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs body(begin, end) over consecutive chunks of ~\p grain indices
  /// covering [0, count); blocks until every chunk has run. The caller
  /// participates, so this is safe to call from inside another
  /// parallel_for body. The first exception thrown by a chunk is
  /// rethrown here (remaining chunks still run).
  void parallel_for(
      std::size_t count, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// The grain every destination-sharded stage uses: ~\p chunks_per_thread
  /// chunks per thread (load balance against uneven per-item cost) but
  /// never below 1. Centralized so the dep-graph build, the escape sweep
  /// and the campaign's variant fan-out shard consistently.
  std::size_t recommended_grain(std::size_t count,
                                std::size_t chunks_per_thread = 8) const {
    const std::size_t chunks = thread_count() * chunks_per_thread;
    return count < chunks ? 1 : count / chunks;
  }

 private:
  void worker_loop(std::size_t worker_index);
  void enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;

  // Utilization metrics in the process-wide MetricsRegistry, resolved once
  // at construction (the registry owns them; references never dangle).
  // Scheduling metrics (threadpool.*) legitimately vary with thread count —
  // only the analysis-layer counters are thread-count-invariant.
  obs::Counter* tasks_run_metric_ = nullptr;
  obs::Counter* parallel_for_metric_ = nullptr;
  obs::Counter* chunks_run_metric_ = nullptr;
  obs::Gauge* queue_depth_highwater_ = nullptr;
  obs::Histogram* grain_histogram_ = nullptr;
};

}  // namespace genoc
