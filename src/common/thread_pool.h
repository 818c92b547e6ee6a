// The Engine's worker queue. Engine::Submit enqueues one task per
// submitted query, so the worker count is the Engine's admission gate.
// Tasks return nothing and must not throw: the Engine's task reports its
// own outcome by completing the query's QueryHandle.

#ifndef SJOS_COMMON_THREAD_POOL_H_
#define SJOS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sjos {

class Counter;
class Gauge;

/// Fixed worker count, FIFO order, and Submit callable from any thread. A
/// task must not wait on other tasks of its own pool (that could deadlock
/// a fixed-size pool). The destructor runs every task still queued, then
/// joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (a count of 0 is clamped to 1).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues one task for execution on a worker thread.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Process metrics (owned by MetricsRegistry::Global(), cached here):
  // sjos_threadpool_tasks_{submitted,run}_total and the instantaneous
  // sjos_threadpool_queue_depth across all pools.
  Counter* tasks_submitted_;
  Counter* tasks_run_;
  Gauge* queue_depth_;
};

}  // namespace sjos

#endif  // SJOS_COMMON_THREAD_POOL_H_
