// A small fixed-size worker pool (deliberately no work stealing): the
// substrate of the Engine's concurrent query admission, where each task
// runs one whole query. One owner thread submits closures returning Status and
// collects them with WaitAll(); exceptions escaping a task are captured on
// the worker and surfaced as Status::Internal, keeping the library's
// no-exceptions error discipline intact across thread boundaries.

#ifndef SJOS_COMMON_THREAD_POOL_H_
#define SJOS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sjos {

class Counter;
class Gauge;

/// Fixed worker count, FIFO queue, batch-synchronous usage:
///
///   ThreadPool pool(4);
///   for (...) pool.Submit([&] { ...; return Status::OK(); });
///   SJOS_RETURN_IF_ERROR(pool.WaitAll());
///
/// Submit/WaitAll must be driven from one thread at a time, and tasks must
/// not Submit to the pool they run on (a task waiting on its own pool
/// would deadlock a fixed-size pool). The destructor drains any tasks
/// still queued, then joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (a count of 0 is clamped to 1).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues one task for execution on a worker thread.
  void Submit(std::function<Status()> task);

  /// Blocks until every task submitted so far has finished. Returns OK when
  /// all succeeded, otherwise the failure of the earliest-submitted failed
  /// task (deterministic regardless of completion order). Resets the error
  /// state, so the pool is reusable for the next batch.
  Status WaitAll();

 private:
  struct PendingTask {
    uint64_t seq;
    std::function<Status()> fn;
    /// Submitter's trace query-id tag, re-opened on the worker for the
    /// task's duration so a query's spans stay filterable across threads.
    char trace_qid[32];
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  std::deque<PendingTask> queue_;
  size_t in_flight_ = 0;  // queued + currently running
  uint64_t next_seq_ = 0;
  uint64_t first_error_seq_ = UINT64_MAX;
  Status first_error_;
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
