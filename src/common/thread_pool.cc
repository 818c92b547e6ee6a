#include "common/thread_pool.h"

#include "common/metrics.h"

namespace sjos {

ThreadPool::ThreadPool(size_t num_workers)
    : tasks_submitted_(&MetricsRegistry::Global().GetCounter(
          "sjos_threadpool_tasks_submitted_total")),
      tasks_run_(&MetricsRegistry::Global().GetCounter(
          "sjos_threadpool_tasks_run_total")),
      queue_depth_(&MetricsRegistry::Global().GetGauge(
          "sjos_threadpool_queue_depth")) {
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  tasks_submitted_->Add(1);
  queue_depth_->Add(1);
  task_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_->Sub(1);
    tasks_run_->Add(1);
    task();
  }
}

}  // namespace sjos
