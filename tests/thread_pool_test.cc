// The Engine's worker queue: every submitted task runs, the worker count
// is clamped to at least one, and destruction runs what is still queued.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace sjos {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkerCountClampedToOne) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_workers(), 1u);
    pool.Submit([&count] { ++count; });
  }
  EXPECT_EQ(count.load(), 1);
}

// Engine::~Engine relies on this: queries still queued when the pool is
// destroyed run (and complete their handles) before the workers join.
TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  // Frees the only worker only after the destructor below has started, so
  // every later task is still queued when it does.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  });
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&order, &mu, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
    }
  }
  releaser.join();
  // All ran, in submission (FIFO) order.
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

}  // namespace
}  // namespace sjos
