#include "service/admission.h"

#include <algorithm>

#include "common/metrics.h"

namespace sjos {

namespace {

Counter& AdaptiveShedCounter() {
  static Counter* c = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.SetHelp("sjos_engine_adaptive_shed_total",
                "Submits shed by queue-delay adaptive admission");
    return &reg.GetCounter("sjos_engine_adaptive_shed_total");
  }();
  return *c;
}

}  // namespace

QueueDelayController::QueueDelayController(AdmissionOptions options)
    : options_(options) {
  window_.resize(std::max<size_t>(options_.window, 1), 0);
  // Eager registration: the counter must exist (at 0) in every metrics
  // export, not only after the first shed.
  AdaptiveShedCounter();
}

void QueueDelayController::RecordQueueDelay(uint64_t delay_us,
                                            uint64_t now_us) {
  if (options_.queue_delay_threshold_ms == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  window_[next_] = delay_us;
  next_ = (next_ + 1) % window_.size();
  count_ = std::min(count_ + 1, window_.size());
  last_sample_us_ = now_us;
}

uint64_t QueueDelayController::P95Locked() const {
  if (count_ < std::max<size_t>(options_.min_samples, 1)) return 0;
  std::vector<uint64_t> sorted(window_.begin(),
                               window_.begin() + static_cast<long>(count_));
  const size_t rank = (count_ * 95) / 100;
  const size_t idx = std::min(rank, count_ - 1);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(idx),
                   sorted.end());
  return sorted[idx];
}

uint64_t QueueDelayController::P95DelayUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return P95Locked();
}

bool QueueDelayController::ShouldShed(uint64_t now_us,
                                      uint64_t* retry_after_ms) {
  if (options_.queue_delay_threshold_ms == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ > 0 && last_sample_us_ + options_.stale_after_ms * 1000 <
                        now_us) {
    // Stale window: nothing dispatched recently, so the delays it holds
    // describe a queue that no longer exists. Reopen admission.
    count_ = 0;
    next_ = 0;
  }
  const uint64_t p95_us = P95Locked();
  const uint64_t threshold_us = options_.queue_delay_threshold_ms * 1000;
  if (p95_us <= threshold_us) return false;
  // Pace retries to roughly the excess delay: the further past the
  // threshold the queue sits, the longer clients should stay away.
  const uint64_t excess_ms = (p95_us - threshold_us) / 1000;
  if (retry_after_ms != nullptr) {
    *retry_after_ms = std::clamp(excess_ms + kAdmissionMinRetryAfterMs,
                                 kAdmissionMinRetryAfterMs,
                                 kAdmissionMaxRetryAfterMs);
  }
  AdaptiveShedCounter().Add();
  return true;
}

}  // namespace sjos
