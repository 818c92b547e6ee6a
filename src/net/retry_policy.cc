#include "net/retry_policy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/timer.h"

namespace sjos {
namespace net {

RetryClock RetryClock::Real() {
  RetryClock clock;
  clock.now_us = SteadyNowMicros;
  clock.sleep_us = [](uint64_t us) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  };
  return clock;
}

Backoff::Backoff(uint64_t base_ms, uint64_t cap_ms, uint64_t rng_seed)
    : base_ms_(std::max<uint64_t>(base_ms, 1)),
      cap_ms_(std::max(cap_ms, base_ms_)),
      prev_ms_(base_ms_),
      rng_(rng_seed) {}

uint64_t Backoff::NextDelayMs() {
  // uniform(base, prev * 3), capped. prev tracks the drawn (capped) value,
  // so the walk settles into [base, cap] instead of overflowing.
  const uint64_t hi = std::min(cap_ms_, prev_ms_ * 3);
  uint64_t delay = base_ms_;
  if (hi > base_ms_) {
    delay = base_ms_ + rng_.NextBelow(hi - base_ms_ + 1);
  }
  prev_ms_ = delay;
  return delay;
}

void Backoff::Reset() { prev_ms_ = base_ms_; }

TokenBucket::TokenBucket(double capacity, double refill_per_s)
    : capacity_(std::max(capacity, 0.0)),
      refill_per_s_(std::max(refill_per_s, 0.0)) {}

void TokenBucket::Refill(uint64_t now_us) {
  if (!started_) {
    // A fresh bucket starts full so the first burst is admitted.
    tokens_ = capacity_;
    last_refill_us_ = now_us;
    started_ = true;
    return;
  }
  if (now_us <= last_refill_us_) return;
  const double elapsed_s =
      static_cast<double>(now_us - last_refill_us_) / 1e6;
  tokens_ = std::min(capacity_, tokens_ + elapsed_s * refill_per_s_);
  last_refill_us_ = now_us;
}

bool TokenBucket::TryTake(uint64_t now_us) {
  Refill(now_us);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

uint64_t TokenBucket::WaitMs(uint64_t now_us) {
  Refill(now_us);
  const double deficit_s = std::max(0.0, 1.0 - tokens_) / refill_per_s_;
  return std::max<uint64_t>(1,
                            static_cast<uint64_t>(std::ceil(deficit_s * 1e3)));
}

double TokenBucket::Tokens(uint64_t now_us) {
  Refill(now_us);
  return tokens_;
}

CircuitBreaker::CircuitBreaker(uint32_t failure_threshold, uint64_t open_ms)
    : failure_threshold_(std::max<uint32_t>(failure_threshold, 1)),
      open_us_(open_ms * 1000) {}

bool CircuitBreaker::Allow(uint64_t now_us) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_us - opened_at_us_ >= open_us_) {
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      }
      return false;
    case State::kHalfOpen:
      // One probe at a time; further requests wait for its verdict.
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  state_ = State::kClosed;
}

bool CircuitBreaker::RecordFailure(uint64_t now_us) {
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen) {
    // The probe failed: back to a full open interval.
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    return true;
  }
  ++consecutive_failures_;
  if (state_ == State::kClosed &&
      consecutive_failures_ >= failure_threshold_) {
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    return true;
  }
  return false;
}

}  // namespace net
}  // namespace sjos
