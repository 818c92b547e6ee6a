// Retry-timing building blocks for the resilient client: capped exponential
// backoff with decorrelated jitter, a continuous-refill token bucket (the
// client's retry budget, which caps the retry amplification it can impose
// on a struggling server, and the server's per-tenant qps and write
// buckets), and a per-endpoint circuit breaker (closed → open → half-open
// probe → closed). Everything takes time as an argument or through an
// injectable RetryClock so unit tests can pin backoff sequences, bucket
// arithmetic and breaker transitions without real sleeps.

#ifndef SJOS_NET_RETRY_POLICY_H_
#define SJOS_NET_RETRY_POLICY_H_

#include <cstdint>
#include <functional>

#include "common/rng.h"

namespace sjos {
namespace net {

/// Time source + sleeper used by the retry machinery. Tests substitute a
/// fake that advances a counter; production uses Real() (monotonic clock,
/// real sleeps).
struct RetryClock {
  std::function<uint64_t()> now_us;
  std::function<void(uint64_t)> sleep_us;

  static RetryClock Real();
};

/// Tunables for ResilientClient. The defaults favor interactive use: five
/// attempts spread over roughly a second, budget refill slow enough that a
/// hard-down server costs at most ~1 retry/s per client at steady state.
struct RetryPolicy {
  /// Total attempts per operation (first try included). 0 behaves as 1.
  uint32_t max_attempts = 5;
  /// First backoff and the cap for the decorrelated-jitter walk.
  uint64_t base_backoff_ms = 10;
  uint64_t max_backoff_ms = 2000;
  /// Token bucket shared by all retries of one client: a retry spends one
  /// token; tokens refill continuously. Exhaustion fails the operation
  /// rather than queueing — a storm of retries is worse than an error.
  double budget_tokens = 10.0;
  double budget_refill_per_s = 1.0;
  /// Breaker: this many consecutive transport failures open the circuit;
  /// after kBreakerOpenMs one probe is let through (half-open).
  uint32_t breaker_failure_threshold = 5;
};

/// How long an open breaker refuses requests before its half-open probe.
inline constexpr uint64_t kBreakerOpenMs = 1000;

/// Decorrelated-jitter backoff (Brooker/AWS style): each delay is drawn
/// uniformly from [base, prev * 3], capped. Grows exponentially in
/// expectation while desynchronizing clients that failed together.
class Backoff {
 public:
  Backoff(uint64_t base_ms, uint64_t cap_ms, uint64_t rng_seed);

  /// Returns the next delay in milliseconds and advances the walk.
  uint64_t NextDelayMs();

  /// Restarts the walk from the base delay (call after a success).
  void Reset();

 private:
  uint64_t base_ms_;
  uint64_t cap_ms_;
  uint64_t prev_ms_;
  Rng rng_;
};

/// Continuous-refill token bucket. It starts full on first use; refill
/// accrues lazily from the time elapsed since the previous call. Not
/// thread-safe; the owner serializes access.
class TokenBucket {
 public:
  TokenBucket(double capacity, double refill_per_s);

  /// Spends one token at `now_us` if one is available.
  bool TryTake(uint64_t now_us);

  /// Milliseconds until one token is available at `now_us`, rounded up and
  /// at least 1. Requires a positive refill rate.
  uint64_t WaitMs(uint64_t now_us);

  /// Current balance (after lazy refill); exposed for tests and stats.
  double Tokens(uint64_t now_us);

 private:
  void Refill(uint64_t now_us);

  double capacity_;
  double refill_per_s_;
  double tokens_ = 0.0;
  uint64_t last_refill_us_ = 0;
  bool started_ = false;
};

/// Per-endpoint circuit breaker. Consecutive transport failures open the
/// circuit; while open every Allow() is refused until open_ms has elapsed,
/// then exactly one probe is admitted (half-open). The probe's outcome
/// closes the breaker or re-opens it for another full open_ms.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(uint32_t failure_threshold, uint64_t open_ms);

  /// Whether a request may proceed now. May transition kOpen → kHalfOpen
  /// (admitting the caller as the probe).
  bool Allow(uint64_t now_us);

  void RecordSuccess();

  /// Returns true when this failure transitioned the breaker to open
  /// (callers count those transitions, not every refused request).
  bool RecordFailure(uint64_t now_us);

  State state() const { return state_; }

 private:
  uint32_t failure_threshold_;
  uint64_t open_us_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint64_t opened_at_us_ = 0;
  bool probe_in_flight_ = false;
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_RETRY_POLICY_H_
