// Queue-delay-based adaptive admission (CoDel-style brownout): the Engine
// records every Submit→dispatch delay into a sliding window; when the
// window's p95 exceeds a threshold, new submits are shed early with a
// computed retry_after_ms hint instead of queueing unboundedly. Static
// per-tenant caps bound one tenant's footprint; this bounds *everyone's*
// waiting when the engine as a whole falls behind.

#ifndef SJOS_SERVICE_ADMISSION_H_
#define SJOS_SERVICE_ADMISSION_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace sjos {

/// Bounds for the computed retry_after_ms hint.
inline constexpr uint64_t kAdmissionMinRetryAfterMs = 10;
inline constexpr uint64_t kAdmissionMaxRetryAfterMs = 1000;

struct AdmissionOptions {
  /// Shed when the window's p95 queue delay exceeds this. 0 disables
  /// adaptive admission entirely (the default — opt-in per deployment).
  uint64_t queue_delay_threshold_ms = 0;

  /// Sliding window of recent Submit→dispatch delays.
  size_t window = 128;

  /// No shedding before this many samples — a cold engine must not shed
  /// on one slow outlier.
  size_t min_samples = 16;

  /// A window with no new sample for this long is stale (shedding stopped
  /// all inflow, or load simply went away): it is discarded and admission
  /// reopens. This is the controller's recovery path — without it, a
  /// saturated window would shed forever.
  uint64_t stale_after_ms = 1000;
};

/// Thread-safe. One instance per Engine.
class QueueDelayController {
 public:
  explicit QueueDelayController(AdmissionOptions options);

  /// Records one Submit→dispatch delay, observed at dispatch.
  void RecordQueueDelay(uint64_t delay_us, uint64_t now_us);

  /// Admission decision for a new submit at `now_us`. Returns true to
  /// shed, filling *retry_after_ms with a pacing hint scaled to how far
  /// past the threshold the window sits. Each shed decision bumps
  /// sjos_engine_adaptive_shed_total.
  bool ShouldShed(uint64_t now_us, uint64_t* retry_after_ms);

  /// Current window p95 in microseconds (0 below min_samples). Exposed
  /// for tests and /statusz-style introspection.
  uint64_t P95DelayUs() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  uint64_t P95Locked() const;

  const AdmissionOptions options_;
  mutable std::mutex mu_;
  std::vector<uint64_t> window_;  // ring buffer, capacity options_.window
  size_t next_ = 0;
  size_t count_ = 0;
  uint64_t last_sample_us_ = 0;
};

}  // namespace sjos

#endif  // SJOS_SERVICE_ADMISSION_H_
