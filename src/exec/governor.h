// Cooperative query governance: a per-query deadline and live-byte budget
// checked at batch boundaries and, for the deadline, every 64 groups inside
// a structural join. There is no preemption — operators already yield at
// tuple-batch granularity, so polling a QueryGovernor at those natural
// yield points bounds how far a runaway plan can overshoot either limit.
//
// Limits come from ExecOptions::{deadline_ms, max_live_bytes}; 0 disables
// a limit. Live bytes are rows × arity × sizeof(NodeId) summed over the
// engine's resident columnar batches — the same figure whichever layout
// (row-major or struct-of-arrays) holds the rows. On a breach the engine
// unwinds with Status::DeadlineExceeded / Status::ResourceExhausted while
// keeping the partial ExecStats gathered so far, and the governor
// remembers which limit fired (verdict()) for shell/EXPLAIN reporting.
//
// Memory relief: the first byte-budget breach does not fail the query.
// The governor halves the streaming batch size once and grants a short
// grace window (kReliefGraceChecks boundary checks) for in-flight batches
// to drain; only a breach that survives the relief attempt becomes
// ResourceExhausted. This makes batch-driven residency genuinely
// recoverable while keeping a Sort whose buffer alone exceeds the budget
// deterministically fatal.

#ifndef SJOS_EXEC_GOVERNOR_H_
#define SJOS_EXEC_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace sjos {

/// Per-query limit enforcement, driven by the one thread running the
/// query.
class QueryGovernor {
 public:
  /// Boundary checks the first byte-budget breach is forgiven for while
  /// the halved batch size takes effect.
  static constexpr uint32_t kReliefGraceChecks = 8;

  /// `deadline_ms` / `max_live_bytes` of 0 disable that limit.
  /// `external_cancel`, when non-null, is an externally owned flag (e.g. a
  /// QueryHandle's cancel token) polled at every governance point; once it
  /// reads true the query unwinds with Status::Cancelled. The pointee must
  /// outlive the governor. A non-empty `query_id` prefixes every failure
  /// message so governed verdicts attribute to one query in logs.
  QueryGovernor(uint64_t deadline_ms, uint64_t max_live_bytes,
                const std::atomic<bool>* external_cancel = nullptr,
                std::string query_id = {});

  bool has_limits() const {
    return deadline_ms_ != 0 || max_live_bytes_ != 0 ||
           external_cancel_ != nullptr;
  }
  uint64_t deadline_ms() const { return deadline_ms_; }
  uint64_t max_live_bytes() const { return max_live_bytes_; }

  /// Full boundary check: deadline first, then the byte budget against
  /// `cur_live_bytes`. On the first byte breach halves `*batch_rows` (if
  /// > 1) instead of failing and opens the grace window.
  Status Check(uint64_t cur_live_bytes, size_t* batch_rows);

  /// Deadline and external-cancel check only; joins poll it between
  /// descendant groups.
  Status CheckDeadline();

  /// Which limit cut the query short: "" (none), "deadline", "memory", or
  /// "cancelled" (external cancel token).
  const char* verdict() const;

  /// True once the byte-budget relief (batch halving) has been spent.
  bool relief_used() const { return relief_used_; }

 private:
  Status FailDeadline();
  Status FailMemory(uint64_t cur_live_bytes);
  Status FailCancelled();

  /// "query '<id>': " when a query id is attached, "query " otherwise —
  /// the leading fragment of every failure message.
  std::string MessageHead() const;

  const uint64_t deadline_ms_;
  const uint64_t max_live_bytes_;
  const std::atomic<bool>* const external_cancel_;
  const std::string query_id_;
  const std::chrono::steady_clock::time_point deadline_at_;

  // Byte-budget relief state.
  bool relief_used_ = false;
  uint32_t relief_grace_left_ = 0;

  // 0 = none, 1 = deadline, 2 = memory, 3 = cancelled; the first limit to
  // fire wins.
  int verdict_ = 0;
};

}  // namespace sjos

#endif  // SJOS_EXEC_GOVERNOR_H_
