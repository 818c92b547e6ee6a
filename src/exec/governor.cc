#include "exec/governor.h"

#include <string>

#include "common/metrics.h"

namespace sjos {

namespace {

std::chrono::steady_clock::time_point DeadlineFrom(uint64_t deadline_ms) {
  auto now = std::chrono::steady_clock::now();
  if (deadline_ms == 0) return now + std::chrono::hours(24 * 365);
  return now + std::chrono::milliseconds(deadline_ms);
}

}  // namespace

QueryGovernor::QueryGovernor(uint64_t deadline_ms, uint64_t max_live_bytes,
                             const std::atomic<bool>* external_cancel,
                             std::string query_id)
    : deadline_ms_(deadline_ms),
      max_live_bytes_(max_live_bytes),
      external_cancel_(external_cancel),
      query_id_(std::move(query_id)),
      deadline_at_(DeadlineFrom(deadline_ms)) {}

std::string QueryGovernor::MessageHead() const {
  if (query_id_.empty()) return "query ";
  return "query '" + query_id_ + "' ";
}

Status QueryGovernor::FailDeadline() {
  if (verdict_ == 0) verdict_ = 1;
  MetricsRegistry::Global()
      .GetCounter("sjos_governor_deadline_exceeded_total")
      .Add();
  return Status::DeadlineExceeded(MessageHead() + "exceeded deadline of " +
                                  std::to_string(deadline_ms_) + " ms");
}

Status QueryGovernor::FailMemory(uint64_t cur_live_bytes) {
  if (verdict_ == 0) verdict_ = 2;
  MetricsRegistry::Global()
      .GetCounter("sjos_governor_memory_exceeded_total")
      .Add();
  return Status::ResourceExhausted(
      MessageHead() + "live set " + std::to_string(cur_live_bytes) +
      " bytes exceeds budget of " + std::to_string(max_live_bytes_) +
      " bytes");
}

Status QueryGovernor::FailCancelled() {
  if (verdict_ == 0) verdict_ = 3;
  MetricsRegistry::Global().GetCounter("sjos_governor_cancelled_total").Add();
  return Status::Cancelled(MessageHead() + "cancelled by caller");
}

Status QueryGovernor::Check(uint64_t cur_live_bytes) {
  SJOS_RETURN_IF_ERROR(CheckDeadline());
  if (max_live_bytes_ == 0 || cur_live_bytes <= max_live_bytes_) {
    return Status::OK();
  }
  return FailMemory(cur_live_bytes);
}

Status QueryGovernor::CheckDeadline() {
  if (external_cancel_ != nullptr &&
      external_cancel_->load(std::memory_order_relaxed)) {
    return FailCancelled();
  }
  if (deadline_ms_ == 0) return Status::OK();
  if (std::chrono::steady_clock::now() < deadline_at_) return Status::OK();
  return FailDeadline();
}

const char* QueryGovernor::verdict() const {
  switch (verdict_) {
    case 1:
      return "deadline";
    case 2:
      return "memory";
    case 3:
      return "cancelled";
    default:
      return "";
  }
}

}  // namespace sjos
