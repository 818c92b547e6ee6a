#include "net/quota.h"

#include <algorithm>

#include "common/metrics.h"

namespace sjos {
namespace net {

namespace {

/// Hint for an in-flight rejection: there is no completion estimate, so
/// suggest a short fixed backoff.
constexpr uint64_t kInFlightRetryHintMs = 50;

/// Charges one token from `bucket` (limited at `rate` per second, 0 =
/// unlimited). On a shed, fills `decision` with `reason` and the wait
/// until the next token, and counts it.
bool Spend(TokenBucket& bucket, double rate, const char* reason,
           uint64_t now_us, TenantQuotaTable::Decision* decision) {
  if (rate <= 0 || bucket.TryTake(now_us)) return true;
  decision->reason = reason;
  decision->retry_after_ms = bucket.WaitMs(now_us);
  MetricsRegistry::Global()
      .GetCounter("sjos_server_shed_total", {{"reason", reason}})
      .Add();
  return false;
}

}  // namespace

TenantQuotaTable::TenantState::TenantState(const TenantQuota& q)
    : quota(q),
      reads(std::max(1.0, q.qps), q.qps),
      writes(std::max(1.0, q.write_qps), q.write_qps) {}

TenantQuotaTable::TenantQuotaTable(TenantQuota default_quota)
    : default_quota_(default_quota) {}

TenantQuotaTable::TenantState& TenantQuotaTable::GetLocked(
    const std::string& tenant) {
  return tenants_.try_emplace(tenant, default_quota_).first->second;
}

void TenantQuotaTable::SetQuota(const std::string& tenant, TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  const uint64_t in_flight = state.in_flight;
  state = TenantState(quota);
  state.in_flight = in_flight;
}

TenantQuotaTable::Decision TenantQuotaTable::Admit(const std::string& tenant,
                                                   uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  Decision decision;

  if (state.quota.max_in_flight > 0 &&
      state.in_flight >= state.quota.max_in_flight) {
    decision.reason = "in_flight";
    decision.retry_after_ms = kInFlightRetryHintMs;
    MetricsRegistry::Global()
        .GetCounter("sjos_server_shed_total", {{"reason", "in_flight"}})
        .Add();
    return decision;
  }
  if (!Spend(state.reads, state.quota.qps, "qps", now_us, &decision)) {
    return decision;
  }

  state.in_flight += 1;
  decision.admitted = true;
  return decision;
}

TenantQuotaTable::Decision TenantQuotaTable::AdmitWrite(
    const std::string& tenant, uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  Decision decision;
  decision.admitted =
      Spend(state.writes, state.quota.write_qps, "write_qps", now_us,
            &decision);
  return decision;
}

void TenantQuotaTable::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = GetLocked(tenant);
  if (state.in_flight > 0) state.in_flight -= 1;
}

uint64_t TenantQuotaTable::LiveBytesCap(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? default_quota_.max_live_bytes
                              : it->second.quota.max_live_bytes;
}

uint64_t TenantQuotaTable::InFlight(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.in_flight;
}

uint64_t TenantQuotaTable::TotalInFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, state] : tenants_) total += state.in_flight;
  return total;
}

}  // namespace net
}  // namespace sjos
