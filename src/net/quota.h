// Per-tenant resource governance for the query server: an in-flight cap,
// a QPS token bucket, a write token bucket, and a per-query live-bytes
// clamp. Both buckets are net::TokenBucket with capacity max(1, rate) —
// one second of burst — and start full. Admission is a
// pure decision — the server turns a rejection into a kResourceExhausted
// wire response with a retry_after_ms hint instead of queueing, so an
// over-quota tenant sheds load explicitly rather than growing the engine
// queue (the shedding contract of DESIGN.md §10.4). Time is passed in by
// the caller (microseconds, any monotonic origin) so tests drive the
// bucket with a synthetic clock.

#ifndef SJOS_NET_QUOTA_H_
#define SJOS_NET_QUOTA_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/retry_policy.h"

namespace sjos {
namespace net {

/// Limits for one tenant. Zero disables the corresponding check.
struct TenantQuota {
  /// Queries admitted but not yet finished (completion releases the slot
  /// via the QueryHandle done-callback, so an unpolled or cancelled query
  /// cannot leak it).
  uint32_t max_in_flight = 0;

  /// Sustained submissions per second, enforced by a token bucket.
  double qps = 0.0;

  /// Per-query live-bytes clamp: a submitted query runs with
  /// min(requested, this) as its governor max_live_bytes budget.
  uint64_t max_live_bytes = 0;

  /// Sustained update (insert/delete/flush) submissions per second,
  /// enforced by a separate write token bucket. 0 = unlimited writes.
  double write_qps = 0.0;
};

/// Thread-safe quota table. Tenants not explicitly configured get the
/// default quota on first sight.
class TenantQuotaTable {
 public:
  explicit TenantQuotaTable(TenantQuota default_quota = {});

  /// Replaces `tenant`'s quota (resets both token buckets; the in-flight
  /// count is preserved).
  void SetQuota(const std::string& tenant, TenantQuota quota);

  struct Decision {
    bool admitted = false;
    /// Shed hint: when the bucket refills enough for one token (qps or
    /// write_qps), or a fixed guess for an in-flight rejection. 0 when
    /// admitted.
    uint64_t retry_after_ms = 0;
    /// "in_flight", "qps" or "write_qps" when shed; "" when admitted.
    std::string reason;
  };

  /// Charges one submission at `now_us`. On admission the tenant's
  /// in-flight count is incremented — the caller must guarantee exactly
  /// one Release per admitted query.
  Decision Admit(const std::string& tenant, uint64_t now_us);

  /// Charges one update against the tenant's write token bucket. Writes
  /// are synchronous (no in-flight slot); admission only spends a token.
  Decision AdmitWrite(const std::string& tenant, uint64_t now_us);

  /// Releases one in-flight slot (no-op at zero — tolerates double
  /// release rather than underflowing).
  void Release(const std::string& tenant);

  /// The live-bytes clamp for `tenant` (its quota's, or the default's).
  uint64_t LiveBytesCap(const std::string& tenant) const;

  uint64_t InFlight(const std::string& tenant) const;

  /// Sum of in-flight counts over all tenants — the soak test's "no
  /// leaked slots" observable.
  uint64_t TotalInFlight() const;

 private:
  struct TenantState {
    explicit TenantState(const TenantQuota& q);

    TenantQuota quota;
    uint64_t in_flight = 0;
    TokenBucket reads;
    TokenBucket writes;
  };

  TenantState& GetLocked(const std::string& tenant);

  mutable std::mutex mu_;
  TenantQuota default_quota_;
  std::unordered_map<std::string, TenantState> tenants_;
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_QUOTA_H_
