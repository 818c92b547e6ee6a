// LRU plan cache: the Engine's amortizer for repeated query patterns.
// Entries are keyed on optimizer kind + Pattern::CanonicalFingerprint().key,
// so a hit is only possible when the same algorithm would see the same
// logical pattern — and plans are stored in CANONICAL pattern-node-id space
// (see PhysicalPlan::WithRemappedPatternNodes), so a plan cached under one
// sibling ordering replays correctly for any reordering of the same
// pattern.
//
// Staleness: the paper's cost model (Sec. 3.2) makes a chosen join order a
// function of the document statistics, so each event that changes them
// makes exactly one call here. A document load clears the cache (Clear);
// a fold or subtree mutation drops the entries whose tag set it touched
// (InvalidateTags). No other event invalidates a plan (the LRU still
// evicts at capacity): the estimator and the optimizers are
// deterministic, so re-planning unchanged statistics returns the same
// plan. The Engine makes the load's
// Clear under its exclusive database lock and every Get/Put under the
// shared one, so no plan from an old document survives or gets inserted.
//
// Concurrency: one mutex around one LRU list + hash map; safe for
// concurrent Get/Put/Erase from Engine worker threads. Counters are
// mirrored into MetricsRegistry::Global() as sjos_plan_cache_*_total.

#ifndef SJOS_SERVICE_PLAN_CACHE_H_
#define SJOS_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "plan/plan.h"
#include "service/query_options.h"

namespace sjos {

/// One cached optimization outcome. `plan` is in canonical pattern-node-id
/// space; callers remap through the fingerprint of the concrete pattern.
struct CachedPlan {
  PhysicalPlan plan;
  /// Algorithm name as the optimizer reported it ("DP", "DPP", ...).
  std::string algorithm;
  double modelled_cost = 0.0;
  /// Sorted, unique tag names the plan's pattern touches. Fine-grained
  /// invalidation (InvalidateTags) drops exactly the entries whose tag set
  /// intersects a mutation's touched tags.
  std::vector<std::string> tags;
};

/// Monotonic event counters for one cache instance (the global metrics
/// aggregate across instances).
struct PlanCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;         // capacity (LRU) evictions
  uint64_t invalidations = 0;     // all invalidations (global + tagset)
  uint64_t invalidations_global = 0;  // Clear() drops
  uint64_t invalidations_tagset = 0;  // InvalidateTags drops
};

class PlanCache {
 public:
  /// `capacity` entries (at least one).
  explicit PlanCache(size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Composes the full cache key, `<kind>|<pattern-key>`.
  static std::string MakeKey(std::string_view pattern_key, OptimizerKind kind);

  /// Looks up `key`. On a hit the entry moves to the MRU position.
  bool Get(const std::string& key, CachedPlan* out);

  /// Inserts or replaces `key`. Evicts the LRU entry on overflow.
  void Put(const std::string& key, CachedPlan plan);

  /// Fine-grained invalidation: drops every entry whose tag set intersects
  /// `tags` (which must be sorted). Returns the number of entries dropped;
  /// each counts as a scope=tagset invalidation.
  size_t InvalidateTags(const std::vector<std::string>& tags);

  /// Drops every entry (each counted as a scope=global invalidation).
  /// Returns the number of entries dropped.
  size_t Clear();

  size_t Size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheCounters Counters() const;

 private:
  struct Entry {
    std::string key;
    CachedPlan plan;
  };

  const size_t capacity_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheCounters counters_;  // `invalidations` is derived in Counters()
};

}  // namespace sjos

#endif  // SJOS_SERVICE_PLAN_CACHE_H_
