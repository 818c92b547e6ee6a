#include "service/plan_cache.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace sjos {

namespace {

struct CacheMetrics {
  Counter& hits;
  Counter& misses;
  Counter& evictions;
  Counter& invalidations;
  Counter& invalidations_global;
  Counter& invalidations_tagset;
  Counter& qerror_evictions;

  static CacheMetrics& Get() {
    static CacheMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      // The unlabeled invalidations series stays the all-scope total; the
      // scope-labeled series split it into global (Clear on a load) versus
      // tagset (fine-grained mutation) drops.
      return new CacheMetrics{
          reg.GetCounter("sjos_plan_cache_hits_total"),
          reg.GetCounter("sjos_plan_cache_misses_total"),
          reg.GetCounter("sjos_plan_cache_evictions_total"),
          reg.GetCounter("sjos_plan_cache_invalidations_total"),
          reg.GetCounter("sjos_plan_cache_invalidations_total",
                         {{"scope", "global"}}),
          reg.GetCounter("sjos_plan_cache_invalidations_total",
                         {{"scope", "tagset"}}),
          reg.GetCounter("sjos_plan_cache_qerror_evictions_total")};
    }();
    return *m;
  }
};

/// True when the sorted ranges `a` and `b` share at least one element.
bool SortedIntersects(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::string PlanCache::MakeKey(std::string_view pattern_key,
                               OptimizerKind kind) {
  std::string key(OptimizerKindName(kind));
  key += '|';
  key += pattern_key;
  return key;
}

bool PlanCache::Get(const std::string& key, CachedPlan* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    CacheMetrics::Get().misses.Add();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->plan;
  ++counters_.hits;
  CacheMetrics::Get().hits.Add();
  return true;
}

void PlanCache::Put(const std::string& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++counters_.evictions;
    CacheMetrics::Get().evictions.Add();
  }
}

void PlanCache::EvictForQError(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
  ++counters_.qerror_evictions;
  CacheMetrics::Get().qerror_evictions.Add();
}

size_t PlanCache::InvalidateTags(const std::vector<std::string>& tags) {
  if (tags.empty()) return 0;
  size_t dropped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (SortedIntersects(it->plan.tags, tags)) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) {
    counters_.invalidations_tagset += dropped;
    CacheMetrics::Get().invalidations.Add(dropped);
    CacheMetrics::Get().invalidations_tagset.Add(dropped);
  }
  return dropped;
}

size_t PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t dropped = lru_.size();
  lru_.clear();
  index_.clear();
  if (dropped > 0) {
    counters_.invalidations_global += dropped;
    CacheMetrics::Get().invalidations.Add(dropped);
    CacheMetrics::Get().invalidations_global.Add(dropped);
  }
  return dropped;
}

size_t PlanCache::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheCounters PlanCache::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheCounters c = counters_;
  c.invalidations = c.invalidations_global + c.invalidations_tagset;
  return c;
}

}  // namespace sjos
