// Plan-cache unit tests: the canonical pattern fingerprint (what must and
// must not collide), the LRU's eviction/recency behavior, and the
// Engine-level invalidation paths — tag-set invalidation after Fold
// forcing re-optimization, and q-error self-eviction after a badly
// mis-estimated execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "query/pattern.h"
#include "query/pattern_parser.h"
#include "service/engine.h"
#include "service/plan_cache.h"
#include "xml/generators/pers_gen.h"

namespace sjos {
namespace {

Pattern Parse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return std::move(pattern).value();
}

Database SmallPers(uint64_t seed = 7) {
  PersGenConfig config;
  config.target_nodes = 800;
  config.seed = seed;
  return Database::Open(GeneratePers(config).value());
}

TEST(PatternFingerprintTest, InsensitiveToSiblingOrder) {
  Pattern a = Parse("manager[//employee[/name]][//department]");
  Pattern b = Parse("manager[//department][//employee[/name]]");
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());

  // The canonical order is a permutation of the pattern's node ids.
  PatternFingerprint fp = b.CanonicalFingerprint();
  ASSERT_EQ(fp.canonical_to_node.size(), b.NumNodes());
  std::vector<PatternNodeId> sorted = fp.canonical_to_node;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<PatternNodeId>(i));
  }
}

TEST(PatternFingerprintTest, SensitiveToEverythingPlanRelevant) {
  const std::string base_key = Parse("a[/b][//c]").CanonicalKey();
  // Tag, axis, and nesting changes all separate the key.
  EXPECT_NE(Parse("a[/b][//d]").CanonicalKey(), base_key);
  EXPECT_NE(Parse("a[//b][//c]").CanonicalKey(), base_key);
  EXPECT_NE(Parse("a[/b[//c]]").CanonicalKey(), base_key);

  // A value predicate separates, and the predicate kind matters.
  Pattern equals = Parse("a[/b][//c]");
  equals.SetPredicate(1, {ValuePredicate::Kind::kEquals, "x"});
  EXPECT_NE(equals.CanonicalKey(), base_key);
  Pattern contains = Parse("a[/b][//c]");
  contains.SetPredicate(1, {ValuePredicate::Kind::kContains, "x"});
  EXPECT_NE(contains.CanonicalKey(), equals.CanonicalKey());

  // Dropping a node's index separates (it changes the reachable plans).
  Pattern unindexed = Parse("a[/b][//c]");
  unindexed.SetUnindexed(2);
  EXPECT_NE(unindexed.CanonicalKey(), base_key);

  // An order_by requirement separates, keyed by canonical position.
  Pattern ordered = Parse("a[/b][//c]");
  ordered.set_order_by(2);
  EXPECT_NE(ordered.CanonicalKey(), base_key);
}

TEST(PatternFingerprintTest, OrderByFollowsTheNodeAcrossReorders) {
  // order_by names node 1 in one insertion order and node 2 in the other,
  // but both mean "order by the employee node" — same canonical key.
  Pattern a;
  PatternNodeId a_root = a.AddRoot("manager");
  PatternNodeId a_emp = a.AddChild(a_root, "employee", Axis::kDescendant);
  a.AddChild(a_root, "department", Axis::kDescendant);
  a.set_order_by(a_emp);

  Pattern b;
  PatternNodeId b_root = b.AddRoot("manager");
  b.AddChild(b_root, "department", Axis::kDescendant);
  PatternNodeId b_emp = b.AddChild(b_root, "employee", Axis::kDescendant);
  b.set_order_by(b_emp);

  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

TEST(PatternFingerprintTest, TagsAreLengthPrefixed) {
  // "ab" + "c" must not collide with "a" + "bc" at a boundary.
  EXPECT_NE(Parse("ab[/c]").CanonicalKey(), Parse("a[/bc]").CanonicalKey());
}

TEST(PlanCacheTest, KeySeparatesOptimizer) {
  const std::string fp = Parse("a[/b]").CanonicalKey();
  EXPECT_NE(PlanCache::MakeKey(fp, OptimizerKind::kDpp),
            PlanCache::MakeKey(fp, OptimizerKind::kFp));
}

TEST(PlanCacheTest, LruEvictsColdestAndGetRefreshes) {
  PlanCache cache(2);
  CachedPlan plan;
  cache.Put("k1", plan);
  cache.Put("k2", plan);

  // Touch k1 so k2 becomes the LRU victim.
  CachedPlan out;
  EXPECT_TRUE(cache.Get("k1", &out));
  cache.Put("k3", plan);

  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_TRUE(cache.Get("k1", &out));
  EXPECT_FALSE(cache.Get("k2", &out));
  EXPECT_TRUE(cache.Get("k3", &out));

  PlanCacheCounters c = cache.Counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(PlanCacheTest, ClearCountsDroppedEntriesAsInvalidations) {
  PlanCache cache(8);
  CachedPlan plan;
  cache.Put("a", plan);
  cache.Put("b", plan);
  cache.Put("c", plan);
  EXPECT_EQ(cache.Size(), 3u);
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.Counters().invalidations, 3u);
}

TEST(PlanCacheTest, EngineHitsAcrossSiblingReorder) {
  // Self-eviction off so residency depends only on what this test does.
  EngineOptions opts;
  opts.cache_max_q_error = 0;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern a = Parse("manager[//employee[/name]][//department]");
  Pattern b = Parse("manager[//department][//employee[/name]]");

  Result<QueryResult> first = engine.Query(a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().planned.cache_hit);

  // The reordered twin hits the same entry; the remapped plan must produce
  // exactly what a fresh optimization of `b` would.
  Result<QueryResult> hit = engine.Query(b);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().planned.cache_hit);

  QueryOptions uncached;
  uncached.use_plan_cache = false;
  Result<QueryResult> fresh = engine.Query(b, uncached);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh.value().planned.cache_hit);
  EXPECT_EQ(hit.value().tuples.Canonical(), fresh.value().tuples.Canonical());
  EXPECT_EQ(hit.value().stats.result_rows, fresh.value().stats.result_rows);
}

TEST(PlanCacheTest, FoldInvalidatesByTagSetAndForcesReoptimize) {
  EngineOptions opts;
  opts.cache_max_q_error = 0;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]][//department]");

  ASSERT_TRUE(engine.Query(pattern).ok());
  Result<QueryResult> warm = engine.Query(pattern);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().planned.cache_hit);

  // Fold rescales every tag, so it invalidates by the full tag set — the
  // fine-grained path — and drops nothing globally.
  const uint64_t tagset_before =
      engine.plan_cache().Counters().invalidations_tagset;
  const uint64_t global_before =
      engine.plan_cache().Counters().invalidations_global;
  ASSERT_TRUE(engine.Apply(FoldMutation{2}).ok());
  EXPECT_GT(engine.plan_cache().Counters().invalidations_tagset,
            tagset_before);
  EXPECT_EQ(engine.plan_cache().Counters().invalidations_global,
            global_before);

  // The entry was dropped; the next query must re-optimize against the
  // folded statistics and repopulate the cache.
  Result<QueryResult> after_fold = engine.Query(pattern);
  ASSERT_TRUE(after_fold.ok()) << after_fold.status().ToString();
  EXPECT_FALSE(after_fold.value().planned.cache_hit);
  EXPECT_GT(after_fold.value().planned.opt_stats.plans_considered, 0u);

  Result<QueryResult> rewarmed = engine.Query(pattern);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed.value().planned.cache_hit);
}

TEST(PlanCacheTest, QErrorSelfEviction) {
  // Any join's q-error is >= 1, so a 0.5 threshold evicts after every
  // execution: the plan is cached during planning, dropped after running.
  EngineOptions opts;
  opts.cache_max_q_error = 0.5;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]]");

  ASSERT_TRUE(engine.Query(pattern).ok());
  Result<QueryResult> second = engine.Query(pattern);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().planned.cache_hit);
  EXPECT_GE(engine.plan_cache().Counters().qerror_evictions, 2u);
}

}  // namespace
}  // namespace sjos
