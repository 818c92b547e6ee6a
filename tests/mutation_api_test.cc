// Engine::Apply unit tests: one Mutation variant at a time, asserting the
// MutationResult report (node deltas, incremental-vs-rebuilt estimator
// maintenance, invalidation scope) and the plan-cache behavior the report
// claims — tag-set-scoped drops for subtree mutations (disjoint entries
// survive), global drops only for loads, none for flushes — plus the
// automatic flush-and-retry when an insert exhausts its key gap.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "query/pattern.h"
#include "query/pattern_parser.h"
#include "service/engine.h"
#include "service/mutation.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace sjos {
namespace {

constexpr size_t kAppend = static_cast<size_t>(-1);

Pattern Parse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return std::move(pattern).value();
}

Document Doc(const std::string& xml) {
  Result<Document> doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

uint64_t Rows(Engine& engine, const Pattern& pattern) {
  Result<QueryResult> r = engine.Query(pattern);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value().stats.result_rows;
}

bool CacheHit(Engine& engine, const Pattern& pattern) {
  Result<QueryResult> r = engine.Query(pattern);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value().planned.cache_hit;
}

TEST(MutationApiTest, ApplyWithoutDatabaseIsNotFound) {
  Engine engine;
  Result<MutationResult> r = engine.Apply(InsertSubtree{0, 0, "<x/>"});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(MutationApiTest, LoadReportsGlobalScope) {
  Engine engine;
  Result<MutationResult> loaded =
      engine.Apply(LoadDocument{Doc("<a><b/><b/></a>"), "first"});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().nodes_added, 3u);
  EXPECT_TRUE(loaded.value().estimator_rebuilt);
  EXPECT_EQ(loaded.value().scope, "global");
  EXPECT_EQ(loaded.value().cache_invalidated, 0u);  // cache was empty

  // Warm an entry, then load again: the replacement drops it globally.
  Pattern pattern = Parse("a[/b]");
  EXPECT_FALSE(CacheHit(engine, pattern));
  EXPECT_TRUE(CacheHit(engine, pattern));
  Result<MutationResult> reloaded =
      engine.Apply(LoadDocument{Doc("<a><b/></a>"), "second"});
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().scope, "global");
  EXPECT_GE(reloaded.value().cache_invalidated, 1u);
  EXPECT_FALSE(CacheHit(engine, pattern));
}

TEST(MutationApiTest, InsertIsIncrementalAndInvalidatesByTagSet) {
  Engine engine;
  ASSERT_TRUE(
      engine.Apply(LoadDocument{Doc("<a><b/><b/><c><d/></c></a>")}).ok());
  Pattern touched = Parse("a[//b]");   // shares tags {a, b} with the insert
  Pattern disjoint = Parse("c[/d]");   // shares none
  EXPECT_EQ(Rows(engine, touched), 2u);
  ASSERT_TRUE(CacheHit(engine, touched));
  EXPECT_EQ(Rows(engine, disjoint), 1u);
  ASSERT_TRUE(CacheHit(engine, disjoint));

  const uint64_t global_before =
      engine.plan_cache().Counters().invalidations_global;

  // First insert respaces the dense document, so the estimator is rebuilt
  // once; the insert itself still lands as incremental deltas.
  Result<MutationResult> first =
      engine.Apply(InsertSubtree{0, static_cast<size_t>(-1), "<b><e/></b>"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().nodes_added, 2u);
  EXPECT_EQ(first.value().histogram_deltas, 2u);
  EXPECT_TRUE(first.value().estimator_rebuilt);
  EXPECT_EQ(first.value().scope, "tagset");
  EXPECT_GE(first.value().cache_invalidated, 1u);

  // Steady state: purely incremental, no rebuild.
  Result<MutationResult> second =
      engine.Apply(InsertSubtree{0, static_cast<size_t>(-1), "<b/>"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().histogram_deltas, 1u);
  EXPECT_FALSE(second.value().estimator_rebuilt);
  EXPECT_EQ(second.value().scope, "tagset");

  // Fine-grained: the {a,b} entry was dropped, the {c,d} entry survived,
  // and nothing was invalidated globally.
  EXPECT_EQ(engine.plan_cache().Counters().invalidations_global,
            global_before);
  EXPECT_TRUE(CacheHit(engine, disjoint));
  Result<QueryResult> requery = engine.Query(touched);
  ASSERT_TRUE(requery.ok());
  EXPECT_FALSE(requery.value().planned.cache_hit);
  EXPECT_EQ(requery.value().stats.result_rows, 4u);
}

TEST(MutationApiTest, DeleteIsIncrementalAndInvalidatesByTagSet) {
  Engine engine;
  ASSERT_TRUE(
      engine.Apply(LoadDocument{Doc("<a><b/><b/><c><d/></c></a>")}).ok());
  Pattern touched = Parse("a[//b]");
  Pattern disjoint = Parse("c[/d]");
  EXPECT_EQ(Rows(engine, touched), 2u);
  ASSERT_TRUE(CacheHit(engine, touched));
  EXPECT_EQ(Rows(engine, disjoint), 1u);
  ASSERT_TRUE(CacheHit(engine, disjoint));

  const uint64_t global_before =
      engine.plan_cache().Counters().invalidations_global;
  // Slot 1 is the first <b/>; the document is still dense (deletes never
  // force a respace), so its key is its slot.
  Result<MutationResult> removed =
      engine.Apply(DeleteSubtree{engine.db().doc().KeyOfSlot(1)});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value().nodes_removed, 1u);
  EXPECT_EQ(removed.value().histogram_deltas, 1u);
  EXPECT_FALSE(removed.value().estimator_rebuilt);
  EXPECT_EQ(removed.value().scope, "tagset");
  EXPECT_GE(removed.value().cache_invalidated, 1u);
  EXPECT_EQ(engine.plan_cache().Counters().invalidations_global,
            global_before);

  EXPECT_TRUE(CacheHit(engine, disjoint));
  EXPECT_EQ(Rows(engine, touched), 1u);

  // Delete errors propagate untouched through Apply.
  EXPECT_EQ(engine.Apply(DeleteSubtree{0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MutationApiTest, FlushRebuildsEstimatorWithoutInvalidation) {
  Engine engine;
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a><b/></a>")}).ok());

  // No overlay: a flush is a complete no-op.
  Result<MutationResult> noop = engine.Apply(FlushDifferential{});
  ASSERT_TRUE(noop.ok());
  EXPECT_FALSE(noop.value().estimator_rebuilt);
  EXPECT_EQ(noop.value().cache_invalidated, 0u);
  EXPECT_EQ(noop.value().scope, "");

  ASSERT_TRUE(
      engine.Apply(InsertSubtree{0, static_cast<size_t>(-1), "<c/>"}).ok());
  Pattern pattern = Parse("a[/c]");
  EXPECT_EQ(Rows(engine, pattern), 1u);
  ASSERT_TRUE(CacheHit(engine, pattern));

  // A real flush rebuilds the estimator (grids live in key coordinates)
  // but drops nothing from the cache: plans are stored in canonical
  // pattern space, which the key relayout cannot stale.
  Result<MutationResult> flushed = engine.Apply(FlushDifferential{});
  ASSERT_TRUE(flushed.ok());
  EXPECT_TRUE(flushed.value().estimator_rebuilt);
  EXPECT_EQ(flushed.value().cache_invalidated, 0u);
  EXPECT_EQ(flushed.value().scope, "");
  EXPECT_TRUE(CacheHit(engine, pattern));
  EXPECT_EQ(Rows(engine, pattern), 1u);
}

TEST(MutationApiTest, InsertGapExhaustionAutoFlushesAndRetries) {
  Engine engine;
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a><b/></a>")}).ok());
  // Hammer the same insertion point. At the storage layer this exhausts
  // the key gap with ResourceExhausted; the Engine must absorb that by
  // flushing the overlay and retrying, so the API-level caller never sees
  // the refusal.
  int rebuilds = 0;
  for (int i = 0; i < 200; ++i) {
    Result<MutationResult> r = engine.Apply(InsertSubtree{0, 0, "<c/>"});
    ASSERT_TRUE(r.ok()) << "insert " << i << ": " << r.status().ToString();
    EXPECT_EQ(r.value().nodes_added, 1u);
    if (r.value().estimator_rebuilt) ++rebuilds;
  }
  EXPECT_EQ(engine.db().LiveNodeCount(), 202u);
  // The first insert respaces; at least one later insert must have taken
  // the flush-and-retry path.
  EXPECT_GE(rebuilds, 2);
  EXPECT_EQ(Rows(engine, Parse("a[/c]")), 200u);
}

TEST(MutationApiTest, InvalidFragmentRejectedWithoutStateChange) {
  Engine engine;
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a><b/></a>")}).ok());
  const uint64_t live = engine.db().LiveNodeCount();
  EXPECT_FALSE(
      engine.Apply(InsertSubtree{0, 0, "<unclosed>"}).ok());
  EXPECT_FALSE(engine.Apply(InsertSubtree{999, 0, "<c/>"}).ok());
  EXPECT_EQ(engine.db().LiveNodeCount(), live);
  EXPECT_FALSE(engine.db().HasOverlay());
  // A rejected insert does not respace the dense document either.
  EXPECT_FALSE(engine.db().doc().Spaced());
}

// The first insert into a freshly loaded (dense) document names its parent
// by a dense key. The parent is resolved before the key domain is spaced,
// then mapped through its slot, so a non-root parent is found.
TEST(MutationApiTest, FirstInsertUnderNonRootParent) {
  Engine engine;
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a><b/><c/><d/></a>")}).ok());
  ASSERT_FALSE(engine.db().doc().Spaced());
  EXPECT_EQ(Rows(engine, Parse("b[/y]")), 0u);

  Result<MutationResult> r = engine.Apply(InsertSubtree{1, 0, "<y/>"});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().estimator_rebuilt);  // the insert respaced
  EXPECT_TRUE(engine.db().doc().Spaced());
  EXPECT_EQ(Rows(engine, Parse("b[/y]")), 1u);
  EXPECT_EQ(Rows(engine, Parse("c[/y]")), 0u);
  Result<Document> merged = engine.db().MaterializeMerged();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(SerializeXml(merged.value()), "<a><b><y/></b><c/><d/></a>");

  // A fragment too large for any leaf's key gap respaces, fails the gap
  // check, and takes the flush-and-retry path with the dense parent key
  // still resolved (through its slot) to the same node.
  Engine big;
  ASSERT_TRUE(big.Apply(LoadDocument{Doc("<a><b/><c/><d/></a>")}).ok());
  std::string fragment = "<e>";
  for (int i = 0; i < 40; ++i) fragment += "<f/>";
  fragment += "</e>";
  Result<MutationResult> wide = big.Apply(InsertSubtree{2, 0, fragment});
  EXPECT_EQ(wide.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(wide.status().message().find(
                "node " + std::to_string(big.db().doc().KeyOfSlot(2))),
            std::string::npos)
      << wide.status().ToString();
  EXPECT_EQ(big.db().LiveNodeCount(), 4u);
}

// A gap between two live siblings can contain a deleted base node's key.
// An insert there must not take that key: reads, MaterializeMerged and the
// flush route every base-aligned key to the base document, which would
// bring the deleted node back and lose the inserted one.
TEST(MutationApiTest, InsertNeverReusesDeletedBaseKey) {
  Engine engine;
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a><b/><c/><d/></a>")}).ok());
  // The first insert respaces: b=64, c=128, d=192.
  ASSERT_TRUE(engine.Apply(InsertSubtree{0, kAppend, "<z/>"}).ok());
  ASSERT_EQ(engine.db().doc().KeyOfSlot(2), 128u);
  ASSERT_TRUE(engine.Apply(DeleteSubtree{128}).ok());
  // Between b and d: the gap that holds c's old key.
  ASSERT_TRUE(engine.Apply(InsertSubtree{0, 1, "<x/>"}).ok());

  const std::string expected = "<a><b/><x/><d/><z/></a>";
  EXPECT_EQ(Rows(engine, Parse("a[/x]")), 1u);
  EXPECT_EQ(Rows(engine, Parse("a[/c]")), 0u);
  Result<Document> merged = engine.db().MaterializeMerged();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(SerializeXml(merged.value()), expected);

  ASSERT_TRUE(engine.Apply(FlushDifferential{}).ok());
  EXPECT_EQ(Rows(engine, Parse("a[/x]")), 1u);
  EXPECT_EQ(Rows(engine, Parse("a[/c]")), 0u);
  EXPECT_EQ(SerializeXml(engine.db().doc()), expected);
}

TEST(MutationApiTest, FoldAndReloadThroughApply) {
  Engine engine;
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a><b/><b/></a>")}).ok());
  EXPECT_EQ(engine.db().LiveNodeCount(), 3u);

  // Fold doubles the corpus.
  ASSERT_TRUE(engine.Apply(FoldMutation{2}).ok());
  EXPECT_GT(engine.db().LiveNodeCount(), 3u);

  // Load replaces it.
  ASSERT_TRUE(engine.Apply(LoadDocument{Doc("<a/>")}).ok());
  EXPECT_EQ(engine.db().LiveNodeCount(), 1u);
}

}  // namespace
}  // namespace sjos
