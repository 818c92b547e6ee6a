// Differential correctness: every optimizer in the paper's line-up, on
// seeded random Pers, DBLP and Mbench documents, must produce plans whose
// executed result sets equal the NaiveMatch oracle — the end-to-end check
// the per-optimizer unit tests don't provide. The holistic TwigJoin must
// agree with the oracle too, so two independent algorithms pin the
// expected set. Each plan then runs at several batch sizes (one-row
// batches included); all executions must be byte-identical with identical
// stats counters, so the oracle pins every batch size at once. A
// mutation schedule (inserts, deletes, flushes, with reader
// threads live throughout) additionally pins the differential overlay
// against a reparse-from-serialization oracle after every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "exec/twig_join.h"
#include "plan/plan_props.h"
#include "query/workload.h"
#include "service/engine.h"
#include "storage/catalog.h"
#include "xml/generators/dblp_gen.h"
#include "xml/generators/mbench_gen.h"
#include "xml/generators/pers_gen.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace sjos {
namespace {

/// Asserts a and b are physically identical (not just set-equal).
void ExpectIdenticalTuples(const TupleSet& a, const TupleSet& b) {
  ASSERT_EQ(a.slots(), b.slots());
  ASSERT_EQ(a.size(), b.size());
  if (a.size() == 0) return;
  const size_t n = a.size() * a.arity();
  EXPECT_TRUE(std::equal(a.Row(0), a.Row(0) + n, b.Row(0)))
      << "tuple payload differs";
}

/// Every counter except wall_ms (timing) and the live-row/-byte peaks
/// (which scale with the batch size) must match across batch sizes.
void ExpectIdenticalCounters(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.result_rows, b.result_rows);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.rows_sorted, b.rows_sorted);
  EXPECT_EQ(a.join_output_rows, b.join_output_rows);
  EXPECT_EQ(a.element_pairs, b.element_pairs);
  EXPECT_EQ(a.nodes_navigated, b.nodes_navigated);
  EXPECT_EQ(a.num_sorts, b.num_sorts);
  EXPECT_EQ(a.num_joins, b.num_joins);
  EXPECT_EQ(a.num_navigates, b.num_navigates);
  // The estimator-accuracy figure depends only on the plan annotations and
  // join output counters, so it too is batch-size-invariant.
  EXPECT_DOUBLE_EQ(a.max_q_error, b.max_q_error);
}

/// Every join node of an optimizer-produced plan must carry a cardinality
/// estimate, and comparing it against the measured rows must give a
/// finite q-error >= 1.
void ExpectJoinEstimatesAnnotated(const PhysicalPlan& plan,
                                  const std::vector<OpStats>& op_stats) {
  for (size_t i = 0; i < plan.NumOps(); ++i) {
    const PlanNode& node = plan.At(static_cast<int>(i));
    if (node.op != PlanOp::kStackTreeAnc &&
        node.op != PlanOp::kStackTreeDesc) {
      continue;
    }
    EXPECT_GE(node.est_rows, 0.0) << "join node " << i << " not annotated";
    const double q =
        QError(node.est_rows, static_cast<double>(op_stats[i].rows));
    EXPECT_TRUE(std::isfinite(q)) << "join node " << i;
    EXPECT_GE(q, 1.0) << "join node " << i;
  }
}

/// Runs all paper optimizers for every workload query of `dataset_name`
/// against `db`. The default-batch execution is checked against the
/// NaiveMatch oracle (itself cross-checked against TwigJoin), then every
/// other batch size is checked byte-for-byte against that reference.
void RunDifferential(const Database& db, const std::string& dataset_name) {
  PositionalHistogramEstimator estimator = PositionalHistogramEstimator::Build(
      db.doc(), db.index(), db.stats());
  for (const BenchQuery& query : PaperWorkload()) {
    if (query.dataset != dataset_name) continue;
    SCOPED_TRACE(query.id);
    const Pattern& pattern = query.pattern;
    auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
    Result<TupleSet> twig = TwigJoin(db, pattern);
    ASSERT_TRUE(twig.ok()) << twig.status().ToString();
    ASSERT_EQ(twig.value().Canonical(), expected);

    Result<PatternEstimates> estimates =
        PatternEstimates::Make(pattern, db.doc(), estimator);
    ASSERT_TRUE(estimates.ok()) << estimates.status().ToString();
    CostModel cost_model;
    OptimizeContext ctx{&pattern, &estimates.value(), &cost_model, {}};

    for (const std::unique_ptr<Optimizer>& optimizer :
         MakePaperOptimizers(pattern.NumEdges())) {
      SCOPED_TRACE(optimizer->name());
      Result<OptimizeResult> optimized = optimizer->Optimize(ctx);
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
      const PhysicalPlan& plan = optimized.value().plan;

      // Reference: the default batch size.
      Executor ref_exec(db);
      Result<ExecResult> ref = ref_exec.Execute(pattern, plan);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(ref.value().tuples.Canonical(), expected);
      EXPECT_EQ(ref.value().stats.result_rows, expected.size());
      ExpectJoinEstimatesAnnotated(plan, ref.value().op_stats);

      // Every batch size must reproduce the reference byte for byte.
      for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
        SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
        ExecOptions options;
        options.batch_rows = batch_rows;
        Executor exec(db, options);
        Result<ExecResult> result = exec.Execute(pattern, plan);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectIdenticalTuples(ref.value().tuples, result.value().tuples);
        ExpectIdenticalCounters(ref.value().stats, result.value().stats);
      }
    }
  }
}

TEST(DifferentialTest, PersOptimizersMatchOracle) {
  for (uint64_t seed : {7u, 19u, 131u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    PersGenConfig config;
    config.target_nodes = 900;
    config.seed = seed;
    Database db = Database::Open(GeneratePers(config).value());
    RunDifferential(db, "Pers");
  }
}

TEST(DifferentialTest, DblpOptimizersMatchOracle) {
  for (uint64_t seed : {11u, 59u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DblpGenConfig config;
    config.target_nodes = 1500;
    config.seed = seed;
    Database db = Database::Open(GenerateDblp(config).value());
    RunDifferential(db, "DBLP");
  }
}

// A plan served from the Engine's cache must be indistinguishable from a
// fresh search: for every optimizer kind and at batch sizes 1/3/1024, the
// cache-off reference, the populating miss, and the warm hit all produce
// byte-identical tuples and counters.
TEST(DifferentialTest, PlanCacheWarmMatchesCold) {
  PersGenConfig config;
  config.target_nodes = 900;
  config.seed = 7;

  for (OptimizerKind kind : kAllOptimizerKinds) {
    SCOPED_TRACE(OptimizerKindName(kind));
    for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
      Engine engine;
      // The generator is deterministic, so every engine sees the same doc.
      ASSERT_TRUE(
          engine.Apply(LoadDocument{GeneratePers(config).value(), "Pers"})
              .ok());

      for (const BenchQuery& query : PaperWorkload()) {
        if (query.dataset != "Pers") continue;
        SCOPED_TRACE(query.id);

        QueryOptions options;
        options.optimizer = kind;
        options.batch_rows = batch_rows;
        options.use_plan_cache = false;
        Result<QueryResult> ref = engine.Query(query.pattern, options);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        EXPECT_FALSE(ref.value().planned.cache_hit);

        options.use_plan_cache = true;
        Result<QueryResult> miss = engine.Query(query.pattern, options);
        ASSERT_TRUE(miss.ok()) << miss.status().ToString();
        Result<QueryResult> hit = engine.Query(query.pattern, options);
        ASSERT_TRUE(hit.ok()) << hit.status().ToString();
        if (miss.value().planned.fallback_from.empty()) {
          EXPECT_TRUE(hit.value().planned.cache_hit);
        }

        ExpectIdenticalTuples(ref.value().tuples, miss.value().tuples);
        ExpectIdenticalCounters(ref.value().stats, miss.value().stats);
        ExpectIdenticalTuples(ref.value().tuples, hit.value().tuples);
        ExpectIdenticalCounters(ref.value().stats, hit.value().stats);
      }
    }
  }
}

// A live Engine under a schedule of subtree inserts, deletes, and flushes
// must stay equivalent to reloading the serialized merged tree from
// scratch. After every mutation the merged view's serialization must
// round-trip byte-identically, and all five optimizers must produce the
// reparse oracle's exact result set for every Pers workload query —
// tuples compared in pre-order-rank space, since the live document's
// spaced keys and the oracle's dense keys differ physically but must
// agree on document order. Four reader threads hammer the Engine for the
// duration so TSan sees the reader/writer interleaving.
TEST(DifferentialTest, MutationScheduleMatchesReparseOracle) {
  PersGenConfig config;
  config.target_nodes = 600;
  config.seed = 7;
  Engine engine;
  ASSERT_TRUE(
      engine.Apply(LoadDocument{GeneratePers(config).value(), "Pers"}).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &stop, &reader_failures, t] {
      std::vector<Pattern> patterns;
      for (const BenchQuery& query : PaperWorkload()) {
        if (query.dataset == "Pers") patterns.push_back(query.pattern);
      }
      for (size_t i = static_cast<size_t>(t);
           !stop.load(std::memory_order_relaxed); ++i) {
        if (!engine.Query(patterns[i % patterns.size()]).ok()) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto append = [](const std::string& xml) {
    return InsertSubtree{0, static_cast<size_t>(-1), xml};
  };
  // Live key of the node whose text is `text`.
  const auto key_of = [&engine](std::string_view text) {
    const DocView view = engine.db().View();
    for (NodeId key : engine.db().MergedOrder()) {
      if (view.TextOf(key) == text) return key;
    }
    ADD_FAILURE() << "no node with text " << text;
    return NodeId{0};
  };
  // The schedule hits every mutation kind: root append/prepend, nested
  // insert, delete of base and overlay nodes, and mid-schedule flushes
  // (so later steps mutate an already-respaced base). It opens with the
  // first insert into the dense document under a non-root parent (named
  // by its dense key): three leaf siblings m6..m8 that the first flush
  // makes base nodes. After it, m7 is deleted and m9 goes into the gap
  // that holds m7's key.
  std::vector<std::function<Mutation()>> schedule;
  schedule.push_back([&]() -> Mutation {
    EXPECT_FALSE(engine.db().doc().Spaced());
    return InsertSubtree{
        1, 0,
        "<department><name>m6</name><name>m7</name><name>m8</name>"
        "</department>"};
  });
  schedule.push_back(
      [&] { return append("<employee><name>m1</name></employee>"); });
  schedule.push_back([&]() -> Mutation {
    return InsertSubtree{0, 0, "<department><name>m2</name></department>"};
  });
  schedule.push_back([&]() -> Mutation {
    return DeleteSubtree{engine.db().MergedOrder().back()};
  });
  schedule.push_back([&] {
    return append(
        "<manager><employee><name>m3</name></employee>"
        "<department><name>m4</name></department></manager>");
  });
  schedule.push_back([&]() -> Mutation { return FlushDifferential{}; });
  schedule.push_back([&]() -> Mutation { return DeleteSubtree{key_of("m7")}; });
  schedule.push_back([&]() -> Mutation {
    const std::vector<NodeId> order = engine.db().MergedOrder();
    const auto m6 = std::find(order.begin(), order.end(), key_of("m6"));
    return InsertSubtree{*(m6 - 1), 1, "<name>m9</name>"};  // m6's parent
  });
  schedule.push_back([&]() -> Mutation {
    return DeleteSubtree{engine.db().MergedOrder().back()};
  });
  schedule.push_back([&]() -> Mutation {
    return InsertSubtree{engine.db().doc().KeyOfSlot(1), 0, "<name>m5</name>"};
  });
  schedule.push_back([&]() -> Mutation { return FlushDifferential{}; });

  for (size_t step = 0; step < schedule.size(); ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    Result<MutationResult> applied = engine.Apply(schedule[step]());
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    // Reload-from-scratch oracle: serialize the live merged view, reparse,
    // and demand a byte-identical round trip.
    Result<Document> merged = engine.db().MaterializeMerged();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    const std::string merged_xml = SerializeXml(merged.value());
    Result<Document> reparsed = ParseXml(merged_xml);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    Database oracle = Database::Open(std::move(reparsed).value(), "oracle");
    ASSERT_EQ(SerializeXml(oracle.doc()), merged_xml);
    ASSERT_EQ(oracle.LiveNodeCount(), engine.db().LiveNodeCount());

    // Live keys → pre-order ranks; the oracle's dense keys ARE its ranks.
    const std::vector<NodeId> order = engine.db().MergedOrder();
    std::unordered_map<NodeId, NodeId> rank;
    rank.reserve(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      rank.emplace(order[i], static_cast<NodeId>(i));
    }

    for (const BenchQuery& query : PaperWorkload()) {
      if (query.dataset != "Pers") continue;
      SCOPED_TRACE(query.id);
      auto expected =
          std::move(NaiveMatch(oracle.doc(), query.pattern)).value();

      for (OptimizerKind kind : kAllOptimizerKinds) {
        SCOPED_TRACE(OptimizerKindName(kind));
        QueryOptions options;
        options.optimizer = kind;
        Result<QueryResult> result = engine.Query(query.pattern, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result.value().stats.result_rows, expected.size());

        std::vector<std::vector<NodeId>> rows =
            result.value().tuples.Canonical();
        for (std::vector<NodeId>& row : rows) {
          for (NodeId& key : row) {
            const auto it = rank.find(key);
            ASSERT_NE(it, rank.end()) << "result key not in merged order";
            key = it->second;
          }
        }
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(rows, expected);
      }
    }
  }

  // The gap insert took a fresh key: m9 is live and the deleted m7 stayed
  // deleted through the final flush. (Routing m9's key to m7's base slot
  // would keep the tree shape, so only the texts tell.)
  const std::string final_xml = SerializeXml(engine.db().doc());
  EXPECT_NE(final_xml.find("<name>m9</name>"), std::string::npos);
  EXPECT_EQ(final_xml.find("<name>m7</name>"), std::string::npos);

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0u);
}

TEST(DifferentialTest, MbenchOptimizersMatchOracle) {
  for (uint64_t seed : {23u, 47u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    MbenchGenConfig config;
    config.target_nodes = 1200;
    config.seed = seed;
    Database db = Database::Open(GenerateMbench(config).value());
    RunDifferential(db, "Mbench");
  }
}

}  // namespace
}  // namespace sjos
