// The streaming operator pipeline (exec/operator.h): agreement with the
// NaiveMatch and TwigJoin oracles and byte-parity across batch sizes
// including one-row batches, the memory-boundedness guarantee for
// pipelined (Sort-free) plans, per-operator EXPLAIN ANALYZE counters,
// row-budget and sink-error propagation, and batch-size resolution
// precedence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "exec/operator.h"
#include "exec/operators.h"
#include "exec/stack_tree.h"
#include "exec/twig_join.h"
#include "plan/plan_printer.h"
#include "plan/random_plans.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/generators/tree_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

Database Db(std::string_view xml) {
  return Database::Open(std::move(ParseXml(xml)).value());
}

Pattern Pat(std::string_view text) {
  return std::move(ParsePattern(text)).value();
}

void ExpectIdenticalTuples(const TupleSet& a, const TupleSet& b) {
  ASSERT_EQ(a.slots(), b.slots());
  ASSERT_EQ(a.size(), b.size());
  if (a.size() == 0) return;
  const size_t n = a.size() * a.arity();
  EXPECT_TRUE(std::equal(a.Row(0), a.Row(0) + n, b.Row(0)))
      << "tuple payload differs";
}

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
}

/// Wide document whose a-b join output (~1600 rows) dwarfs any streaming
/// batch: 400 flat <a><b/>x4</a> records plus one nested record so the
/// full a//b//c chain is non-empty.
std::string WideDoc() {
  std::string xml = "<r>";
  for (int i = 0; i < 400; ++i) xml += "<a><b/><b/><b/><b/></a>";
  xml += "<a><b><c/></b></a></r>";
  return xml;
}

/// Sort-free chain (a STD b) STD c: Stack-Tree-Desc output is ordered by
/// its descendant node, which is exactly the next join's ancestor input
/// order — the fully pipelined shape the cost model's f_out = 0 describes.
PhysicalPlan SortFreeChainPlan() {
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  int ab =
      plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b);
  int c = plan.AddIndexScan(2);
  plan.SetRoot(
      plan.AddJoin(PlanOp::kStackTreeDesc, 1, 2, Axis::kDescendant, ab, c));
  return plan;
}

TEST(StreamingExecTest, MatchesOraclesAcrossBatchSizes) {
  TreeGenConfig config;
  config.target_nodes = 600;
  config.max_depth = 9;
  config.num_tags = 3;
  config.seed = 44;
  Database db = Database::Open(GenerateTree(config).value());
  Pattern pattern = Pat("t0[//t1[/t2]][//t2]");
  auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
  ASSERT_EQ(std::move(TwigJoin(db, pattern)).value().Canonical(), expected);

  ExecOptions ref_options;
  ref_options.batch_rows = 1024;
  Executor ref_exec(db, ref_options);

  Rng rng(45);
  for (int i = 0; i < 8; ++i) {
    PhysicalPlan plan = std::move(RandomPlan(pattern, &rng)).value();
    ExecResult reference = std::move(ref_exec.Execute(pattern, plan)).value();
    ASSERT_EQ(reference.tuples.Canonical(), expected) << "plan " << i;
    for (size_t batch_rows : {size_t{1}, size_t{2}, size_t{7}}) {
      SCOPED_TRACE("plan " + std::to_string(i) + " batch_rows=" +
                   std::to_string(batch_rows));
      ExecOptions options;
      options.batch_rows = batch_rows;
      Executor exec(db, options);
      ExecResult result = std::move(exec.Execute(pattern, plan)).value();
      ExpectIdenticalTuples(reference.tuples, result.tuples);
      ExpectIdenticalCounters(reference.stats, result.stats);
    }
  }
}

TEST(StreamingExecTest, PipelinedPlanPeakIsBounded) {
  Database db = Db(WideDoc());
  Pattern pattern = Pat("a[//b[//c]]");
  PhysicalPlan plan = SortFreeChainPlan();
  const size_t expected_rows =
      std::move(NaiveMatch(db.doc(), pattern)).value().size();

  // The working set stays within O(batch x plan depth) even though the
  // a-b join emits ~1600 rows. The operator tree is 3 levels deep (join -
  // join - scan); 4x covers the in-flight batch per level plus join
  // group/stage state.
  constexpr size_t kBatch = 64;
  constexpr uint64_t kDepth = 3;
  ExecOptions options;
  options.batch_rows = kBatch;
  Executor exec(db, options);
  uint64_t sunk_rows = 0;
  std::vector<OpStats> op_stats;
  ExecStats stats =
      std::move(exec.ExecuteStreaming(pattern, plan,
                                      [&](const ColumnBatch& batch) {
                                        sunk_rows += batch.size();
                                        return Status();
                                      },
                                      &op_stats))
          .value();
  const uint64_t ab_rows = op_stats[2].rows;  // plan node 2 = (a STD b)
  ASSERT_GE(ab_rows, 1600u);
  EXPECT_EQ(sunk_rows, expected_rows);
  EXPECT_EQ(stats.result_rows, expected_rows);
  EXPECT_LE(stats.peak_live_rows, 4 * kBatch * kDepth);
  EXPECT_LT(stats.peak_live_rows, ab_rows);
}

TEST(StreamingExecTest, SortMakesThePlanBlocking) {
  // The same chain with a redundant Sort over the a-b join must buffer that
  // join's entire output: peak jumps to at least the intermediate size.
  Database db = Db(WideDoc());
  Pattern pattern = Pat("a[//b[//c]]");
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  int ab =
      plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b);
  int sorted = plan.AddSort(1, ab);
  int c = plan.AddIndexScan(2);
  plan.SetRoot(plan.AddJoin(PlanOp::kStackTreeDesc, 1, 2, Axis::kDescendant,
                            sorted, c));

  ExecOptions options;
  options.batch_rows = 64;
  Executor exec(db, options);
  std::vector<OpStats> op_stats;
  ExecStats stats =
      std::move(exec.ExecuteStreaming(
                    pattern, plan,
                    [](const ColumnBatch&) { return Status(); }, &op_stats))
          .value();
  const uint64_t ab_rows = op_stats[static_cast<size_t>(ab)].rows;
  ASSERT_GE(ab_rows, 1600u);
  EXPECT_GE(stats.peak_live_rows, ab_rows);
  EXPECT_GE(op_stats[static_cast<size_t>(sorted)].peak_live_rows, ab_rows);
}

TEST(StreamingExecTest, ExplainAnalyzeRendersOperatorCounters) {
  Database db = Db("<a><b><c/><b><c/></b></b><b/></a>");
  Pattern pattern = Pat("a[//b[//c]]");
  PhysicalPlan plan = SortFreeChainPlan();
  ExecOptions options;
  options.batch_rows = 2;
  Executor exec(db, options);
  ExecResult result = std::move(exec.Execute(pattern, plan)).value();
  ASSERT_EQ(result.op_stats.size(), plan.NumOps());

  std::string text = PrintPlanAnalyze(plan, pattern, result.op_stats);
  EXPECT_NE(text.find("StackTreeDesc"), std::string::npos) << text;
  EXPECT_NE(text.find("IndexScan"), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;
  EXPECT_NE(text.find("batches="), std::string::npos) << text;
  EXPECT_NE(text.find("peak-live="), std::string::npos) << text;

  // The root line carries the measured result row count.
  const std::string root_counter =
      "rows=" + std::to_string(result.stats.result_rows);
  EXPECT_NE(text.find(root_counter), std::string::npos) << text;
  // Scans are pre-Open work for the leaf pull: every operator served at
  // least one batch.
  for (const OpStats& os : result.op_stats) EXPECT_GE(os.batches, 1u);
}

TEST(StreamingExecTest, ExplainAnalyzeShowsEstimatesAndQError) {
  Database db = Db(WideDoc());
  Pattern pattern = Pat("a[//b[//c]]");
  PhysicalPlan plan = SortFreeChainPlan();
  // Annotate the two joins (plan nodes 2 and 4) as the optimizers do.
  plan.SetEstRows(2, 800.0);
  plan.SetEstRows(4, 10.0);

  Executor exec(db);
  ExecResult result = std::move(exec.Execute(pattern, plan)).value();
  EXPECT_GE(result.stats.max_q_error, 1.0);

  std::string text = PrintPlanAnalyze(plan, pattern, result.op_stats);
  EXPECT_NE(text.find("est=800"), std::string::npos) << text;
  EXPECT_NE(text.find("est=10"), std::string::npos) << text;
  EXPECT_NE(text.find(" q="), std::string::npos) << text;
  EXPECT_NE(text.find("max join q-error:"), std::string::npos) << text;

  // Nodes that never executed (batches == 0) render `-` for the average
  // and the q-error instead of dividing by zero.
  std::vector<OpStats> idle_stats(plan.NumOps());
  std::string idle = PrintPlanAnalyze(plan, pattern, idle_stats);
  EXPECT_NE(idle.find("avg=-"), std::string::npos) << idle;
  EXPECT_NE(idle.find("q=-"), std::string::npos) << idle;
  EXPECT_EQ(idle.find("max join q-error:"), std::string::npos) << idle;
}

TEST(StreamingExecTest, SelfTimesAreNonNegativeAndSumToTheRootTime) {
  TreeGenConfig config;
  config.target_nodes = 3000;
  config.max_depth = 9;
  config.num_tags = 3;
  config.seed = 46;
  Database db = Database::Open(GenerateTree(config).value());
  Pattern pattern = Pat("t0[//t1[/t2]][//t2]");
  Rng rng(47);
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE(testing::Message() << "plan " << i);
    PhysicalPlan plan = std::move(RandomPlan(pattern, &rng)).value();
    ExecOptions options;
    options.batch_rows = i % 2 == 0 ? 7 : 1024;
    Executor exec(db, options);
    ExecResult result = std::move(exec.Execute(pattern, plan)).value();
    double self_sum = 0.0;
    for (const OpStats& os : result.op_stats) {
      EXPECT_GE(os.self_ms, 0.0);
      EXPECT_LE(os.self_ms, os.time_ms);
      self_sum += os.self_ms;
    }
    // Each operator's time counts once as self time: the tree's self times
    // add up to the root's inclusive time.
    const double root_ms =
        result.op_stats[static_cast<size_t>(plan.root())].time_ms;
    EXPECT_GT(root_ms, 0.0);
    EXPECT_NEAR(self_sum, root_ms, 1e-9 * (1.0 + root_ms));
    const std::string text =
        PrintPlanAnalyze(plan, pattern, result.op_stats);
    EXPECT_NE(text.find(" self="), std::string::npos) << text;
  }
}

TEST(StreamingExecTest, RowBudgetErrorIsBatchSizeInvariant) {
  Database db = Db(WideDoc());
  Pattern pattern = Pat("a[//b[//c]]");
  PhysicalPlan plan = SortFreeChainPlan();

  // The whole-input kernel's error is the reference message.
  JoinStats join_stats;
  Result<ColumnBatch> kernel = StackTreeJoin(
      db.View(), ScanCandidateColumns(db, pattern, 0), 0,
      ScanCandidateColumns(db, pattern, 1), 0, Axis::kDescendant,
      /*output_by_ancestor=*/false, &join_stats, /*max_output_rows=*/100);
  ASSERT_FALSE(kernel.ok());
  ASSERT_EQ(kernel.status().code(), StatusCode::kOutOfRange);

  for (size_t batch_rows : {size_t{1}, size_t{16}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecOptions options;
    options.max_join_output_rows = 100;
    options.batch_rows = batch_rows;
    Executor exec(db, options);
    Result<ExecResult> streaming = exec.Execute(pattern, plan);
    ASSERT_FALSE(streaming.ok());
    EXPECT_EQ(streaming.status().ToString(), kernel.status().ToString());
  }
}

TEST(StreamingExecTest, SinkErrorAbortsExecution) {
  // a//b yields ~1601 rows, so an 8-row batch size guarantees the sink is
  // offered many batches before the pipeline would finish naturally.
  Database db = Db(WideDoc());
  Pattern pattern = Pat("a[//b]");
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  plan.SetRoot(
      plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b));
  ExecOptions options;
  options.batch_rows = 8;
  Executor exec(db, options);
  int batches_seen = 0;
  Result<ExecStats> result = exec.ExecuteStreaming(
      pattern, plan, [&](const ColumnBatch&) {
        return ++batches_seen >= 2 ? Status::Internal("sink full")
                                   : Status();
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(batches_seen, 2);
}

TEST(StreamingExecTest, ExecuteRowsAreTheStreamedBatchesInOrder) {
  // Execute appends each root batch to its result as the batch arrives;
  // its rows must be exactly ExecuteStreaming's batches, concatenated in
  // the order the sink saw them. Chains of 1..6 nodes cover arity 1..6
  // (300 to 3400 rows, so 1024-row batches come several to a result), and
  // a tag the document lacks gives zero rows.
  TreeGenConfig config;
  config.target_nodes = 500;
  config.max_depth = 12;
  config.num_tags = 2;
  config.seed = 46;
  Database db = Database::Open(GenerateTree(config).value());
  std::vector<std::string> patterns;
  std::string chain = "t0";
  for (int arity = 1; arity <= 6; ++arity) {
    std::string text = chain;
    for (int i = 1; i < arity; ++i) text += "]";
    patterns.push_back(text);
    chain += "[//t" + std::to_string(arity % 2);
  }
  patterns.push_back("t0[//t1[//absent]]");

  Rng rng(47);
  for (const std::string& text : patterns) {
    Pattern pattern = Pat(text);
    PhysicalPlan plan = std::move(RandomPlan(pattern, &rng)).value();
    for (size_t batch_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE(text + " batch_rows=" + std::to_string(batch_rows));
      ExecOptions options;
      options.batch_rows = batch_rows;
      Executor exec(db, options);
      ExecResult result = std::move(exec.Execute(pattern, plan)).value();
      ASSERT_EQ(result.tuples.arity(), pattern.NumNodes());
      std::vector<NodeId> streamed;
      size_t batches = 0;
      Result<ExecStats> stats = exec.ExecuteStreaming(
          pattern, plan, [&](const ColumnBatch& batch) {
            EXPECT_EQ(batch.slots(), result.tuples.slots());
            EXPECT_LE(batch.size(), batch_rows);
            for (size_t r = 0; r < batch.size(); ++r) {
              for (size_t c = 0; c < batch.arity(); ++c) {
                streamed.push_back(batch.At(r, c));
              }
            }
            ++batches;
            return Status();
          });
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats.value().result_rows, result.stats.result_rows);
      ASSERT_EQ(streamed.size(), result.tuples.size() * pattern.NumNodes());
      if (text.find("absent") != std::string::npos) {
        EXPECT_EQ(result.tuples.size(), 0u);
        EXPECT_EQ(batches, 0u);
        continue;
      }
      ASSERT_GT(result.tuples.size(), 0u);
      EXPECT_TRUE(std::equal(streamed.begin(), streamed.end(),
                             result.tuples.Row(0)))
          << "Execute's rows differ from the streamed batches";
    }
  }
}

TEST(StreamingExecTest, BatchSizeResolutionPrecedence) {
  Database db = Db(WideDoc());
  Pattern pattern = Pat("a[//b]");
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  plan.SetRoot(
      plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b));

  ASSERT_EQ(setenv("SJOS_EXEC_BATCH_ROWS", "7", 1), 0);
  // batch_rows = 0 defers to the environment: ~1601 output rows in
  // 7-row batches.
  {
    Executor exec(db);
    ExecResult result = std::move(exec.Execute(pattern, plan)).value();
    const OpStats& root = result.op_stats[static_cast<size_t>(plan.root())];
    ASSERT_GE(result.stats.result_rows, 1600u);
    EXPECT_GE(root.batches, result.stats.result_rows / 7);
  }
  // An explicit option wins over the environment: one big batch.
  {
    ExecOptions options;
    options.batch_rows = 1 << 20;
    Executor exec(db, options);
    ExecResult result = std::move(exec.Execute(pattern, plan)).value();
    const OpStats& root = result.op_stats[static_cast<size_t>(plan.root())];
    EXPECT_LE(root.batches, 2u);
  }
  ASSERT_EQ(unsetenv("SJOS_EXEC_BATCH_ROWS"), 0);
}

}  // namespace
}  // namespace sjos
