// The join row budget: the safety valve that lets benches execute
// deliberately terrible plans on huge documents without exhausting memory.

#include <gtest/gtest.h>

#include <string>

#include "exec/executor.h"
#include "exec/stack_tree.h"
#include "plan/random_plans.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

ColumnBatch Candidates(const Database& db, const char* tag,
                       PatternNodeId slot) {
  ColumnBatch set({slot});
  TagId id = db.doc().dict().Find(tag);
  for (NodeId n : db.index().Postings(id)) set.AppendRow(&n);
  set.set_ordered_by_slot(0);
  return set;
}

TEST(RowBudgetTest, JoinAbortsOverBudget) {
  PersGenConfig config;
  config.target_nodes = 2000;
  Database db = Database::Open(GeneratePers(config).value());
  ColumnBatch managers = Candidates(db, "manager", 0);
  ColumnBatch names = Candidates(db, "name", 1);
  // Unbudgeted: thousands of pairs.
  ColumnBatch full = std::move(StackTreeJoin(db.doc(), managers, 0, names, 0,
                                             Axis::kDescendant, false, nullptr,
                                             /*max_output_rows=*/0))
                         .value();
  ASSERT_GT(full.size(), 100u);
  // Budgeted below the output size: OutOfRange.
  Result<ColumnBatch> capped =
      StackTreeJoin(db.doc(), managers, 0, names, 0, Axis::kDescendant, false,
                    nullptr, /*max_output_rows=*/100);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);
  // Both algorithm variants honor the budget.
  Result<ColumnBatch> capped_anc =
      StackTreeJoin(db.doc(), managers, 0, names, 0, Axis::kDescendant, true,
                    nullptr, /*max_output_rows=*/100);
  ASSERT_FALSE(capped_anc.ok());
  EXPECT_EQ(capped_anc.status().code(), StatusCode::kOutOfRange);
}

TEST(RowBudgetTest, BudgetAboveOutputIsHarmless) {
  Database db = Database::Open(
      std::move(ParseXml("<a><b/><b/><b/></a>")).value());
  ColumnBatch a = Candidates(db, "a", 0);
  ColumnBatch b = Candidates(db, "b", 1);
  Result<ColumnBatch> out =
      StackTreeJoin(db.doc(), a, 0, b, 0, Axis::kDescendant, false, nullptr,
                    /*max_output_rows=*/3);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);
}

// The budget is exact: a join whose output equals the budget passes, one
// row more fails, in the whole-input kernel and in the streaming operator
// at every batch size, for both algorithm variants.
TEST(RowBudgetTest, BudgetIsExactForBothVariants) {
  PersGenConfig config;
  config.target_nodes = 4000;
  Database db = Database::Open(GeneratePers(config).value());
  ColumnBatch managers = Candidates(db, "manager", 0);
  ColumnBatch names = Candidates(db, "name", 1);
  Pattern pattern = std::move(ParsePattern("manager[//name]")).value();

  for (bool by_ancestor : {false, true}) {
    SCOPED_TRACE(by_ancestor ? "Anc" : "Desc");
    const uint64_t full_rows =
        std::move(StackTreeJoin(db.doc(), managers, 0, names, 0,
                                Axis::kDescendant, by_ancestor))
            .value()
            .size();
    ASSERT_GT(full_rows, 100u);

    Result<ColumnBatch> at_budget =
        StackTreeJoin(db.doc(), managers, 0, names, 0, Axis::kDescendant,
                      by_ancestor, nullptr, /*max_output_rows=*/full_rows);
    ASSERT_TRUE(at_budget.ok()) << at_budget.status().ToString();
    EXPECT_EQ(at_budget.value().size(), full_rows);
    Result<ColumnBatch> capped =
        StackTreeJoin(db.doc(), managers, 0, names, 0, Axis::kDescendant,
                      by_ancestor, nullptr, /*max_output_rows=*/full_rows - 1);
    ASSERT_FALSE(capped.ok());
    EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);

    PhysicalPlan plan;
    const int m = plan.AddIndexScan(0);
    const int n = plan.AddIndexScan(1);
    plan.SetRoot(plan.AddJoin(
        by_ancestor ? PlanOp::kStackTreeAnc : PlanOp::kStackTreeDesc, 0, 1,
        Axis::kDescendant, m, n));
    for (size_t batch_rows : {size_t{1}, size_t{1024}}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
      ExecOptions options;
      options.batch_rows = batch_rows;
      options.max_join_output_rows = full_rows;
      Result<ExecResult> fits = Executor(db, options).Execute(pattern, plan);
      ASSERT_TRUE(fits.ok()) << fits.status().ToString();
      EXPECT_EQ(fits.value().stats.result_rows, full_rows);
      options.max_join_output_rows = full_rows - 1;
      Result<ExecResult> over = Executor(db, options).Execute(pattern, plan);
      ASSERT_FALSE(over.ok());
      EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
    }
  }
}

TEST(RowBudgetTest, ExecutorPropagatesBudget) {
  PersGenConfig config;
  config.target_nodes = 2000;
  Database db = Database::Open(GeneratePers(config).value());
  Pattern pattern =
      std::move(ParsePattern("manager[//employee[/name]]")).value();
  Rng rng(3);
  PhysicalPlan plan = std::move(RandomPlan(pattern, &rng)).value();

  for (size_t batch_rows : {size_t{1}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecOptions unlimited_options;
    unlimited_options.batch_rows = batch_rows;
    Executor unlimited(db, unlimited_options);
    ExecResult full = std::move(unlimited.Execute(pattern, plan)).value();
    ASSERT_GT(full.stats.result_rows, 10u);

    ExecOptions options = unlimited_options;
    options.max_join_output_rows = 10;
    Executor budgeted(db, options);
    Result<ExecResult> capped = budgeted.Execute(pattern, plan);
    ASSERT_FALSE(capped.ok());
    EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);
  }
}

}  // namespace
}  // namespace sjos
