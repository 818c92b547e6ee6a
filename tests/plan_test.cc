#include <gtest/gtest.h>

#include "estimate/exact_estimator.h"
#include "plan/plan.h"
#include "plan/plan_printer.h"
#include "plan/plan_props.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/parser.h"

namespace sjos {
namespace {

Pattern Chain() { return std::move(ParsePattern("a[//b[/c]]")).value(); }

/// Fully pipelined: (a STD b) STD c — output ordered by c... actually we
/// build (scan(a) JOIN scan(b)) ordered by b, then JOIN scan(c).
PhysicalPlan PipelinedChainPlan() {
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  int ab = plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b);
  int c = plan.AddIndexScan(2);
  int abc = plan.AddJoin(PlanOp::kStackTreeAnc, 1, 2, Axis::kChild, ab, c);
  plan.SetRoot(abc);
  return plan;
}

/// Blocking: joins a//b ordered by a, then must sort by b before b/c.
PhysicalPlan BlockingChainPlan() {
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  int ab = plan.AddJoin(PlanOp::kStackTreeAnc, 0, 1, Axis::kDescendant, a, b);
  int sorted = plan.AddSort(1, ab);
  int c = plan.AddIndexScan(2);
  int abc = plan.AddJoin(PlanOp::kStackTreeDesc, 1, 2, Axis::kChild, sorted, c);
  plan.SetRoot(abc);
  return plan;
}

TEST(PlanTest, ValidPlansPass) {
  Pattern pattern = Chain();
  EXPECT_TRUE(ValidatePlan(PipelinedChainPlan(), pattern).ok());
  EXPECT_TRUE(ValidatePlan(BlockingChainPlan(), pattern).ok());
}

TEST(PlanTest, RejectsMisorderedJoinInput) {
  Pattern pattern = Chain();
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  // Output ordered by a, but next join needs order by b: invalid without
  // a sort.
  int ab = plan.AddJoin(PlanOp::kStackTreeAnc, 0, 1, Axis::kDescendant, a, b);
  int c = plan.AddIndexScan(2);
  int abc = plan.AddJoin(PlanOp::kStackTreeDesc, 1, 2, Axis::kChild, ab, c);
  plan.SetRoot(abc);
  EXPECT_FALSE(ValidatePlan(plan, pattern).ok());
}

TEST(PlanTest, RejectsIncompletePlan) {
  Pattern pattern = Chain();
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  int ab = plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b);
  plan.SetRoot(ab);
  EXPECT_FALSE(ValidatePlan(plan, pattern).ok());
}

TEST(PlanTest, RejectsDuplicateScan) {
  Pattern pattern = std::move(ParsePattern("a[//b]")).value();
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(0);  // duplicate
  int ab = plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant, a, b);
  plan.SetRoot(ab);
  EXPECT_FALSE(ValidatePlan(plan, pattern).ok());
}

TEST(PlanTest, RejectsNonPatternEdgeJoin) {
  Pattern pattern = std::move(ParsePattern("a[//b][//c]")).value();
  PhysicalPlan plan;
  int b = plan.AddIndexScan(1);
  int c = plan.AddIndexScan(2);
  // (b, c) is not an edge of the pattern.
  int bc = plan.AddJoin(PlanOp::kStackTreeDesc, 1, 2, Axis::kDescendant, b, c);
  plan.SetRoot(bc);
  EXPECT_FALSE(ValidatePlan(plan, pattern).ok());
}

TEST(PlanTest, RejectsWrongAxis) {
  Pattern pattern = std::move(ParsePattern("a[//b]")).value();
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  int b = plan.AddIndexScan(1);
  int ab = plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kChild, a, b);
  plan.SetRoot(ab);
  EXPECT_FALSE(ValidatePlan(plan, pattern).ok());
}

TEST(PlanTest, RejectsEmptyPlan) {
  Pattern pattern = Chain();
  PhysicalPlan plan;
  EXPECT_FALSE(ValidatePlan(plan, pattern).ok());
}

TEST(PlanPropsTest, ClassifiesPipelinedAndBlocking) {
  Database db = Database::Open(
      std::move(ParseXml("<a><b><c/></b><b><c/></b></a>")).value());
  ExactEstimator est(db.doc(), db.index());
  Pattern pattern = Chain();
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
  CostModel cm;

  PlanProps pipelined =
      std::move(ComputePlanProps(PipelinedChainPlan(), pattern, pe, cm))
          .value();
  EXPECT_TRUE(pipelined.fully_pipelined);
  EXPECT_EQ(pipelined.num_sorts, 0u);
  EXPECT_EQ(pipelined.num_joins, 2u);

  PlanProps blocking =
      std::move(ComputePlanProps(BlockingChainPlan(), pattern, pe, cm)).value();
  EXPECT_FALSE(blocking.fully_pipelined);
  EXPECT_EQ(blocking.num_sorts, 1u);
  EXPECT_GT(blocking.total_cost, 0.0);
}

TEST(PlanPropsTest, CostAccumulatesOverOperators) {
  Database db = Database::Open(
      std::move(ParseXml("<a><b><c/></b><b><c/></b></a>")).value());
  ExactEstimator est(db.doc(), db.index());
  Pattern pattern = Chain();
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
  CostModel cm;
  PlanProps blocking =
      std::move(ComputePlanProps(BlockingChainPlan(), pattern, pe, cm)).value();
  PlanProps pipelined =
      std::move(ComputePlanProps(PipelinedChainPlan(), pattern, pe, cm))
          .value();
  // The blocking plan pays an extra sort plus the dearer STA join.
  EXPECT_GT(blocking.total_cost, pipelined.total_cost);
}

TEST(PlanPrinterTest, ShowsOperatorsAndTags) {
  Pattern pattern = Chain();
  std::string text = PrintPlan(PipelinedChainPlan(), pattern);
  EXPECT_NE(text.find("IndexScan #0(a)"), std::string::npos);
  EXPECT_NE(text.find("StackTreeDesc"), std::string::npos);
  EXPECT_NE(text.find("StackTreeAnc"), std::string::npos);
}

TEST(PlanPrinterTest, SignatureIsCompact) {
  Pattern pattern = Chain();
  EXPECT_EQ(PlanSignature(PipelinedChainPlan(), pattern),
            "((a#0 STD b#1) STA c#2)");
  std::string sig = PlanSignature(BlockingChainPlan(), pattern);
  EXPECT_NE(sig.find("sort_b"), std::string::npos);
}

}  // namespace
}  // namespace sjos
