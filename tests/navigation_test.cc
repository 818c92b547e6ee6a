// Subtree navigation — the access path for unindexed pattern nodes (the
// paper's first future-work item: "cases where every node predicate is not
// evaluated using an index"). Covers the operator itself, move generation
// (necessity-only by default), the optimizers end-to-end, and plan
// validation rules.

#include <gtest/gtest.h>

#include <string>

#include "core/move_gen.h"
#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_printer.h"
#include "plan/plan_props.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

Database Db(std::string_view xml) {
  return Database::Open(std::move(ParseXml(xml)).value());
}

Pattern Pat(std::string_view text) {
  return std::move(ParsePattern(text)).value();
}

TEST(NavigationParserTest, QuestionMarkMarksUnindexed) {
  Pattern p = Pat("manager[//employee?[/name]]");
  EXPECT_TRUE(p.node(0).indexed);
  EXPECT_FALSE(p.node(1).indexed);
  EXPECT_TRUE(p.node(2).indexed);
  EXPECT_EQ(p.ToString(), "manager[//employee?[/name]]");
}

TEST(NavigationParserTest, UnindexedRootRejected) {
  EXPECT_FALSE(ParsePattern("manager?[//employee]").ok());
}

/// IndexScan(anchor) -> Navigate(anchor, target) over a two-node pattern.
PhysicalPlan NavigatePlan(Axis axis) {
  PhysicalPlan plan;
  plan.SetRoot(plan.AddNavigate(0, 1, axis, plan.AddIndexScan(0)));
  return plan;
}

TEST(NavigateOperatorTest, ExtendsTuplesWithinSubtrees) {
  Database db = Db("<a><b><c/><c/></b><b><c/></b><c/></a>");
  Pattern p = Pat("b[//c]");
  for (size_t batch_rows : {size_t{1}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecOptions options;
    options.batch_rows = batch_rows;
    Executor exec(db, options);
    ExecResult out =
        std::move(exec.Execute(p, NavigatePlan(Axis::kDescendant))).value();
    EXPECT_EQ(out.tuples.size(), 3u);  // 2 + 1 c's inside b subtrees
    EXPECT_GT(out.stats.nodes_navigated, 0u);
    EXPECT_EQ(out.stats.num_navigates, 1u);
    // Ordering preserved: rows stay in document order of b, column 0.
    ASSERT_EQ(out.tuples.slots()[0], 0);
    for (size_t r = 1; r < out.tuples.size(); ++r) {
      EXPECT_LE(out.tuples.At(r - 1, 0), out.tuples.At(r, 0)) << "row " << r;
    }
    EXPECT_EQ(out.tuples.Canonical(),
              std::move(NaiveMatch(db.doc(), p)).value());
  }
}

TEST(NavigateOperatorTest, ChildAxisAndPredicate) {
  Database db = Db("<a><b><c>x</c><d><c>y</c></d></b></a>");
  Executor exec(db);
  Pattern child_only = Pat("b[/c]");
  ExecResult direct =
      std::move(exec.Execute(child_only, NavigatePlan(Axis::kChild))).value();
  EXPECT_EQ(direct.tuples.size(), 1u);  // only the c directly under b

  Pattern with_pred = Pat("b[//c='y']");
  ExecResult pred =
      std::move(exec.Execute(with_pred, NavigatePlan(Axis::kDescendant)))
          .value();
  ASSERT_EQ(pred.tuples.size(), 1u);
  EXPECT_EQ(db.doc().TextOf(pred.tuples.At(0, 1)), "y");
}

TEST(NavigateOperatorTest, ErrorsOnBadSlots) {
  Database db = Db("<a><b/></a>");
  Pattern p = Pat("a[//b]");
  Executor exec(db);
  // The anchor is not bound by the input.
  PhysicalPlan unbound;
  unbound.SetRoot(
      unbound.AddNavigate(1, 0, Axis::kDescendant, unbound.AddIndexScan(0)));
  EXPECT_EQ(exec.Execute(p, unbound).status().code(),
            StatusCode::kInvalidArgument);
  // The target is already bound by the input.
  PhysicalPlan bound;
  bound.SetRoot(bound.AddNavigate(
      0, 1, Axis::kDescendant,
      bound.AddJoin(PlanOp::kStackTreeDesc, 0, 1, Axis::kDescendant,
                    bound.AddIndexScan(0), bound.AddIndexScan(1))));
  EXPECT_EQ(exec.Execute(p, bound).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NavigationMoveGenTest, JoinOnlySpaceWhenAllIndexed) {
  Database db = Db("<a><b><c/></b></a>");
  Pattern p = Pat("a[//b[/c]]");
  ExactEstimator est(db.doc(), db.index());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(p, db.doc(), est)).value();
  CostModel cm;
  MoveGenerator gen(p, pe, cm);
  std::vector<Move> moves;
  gen.Enumerate(OptStatus::Start(p), {}, &moves);
  for (const Move& m : moves) EXPECT_FALSE(m.navigate);
}

TEST(NavigationMoveGenTest, UnindexedEdgeOnlyNavigable) {
  Database db = Db("<a><b><c/></b></a>");
  Pattern p = Pat("a[//b?[/c]]");
  ExactEstimator est(db.doc(), db.index());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(p, db.doc(), est)).value();
  CostModel cm;
  MoveGenerator gen(p, pe, cm);
  std::vector<Move> moves;
  gen.Enumerate(OptStatus::Start(p), {}, &moves);
  // Edge (a,b): only navigation (b is an unindexed singleton).
  // Edge (b,c): nothing yet — b's side is an unindexed singleton, no
  // stream to join with and navigation anchors need streams too.
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_TRUE(moves[0].navigate);
  EXPECT_EQ(moves[0].edge_index, 0);
}

TEST(NavigationMoveGenTest, NavigationEverywhereFlagWidensSpace) {
  Database db = Db("<a><b><c/></b></a>");
  Pattern p = Pat("a[//b]");
  ExactEstimator est(db.doc(), db.index());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(p, db.doc(), est)).value();
  CostModel cm;
  MoveGenerator gen(p, pe, cm);
  std::vector<Move> base;
  gen.Enumerate(OptStatus::Start(p), {}, &base);
  MoveGenOptions wide;
  wide.navigation_everywhere = true;
  std::vector<Move> widened;
  gen.Enumerate(OptStatus::Start(p), wide, &widened);
  EXPECT_EQ(base.size(), 2u);     // STD + STA
  EXPECT_EQ(widened.size(), 3u);  // + navigation
}

TEST(NavigationPlanTest, ValidationRules) {
  Pattern p = Pat("a[//b?]");
  // IndexScan of the unindexed node is rejected.
  {
    PhysicalPlan plan;
    int a = plan.AddIndexScan(0);
    int b = plan.AddIndexScan(1);
    plan.SetRoot(plan.AddJoin(PlanOp::kStackTreeDesc, 0, 1,
                              Axis::kDescendant, a, b));
    EXPECT_FALSE(ValidatePlan(plan, p).ok());
  }
  // Navigation reaches it.
  {
    PhysicalPlan plan;
    int a = plan.AddIndexScan(0);
    plan.SetRoot(plan.AddNavigate(0, 1, Axis::kDescendant, a));
    EXPECT_TRUE(ValidatePlan(plan, p).ok());
  }
  // Navigating a node covered twice is rejected.
  {
    Pattern indexed = Pat("a[//b]");
    PhysicalPlan plan;
    int a = plan.AddIndexScan(0);
    int nav = plan.AddNavigate(0, 1, Axis::kDescendant, a);
    int nav2 = plan.AddNavigate(0, 1, Axis::kDescendant, nav);
    plan.SetRoot(nav2);
    EXPECT_FALSE(ValidatePlan(plan, indexed).ok());
  }
}

TEST(NavigationPlanTest, NavigationIsPipelined) {
  Database db = Db("<a><b><c/></b><b/></a>");
  Pattern p = Pat("a[//b?]");
  ExactEstimator est(db.doc(), db.index());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(p, db.doc(), est)).value();
  CostModel cm;
  PhysicalPlan plan;
  int a = plan.AddIndexScan(0);
  plan.SetRoot(plan.AddNavigate(0, 1, Axis::kDescendant, a));
  PlanProps props = std::move(ComputePlanProps(plan, p, pe, cm)).value();
  EXPECT_TRUE(props.fully_pipelined);
  EXPECT_GT(props.total_cost, 0.0);
}

class NavigationOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PersGenConfig config;
    config.target_nodes = 800;
    db_ = std::make_unique<Database>(Database::Open(GeneratePers(config).value()));
    est_ = std::make_unique<ExactEstimator>(db_->doc(), db_->index());
  }

  void CheckQuery(const char* text) {
    Pattern pattern = Pat(text);
    PatternEstimates pe =
        std::move(PatternEstimates::Make(pattern, db_->doc(), *est_)).value();
    OptimizeContext ctx{&pattern, &pe, &cm_};
    // Matches are independent of index availability: compare against the
    // same pattern with all nodes indexed via the oracle.
    auto expected = std::move(NaiveMatch(db_->doc(), pattern)).value();
    Executor exec(*db_);
    for (auto* make :
         {+[]() { return MakeDpOptimizer(); }, +[]() { return MakeDppOptimizer(true); },
          +[]() { return MakeDpapLdOptimizer(); }}) {
      auto optimizer = make();
      Result<OptimizeResult> r = optimizer->Optimize(ctx);
      ASSERT_TRUE(r.ok()) << text << " / " << optimizer->name() << ": "
                          << r.status().ToString();
      ExecResult result =
          std::move(exec.Execute(pattern, r.value().plan)).value();
      EXPECT_EQ(result.tuples.Canonical(), expected)
          << text << " / " << optimizer->name();
    }
    auto eb = MakeDpapEbOptimizer(static_cast<uint32_t>(pattern.NumEdges()));
    Result<OptimizeResult> r = eb->Optimize(ctx);
    ASSERT_TRUE(r.ok()) << text;
    ExecResult result = std::move(exec.Execute(pattern, r.value().plan)).value();
    EXPECT_EQ(result.tuples.Canonical(), expected) << text << " / DPAP-EB";
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ExactEstimator> est_;
  CostModel cm_;
};

TEST_F(NavigationOptimizerTest, UnindexedLeaf) {
  CheckQuery("manager[//employee[/name?]]");
}

TEST_F(NavigationOptimizerTest, UnindexedInteriorNode) {
  CheckQuery("manager[//employee?[/name]]");
}

TEST_F(NavigationOptimizerTest, MultipleUnindexedNodes) {
  CheckQuery("manager[//employee?[/name?]][//department?]");
}

TEST_F(NavigationOptimizerTest, UnindexedWithPredicate) {
  CheckQuery("manager[//employee[/name?='bo']]");
}

TEST_F(NavigationOptimizerTest, NavigationChosenWhereItWins) {
  // The unindexed variant's plan must contain a Navigate operator, and
  // both variants return the same matches. Note the spaces are NOT
  // nested: dropping name's index removes its join moves but adds
  // navigation, which here is actually *cheaper* than joining against
  // the big name candidate list — the observation that motivates offering
  // navigation as a general access path (MoveGenOptions::
  // navigation_everywhere).
  Pattern indexed = Pat("manager[//employee[/name]]");
  Pattern unindexed = Pat("manager[//employee[/name?]]");
  PatternEstimates pe_i =
      std::move(PatternEstimates::Make(indexed, db_->doc(), *est_)).value();
  PatternEstimates pe_u =
      std::move(PatternEstimates::Make(unindexed, db_->doc(), *est_)).value();
  OptimizeContext ctx_i{&indexed, &pe_i, &cm_};
  OptimizeContext ctx_u{&unindexed, &pe_u, &cm_};
  OptimizeResult best_i = std::move(MakeDppOptimizer()->Optimize(ctx_i)).value();
  OptimizeResult best_u = std::move(MakeDppOptimizer()->Optimize(ctx_u)).value();
  std::string signature = PlanSignature(best_u.plan, unindexed);
  EXPECT_NE(signature.find("NAV"), std::string::npos) << signature;

  Executor exec(*db_);
  ExecResult ri = std::move(exec.Execute(indexed, best_i.plan)).value();
  ExecResult ru = std::move(exec.Execute(unindexed, best_u.plan)).value();
  EXPECT_EQ(ri.tuples.Canonical(), ru.tuples.Canonical());
  EXPECT_GT(ru.stats.num_navigates, 0u);
}

TEST_F(NavigationOptimizerTest, FpReportsUnsupported) {
  Pattern pattern = Pat("manager[//employee?]");
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db_->doc(), *est_)).value();
  OptimizeContext ctx{&pattern, &pe, &cm_};
  Result<OptimizeResult> r = MakeFpOptimizer()->Optimize(ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace sjos
