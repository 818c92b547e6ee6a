#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_props.h"
#include "plan/random_plans.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

struct QueryFixture {
  Database db;
  Pattern pattern;
  ExactEstimator est;
  PatternEstimates pe;
  CostModel cm;

  QueryFixture(Database database, std::string_view pattern_text)
      : db(std::move(database)),
        pattern(std::move(ParsePattern(pattern_text)).value()),
        est(db.doc(), db.index()),
        pe(std::move(PatternEstimates::Make(pattern, db.doc(), est)).value()),
        cm() {}

  OptimizeContext ctx() const { return {&pattern, &pe, &cm, {}}; }
};

QueryFixture PersSetup(std::string_view pattern_text, uint64_t nodes = 1500) {
  PersGenConfig config;
  config.target_nodes = nodes;
  return QueryFixture(Database::Open(GeneratePers(config).value()),
                      pattern_text);
}

TEST(DpOptimizerTest, ProducesValidPlan) {
  QueryFixture s = PersSetup("manager[//employee[/name]]");
  Result<OptimizeResult> r = MakeDpOptimizer()->Optimize(s.ctx());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ValidatePlan(r.value().plan, s.pattern).ok());
  EXPECT_GT(r.value().stats.plans_considered, 0u);
  EXPECT_GT(r.value().modelled_cost, 0.0);
}

TEST(DpOptimizerTest, PlanExecutesCorrectly) {
  QueryFixture s =
      PersSetup("manager[//employee[/name]][//department[/name]]", 800);
  OptimizeResult r = std::move(MakeDpOptimizer()->Optimize(s.ctx())).value();
  Executor exec(s.db);
  ExecResult result = std::move(exec.Execute(s.pattern, r.plan)).value();
  auto expected = std::move(NaiveMatch(s.db.doc(), s.pattern)).value();
  EXPECT_EQ(result.tuples.Canonical(), expected);
}

TEST(DpOptimizerTest, BeatsOrTiesEveryRandomPlan) {
  QueryFixture s = PersSetup(
      "manager[//employee[/name]][//manager[/department[/name]]]");
  OptimizeResult r = std::move(MakeDpOptimizer()->Optimize(s.ctx())).value();
  Rng rng(55);
  for (int i = 0; i < 60; ++i) {
    PhysicalPlan random = std::move(RandomPlan(s.pattern, &rng)).value();
    PlanProps props =
        std::move(ComputePlanProps(random, s.pattern, s.pe, s.cm)).value();
    EXPECT_GE(props.total_cost + 1e-6, r.modelled_cost) << "plan " << i;
  }
}

TEST(DpOptimizerTest, SingleEdgePattern) {
  QueryFixture s = PersSetup("manager[//employee]");
  OptimizeResult r = std::move(MakeDpOptimizer()->Optimize(s.ctx())).value();
  EXPECT_TRUE(ValidatePlan(r.plan, s.pattern).ok());
  // One STD join, no sorts: cheapest possible single join.
  PlanProps props =
      std::move(ComputePlanProps(r.plan, s.pattern, s.pe, s.cm)).value();
  EXPECT_TRUE(props.fully_pipelined);
  EXPECT_EQ(props.num_joins, 1u);
}

TEST(DpOptimizerTest, HonorsExplicitOrderBy) {
  QueryFixture by_name = PersSetup("manager[//employee[/name]]!name");
  OptimizeResult r =
      std::move(MakeDpOptimizer()->Optimize(by_name.ctx())).value();
  PlanProps props = std::move(ComputePlanProps(r.plan, by_name.pattern,
                                               by_name.pe, by_name.cm))
                        .value();
  EXPECT_EQ(props.ops[static_cast<size_t>(r.plan.root())].ordered_by, 2);
}

TEST(DpOptimizerTest, RejectsInvalidPattern) {
  QueryFixture s = PersSetup("manager[//employee]");
  Pattern empty;
  ExactEstimator est(s.db.doc(), s.db.index());
  OptimizeContext ctx{&empty, &s.pe, &s.cm, {}};
  EXPECT_FALSE(MakeDpOptimizer()->Optimize(ctx).ok());
}

TEST(DpOptimizerTest, NameIsDp) {
  EXPECT_STREQ(MakeDpOptimizer()->name(), "DP");
}

}  // namespace
}  // namespace sjos
