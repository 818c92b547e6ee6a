#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_props.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"

namespace sjos {
namespace {

struct QueryFixture {
  Database db;
  Pattern pattern;
  ExactEstimator est;
  PatternEstimates pe;
  CostModel cm;

  QueryFixture(Database database, Pattern p)
      : db(std::move(database)),
        pattern(std::move(p)),
        est(db.doc(), db.index()),
        pe(std::move(PatternEstimates::Make(pattern, db.doc(), est)).value()),
        cm() {}

  OptimizeContext ctx() const { return {&pattern, &pe, &cm, {}}; }
};

QueryFixture PersSetup(std::string_view pattern_text, uint64_t nodes = 1500) {
  PersGenConfig config;
  config.target_nodes = nodes;
  return QueryFixture(Database::Open(GeneratePers(config).value()),
               std::move(ParsePattern(pattern_text)).value());
}

const char* kRunningExample =
    "manager[//employee[/name]][//manager[/department[/name]]]";

TEST(FpOptimizerTest, PlansAreFullyPipelined) {
  // Theorem 3.1 in action: for every query shape, FP yields a valid plan
  // with zero sorts.
  for (const char* pattern :
       {"manager[//employee]", "manager[//employee[/name]]",
        "manager[//employee[/name]][//department[/name]]", kRunningExample,
        "company[//manager[//employee[/name]]]"}) {
    QueryFixture s = PersSetup(pattern);
    Result<OptimizeResult> r = MakeFpOptimizer()->Optimize(s.ctx());
    ASSERT_TRUE(r.ok()) << pattern << ": " << r.status().ToString();
    PlanProps props =
        std::move(ComputePlanProps(r.value().plan, s.pattern, s.pe, s.cm))
            .value();
    EXPECT_TRUE(props.fully_pipelined) << pattern;
    EXPECT_EQ(props.num_sorts, 0u) << pattern;
  }
}

TEST(FpOptimizerTest, AnyOrderByIsReachable) {
  // Theorem 3.1: a fully-pipelined plan exists producing results ordered
  // by ANY pattern node.
  QueryFixture base = PersSetup(kRunningExample);
  for (size_t i = 0; i < base.pattern.NumNodes(); ++i) {
    Pattern p = base.pattern;
    p.set_order_by(static_cast<PatternNodeId>(i));
    QueryFixture s(Database::Open(GeneratePers({}).value()), std::move(p));
    OptimizeResult r = std::move(MakeFpOptimizer()->Optimize(s.ctx())).value();
    PlanProps props =
        std::move(ComputePlanProps(r.plan, s.pattern, s.pe, s.cm)).value();
    EXPECT_TRUE(props.fully_pipelined) << "order by node " << i;
    EXPECT_EQ(props.ops[static_cast<size_t>(r.plan.root())].ordered_by,
              static_cast<PatternNodeId>(i));
  }
}

TEST(FpOptimizerTest, CheapestAmongPipelinedNeverBelowGlobalOptimum) {
  for (const char* pattern :
       {"manager[//employee[/name]]", kRunningExample}) {
    QueryFixture s = PersSetup(pattern);
    OptimizeResult opt = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
    OptimizeResult fp = std::move(MakeFpOptimizer()->Optimize(s.ctx())).value();
    EXPECT_GE(fp.search_cost + 1e-9, opt.search_cost) << pattern;
  }
}

TEST(FpOptimizerTest, MatchesDppWhenOptimumIsPipelined) {
  // When DPP's chosen plan has no sorts, FP (cheapest pipelined) must find
  // a plan of exactly the same cost.
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult opt = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  PlanProps opt_props =
      std::move(ComputePlanProps(opt.plan, s.pattern, s.pe, s.cm)).value();
  if (opt_props.fully_pipelined) {
    OptimizeResult fp = std::move(MakeFpOptimizer()->Optimize(s.ctx())).value();
    EXPECT_NEAR(fp.search_cost, opt.search_cost, 1e-6);
  }
}

TEST(FpOptimizerTest, ConsidersFewestPlans) {
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  OptimizeResult fp = std::move(MakeFpOptimizer()->Optimize(s.ctx())).value();
  EXPECT_LT(fp.stats.plans_considered, dpp.stats.plans_considered);
}

TEST(FpOptimizerTest, PlanExecutesCorrectly) {
  QueryFixture s = PersSetup(kRunningExample, 700);
  OptimizeResult r = std::move(MakeFpOptimizer()->Optimize(s.ctx())).value();
  Executor exec(s.db);
  ExecResult result = std::move(exec.Execute(s.pattern, r.plan)).value();
  auto expected = std::move(NaiveMatch(s.db.doc(), s.pattern)).value();
  EXPECT_EQ(result.tuples.Canonical(), expected);
}

TEST(FpOptimizerTest, SingleNodePatternUnsupportedGracefully) {
  // A single-node pattern has no joins; FP degenerates to a bare scan.
  QueryFixture s = PersSetup("manager");
  Result<OptimizeResult> r = MakeFpOptimizer()->Optimize(s.ctx());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().plan.NumOps(), 1u);
  EXPECT_DOUBLE_EQ(r.value().search_cost, 0.0);
}

TEST(FpOptimizerTest, OrderByShrinksSearch) {
  QueryFixture free_order = PersSetup(kRunningExample);
  OptimizeResult any =
      std::move(MakeFpOptimizer()->Optimize(free_order.ctx())).value();
  QueryFixture fixed = PersSetup(std::string(kRunningExample) + "!employee");
  OptimizeResult ordered =
      std::move(MakeFpOptimizer()->Optimize(fixed.ctx())).value();
  EXPECT_LT(ordered.stats.plans_considered, any.stats.plans_considered);
  EXPECT_GE(ordered.search_cost + 1e-9, any.search_cost);
}

}  // namespace
}  // namespace sjos
