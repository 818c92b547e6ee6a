#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_props.h"
#include "query/pattern_parser.h"
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

const char* kRunningExample =
    "manager[//employee[/name]][//manager[/department[/name]]]";

TEST(DpapEbTest, ValidPlanAtAnyBound) {
  QueryFixture s = PersSetup(kRunningExample);
  for (uint32_t te : {1u, 2u, 3u, 5u, 8u, 100u}) {
    Result<OptimizeResult> r = MakeDpapEbOptimizer(te)->Optimize(s.ctx());
    ASSERT_TRUE(r.ok()) << "T_e=" << te << ": " << r.status().ToString();
    EXPECT_TRUE(ValidatePlan(r.value().plan, s.pattern).ok()) << te;
  }
}

TEST(DpapEbTest, CostNeverBelowOptimal) {
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult optimal =
      std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  for (uint32_t te = 1; te <= 8; ++te) {
    OptimizeResult r =
        std::move(MakeDpapEbOptimizer(te)->Optimize(s.ctx())).value();
    EXPECT_GE(r.search_cost + 1e-9, optimal.search_cost) << te;
  }
}

TEST(DpapEbTest, LargeBoundRecoversOptimal) {
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult optimal =
      std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  OptimizeResult r =
      std::move(MakeDpapEbOptimizer(10000)->Optimize(s.ctx())).value();
  EXPECT_NEAR(r.search_cost, optimal.search_cost, 1e-6);
}

TEST(DpapEbTest, WorkGrowsMonotonicallyWithBound) {
  QueryFixture s = PersSetup(kRunningExample);
  uint64_t last = 0;
  for (uint32_t te : {1u, 2u, 4u, 8u, 16u}) {
    OptimizeResult r =
        std::move(MakeDpapEbOptimizer(te)->Optimize(s.ctx())).value();
    EXPECT_GE(r.stats.statuses_expanded, last) << te;
    last = r.stats.statuses_expanded;
  }
}

TEST(DpapEbTest, ConsidersFewerPlansThanDpp) {
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  OptimizeResult eb = std::move(
      MakeDpapEbOptimizer(static_cast<uint32_t>(s.pattern.NumEdges()))
          ->Optimize(s.ctx()))
      .value();
  EXPECT_LE(eb.stats.plans_considered, dpp.stats.plans_considered);
}

TEST(DpapEbTest, PlanExecutesCorrectly) {
  QueryFixture s = PersSetup(kRunningExample, 600);
  OptimizeResult r =
      std::move(MakeDpapEbOptimizer(2)->Optimize(s.ctx())).value();
  Executor exec(s.db);
  ExecResult result = std::move(exec.Execute(s.pattern, r.plan)).value();
  auto expected = std::move(NaiveMatch(s.db.doc(), s.pattern)).value();
  EXPECT_EQ(result.tuples.Canonical(), expected);
}

TEST(DpapLdTest, PlansAreLeftDeep) {
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult r =
      std::move(MakeDpapLdOptimizer()->Optimize(s.ctx())).value();
  PlanProps props =
      std::move(ComputePlanProps(r.plan, s.pattern, s.pe, s.cm)).value();
  EXPECT_TRUE(props.left_deep);
}

TEST(DpapLdTest, CostNeverBelowOptimal) {
  for (const char* pattern :
       {kRunningExample, "manager[//employee[/name]][//department[/name]]"}) {
    QueryFixture s = PersSetup(pattern);
    OptimizeResult optimal =
        std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
    OptimizeResult ld =
        std::move(MakeDpapLdOptimizer()->Optimize(s.ctx())).value();
    EXPECT_GE(ld.search_cost + 1e-9, optimal.search_cost) << pattern;
  }
}

TEST(DpapLdTest, ConsidersFewerPlansThanDpp) {
  QueryFixture s = PersSetup(kRunningExample);
  OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  OptimizeResult ld =
      std::move(MakeDpapLdOptimizer()->Optimize(s.ctx())).value();
  EXPECT_LT(ld.stats.plans_considered, dpp.stats.plans_considered);
}

TEST(DpapLdTest, PlanExecutesCorrectly) {
  QueryFixture s = PersSetup(kRunningExample, 600);
  OptimizeResult r =
      std::move(MakeDpapLdOptimizer()->Optimize(s.ctx())).value();
  Executor exec(s.db);
  ExecResult result = std::move(exec.Execute(s.pattern, r.plan)).value();
  auto expected = std::move(NaiveMatch(s.db.doc(), s.pattern)).value();
  EXPECT_EQ(result.tuples.Canonical(), expected);
}

TEST(DpapTest, Names) {
  EXPECT_STREQ(MakeDpapEbOptimizer(3)->name(), "DPAP-EB");
  EXPECT_STREQ(MakeDpapLdOptimizer()->name(), "DPAP-LD");
}

}  // namespace
}  // namespace sjos
