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

TEST(DppOptimizerTest, MatchesDpOptimalCost) {
  // The headline invariant of Sec. 3.2: DPP searches the whole space and
  // always finds the same optimal cost as DP.
  for (const char* pattern :
       {"manager[//employee]", "manager[//employee[/name]]",
        "manager[//employee[/name]][//department[/name]]",
        "manager[//employee[/name]][//manager[/department[/name]]]",
        "company[//manager[/employee]][//department]"}) {
    QueryFixture s = PersSetup(pattern);
    OptimizeResult dp = std::move(MakeDpOptimizer()->Optimize(s.ctx())).value();
    OptimizeResult dpp =
        std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
    EXPECT_NEAR(dp.search_cost, dpp.search_cost, 1e-6) << pattern;
    EXPECT_NEAR(dp.modelled_cost, dpp.modelled_cost, 1e-6) << pattern;
  }
}

TEST(DppOptimizerTest, ConsidersFewerPlansThanDp) {
  QueryFixture s = PersSetup(
      "manager[//employee[/name]][//manager[/department[/name]]]");
  OptimizeResult dp = std::move(MakeDpOptimizer()->Optimize(s.ctx())).value();
  OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  EXPECT_LT(dpp.stats.plans_considered, dp.stats.plans_considered);
  EXPECT_LT(dpp.stats.statuses_expanded, dp.stats.statuses_expanded);
}

TEST(DppOptimizerTest, LookaheadReducesWork) {
  // Table 2's DPP vs DPP' comparison: disabling the Lookahead Rule
  // generates dead ends and considers more plans.
  QueryFixture s = PersSetup(
      "manager[//employee[/name]][//manager[/department[/name]]]");
  OptimizeResult dpp =
      std::move(MakeDppOptimizer(true)->Optimize(s.ctx())).value();
  OptimizeResult dpp_prime =
      std::move(MakeDppOptimizer(false)->Optimize(s.ctx())).value();
  EXPECT_NEAR(dpp.search_cost, dpp_prime.search_cost, 1e-6);
  EXPECT_LE(dpp.stats.statuses_generated, dpp_prime.stats.statuses_generated);
}

TEST(DppOptimizerTest, PlanExecutesCorrectly) {
  QueryFixture s = PersSetup(
      "manager[//employee[/name]][//manager[/department[/name]]]", 700);
  OptimizeResult r = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  Executor exec(s.db);
  ExecResult result = std::move(exec.Execute(s.pattern, r.plan)).value();
  auto expected = std::move(NaiveMatch(s.db.doc(), s.pattern)).value();
  EXPECT_EQ(result.tuples.Canonical(), expected);
}

TEST(DppOptimizerTest, MatchesDpOnAllPaperQueries) {
  // Cross-dataset property sweep over the full Table 1 workload (small
  // scaled-down data sets keep the test fast).
  for (const BenchQuery& q : PaperWorkload()) {
    DatasetScale scale;
    scale.base_nodes = 2500;
    Database db = std::move(MakePaperDataset(q.dataset, scale)).value();
    QueryFixture s(std::move(db), q.pattern);
    OptimizeResult dp = std::move(MakeDpOptimizer()->Optimize(s.ctx())).value();
    OptimizeResult dpp =
        std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
    EXPECT_NEAR(dp.search_cost, dpp.search_cost,
                1e-6 * (1.0 + dp.search_cost))
        << q.id;
  }
}

TEST(DppOptimizerTest, OrderByRespected) {
  QueryFixture s = PersSetup("manager[//employee[/name]]!employee");
  OptimizeResult r = std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
  PlanProps props =
      std::move(ComputePlanProps(r.plan, s.pattern, s.pe, s.cm)).value();
  EXPECT_EQ(props.ops[static_cast<size_t>(r.plan.root())].ordered_by, 1);
}

TEST(DppOptimizerTest, Names) {
  EXPECT_STREQ(MakeDppOptimizer(true)->name(), "DPP");
  EXPECT_STREQ(MakeDppOptimizer(false)->name(), "DPP'");
}

}  // namespace
}  // namespace sjos
