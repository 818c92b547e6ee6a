#include <gtest/gtest.h>

#include <set>

#include "estimate/exact_estimator.h"
#include "plan/plan_printer.h"
#include "plan/plan_props.h"
#include "plan/random_plans.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"

namespace sjos {
namespace {

Database SmallPers() {
  PersGenConfig config;
  config.target_nodes = 1200;
  return Database::Open(GeneratePers(config).value());
}

TEST(RandomPlanTest, AlwaysValid) {
  Database db = SmallPers();
  Pattern pattern =
      FindQuery("Q.Pers.3.d").value().pattern;
  Rng rng(404);
  for (int i = 0; i < 50; ++i) {
    Result<PhysicalPlan> plan = RandomPlan(pattern, &rng);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(ValidatePlan(plan.value(), pattern).ok());
  }
}

TEST(RandomPlanTest, ProducesDiversePlans) {
  Pattern pattern = FindQuery("Q.Pers.3.d").value().pattern;
  Rng rng(7);
  std::set<std::string> signatures;
  for (int i = 0; i < 40; ++i) {
    Result<PhysicalPlan> plan = RandomPlan(pattern, &rng);
    ASSERT_TRUE(plan.ok());
    signatures.insert(PlanSignature(plan.value(), pattern));
  }
  EXPECT_GT(signatures.size(), 10u);
}

TEST(RandomPlanTest, SingleEdgePattern) {
  Pattern pattern = std::move(ParsePattern("a[//b]")).value();
  Rng rng(1);
  Result<PhysicalPlan> plan = RandomPlan(pattern, &rng);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(plan.value(), pattern).ok());
}

TEST(WorstOfRandomTest, WorstAtLeastAsCostlyAsAnySample) {
  Database db = SmallPers();
  Pattern pattern = FindQuery("Q.Pers.3.d").value().pattern;
  ExactEstimator est(db.doc(), db.index());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
  CostModel cm;
  Result<WorstPlanResult> worst = WorstOfRandomPlans(pattern, pe, cm, 30, 99);
  ASSERT_TRUE(worst.ok());
  // Re-draw the same 30 plans: none may exceed the reported worst.
  Rng rng(99);
  for (int i = 0; i < 30; ++i) {
    PhysicalPlan plan = std::move(RandomPlan(pattern, &rng)).value();
    PlanProps props =
        std::move(ComputePlanProps(plan, pattern, pe, cm)).value();
    EXPECT_LE(props.total_cost, worst.value().modelled_cost + 1e-9);
  }
}

TEST(WorstOfRandomTest, RejectsZeroSamples) {
  Database db = SmallPers();
  Pattern pattern = std::move(ParsePattern("a[//b]")).value();
  ExactEstimator est(db.doc(), db.index());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
  CostModel cm;
  EXPECT_FALSE(WorstOfRandomPlans(pattern, pe, cm, 0, 1).ok());
}

}  // namespace
}  // namespace sjos
