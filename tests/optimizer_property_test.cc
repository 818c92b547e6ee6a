// Randomized cross-checks over generated documents AND generated pattern
// shapes: the strongest whole-system property suite. For every random
// (document, pattern) pair:
//   * DP and DPP report identical optimal costs;
//   * every algorithm's plan validates and executes to exactly the naive
//     matcher's result set;
//   * no algorithm reports a cost below the optimum;
//   * the holistic twig join agrees with all of them.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "exec/twig_join.h"
#include "plan/plan_props.h"
#include "query/pattern.h"
#include "storage/catalog.h"
#include "xml/generators/tree_gen.h"

namespace sjos {
namespace {

/// Builds a random pattern over the generator's tag vocabulary: a random
/// tree of `nodes` nodes with random axes (and occasionally repeated tags,
/// exercising self joins).
Pattern RandomPattern(Rng* rng, size_t nodes, uint32_t num_tags) {
  Pattern p;
  auto tag = [&] {
    std::string t = "t";
    t += std::to_string(rng->NextBelow(num_tags));
    return t;
  };
  p.AddRoot(tag());
  for (size_t i = 1; i < nodes; ++i) {
    PatternNodeId parent =
        static_cast<PatternNodeId>(rng->NextBelow(p.NumNodes()));
    Axis axis = rng->NextBool(0.5) ? Axis::kDescendant : Axis::kChild;
    p.AddChild(parent, tag(), axis);
  }
  return p;
}

class RandomizedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedSweep, AllAlgorithmsAgreeOnRandomInstances) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  TreeGenConfig config;
  config.target_nodes = 250 + rng.NextBelow(250);
  config.max_depth = 4 + static_cast<uint32_t>(rng.NextBelow(8));
  config.num_tags = 3 + static_cast<uint32_t>(rng.NextBelow(3));
  config.seed = seed * 977;
  Database db = Database::Open(GenerateTree(config).value());

  ExactEstimator exact(db.doc(), db.index());
  PositionalHistogramEstimator hist = PositionalHistogramEstimator::Build(
      db.doc(), db.index(), db.stats());
  CostModel cm;
  Executor exec(db);

  for (int round = 0; round < 4; ++round) {
    size_t nodes = 2 + rng.NextBelow(5);
    Pattern pattern = RandomPattern(&rng, nodes, config.num_tags);
    ASSERT_TRUE(pattern.Validate().ok());
    auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();

    for (const CardinalityEstimator* estimator :
         {static_cast<const CardinalityEstimator*>(&exact),
          static_cast<const CardinalityEstimator*>(&hist)}) {
      PatternEstimates pe =
          std::move(PatternEstimates::Make(pattern, db.doc(), *estimator))
              .value();
      OptimizeContext ctx{&pattern, &pe, &cm, {}};

      OptimizeResult dp = std::move(MakeDpOptimizer()->Optimize(ctx)).value();
      for (const auto& optimizer :
           MakePaperOptimizers(pattern.NumEdges())) {
        Result<OptimizeResult> r = optimizer->Optimize(ctx);
        ASSERT_TRUE(r.ok())
            << optimizer->name() << " seed=" << seed << " round=" << round;
        ASSERT_TRUE(ValidatePlan(r.value().plan, pattern).ok())
            << optimizer->name();
        // Optimality floor: nothing beats DP.
        EXPECT_GE(r.value().search_cost + 1e-6 * (1.0 + r.value().search_cost),
                  dp.search_cost)
            << optimizer->name() << " seed=" << seed;
        ExecResult result =
            std::move(exec.Execute(pattern, r.value().plan)).value();
        EXPECT_EQ(result.tuples.Canonical(), expected)
            << optimizer->name() << " seed=" << seed << " round=" << round
            << " pattern=" << pattern.ToString();
      }
      // DPP must equal DP exactly.
      OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(ctx)).value();
      EXPECT_NEAR(dpp.search_cost, dp.search_cost,
                  1e-6 * (1.0 + dp.search_cost))
          << "seed=" << seed << " pattern=" << pattern.ToString();
    }

    // Twig join agreement.
    Result<TupleSet> twig = TwigJoin(db, pattern);
    ASSERT_TRUE(twig.ok()) << pattern.ToString();
    EXPECT_EQ(twig.value().Canonical(), expected)
        << "twig seed=" << seed << " pattern=" << pattern.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace sjos
