#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_printer.h"
#include "plan/plan_props.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"
#include "xml/generators/tree_gen.h"
#include "xml/parser.h"

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
    OptimizeResult opt =
        std::move(MakeDppOptimizer()->Optimize(s.ctx())).value();
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

/// The Thm. 3.1 reference: FP's search as a plain permutation loop. Each
/// sub-problem costs every order of its neighbours' joins, summed in join
/// order, and keeps the first cheapest in lexicographic order.
class PermutationFp {
 public:
  PermutationFp(const Pattern& pattern, const PatternEstimates& est,
                const CostModel& cm)
      : pattern_(pattern), est_(est), cm_(cm) {}

  /// The cheapest fully-pipelined plan and its search cost.
  std::pair<PhysicalPlan, double> Plan() {
    std::vector<PatternNodeId> roots;
    for (size_t i = 0; i < pattern_.NumNodes(); ++i) {
      const PatternNodeId r = static_cast<PatternNodeId>(i);
      if (pattern_.order_by() == kNoPatternNode || pattern_.order_by() == r) {
        roots.push_back(r);
      }
    }
    PatternNodeId best_root = kNoPatternNode;
    double best_cost = 0.0;
    for (PatternNodeId r : roots) {
      const double cost = Solve(r, kNoPatternNode).cost;
      if (best_root == kNoPatternNode || cost < best_cost) {
        best_root = r;
        best_cost = cost;
      }
    }
    PhysicalPlan plan;
    plan.SetRoot(Build(&plan, best_root, kNoPatternNode));
    return {std::move(plan), best_cost};
  }

 private:
  struct Sub {
    double cost = 0.0;
    NodeMask mask = 0;
    std::vector<PatternNodeId> perm;
  };

  const Sub& Solve(PatternNodeId r, PatternNodeId blocked) {
    auto it = memo_.find({r, blocked});
    if (it != memo_.end()) return it->second;
    Sub sub;
    sub.mask = MaskOf(r);
    std::vector<PatternNodeId> perm;
    double children_cost = 0.0;
    for (PatternNodeId u : pattern_.NeighborsOf(r)) {
      if (u == blocked) continue;
      perm.push_back(u);
      const Sub& child = Solve(u, r);
      children_cost += child.cost;
      sub.mask |= child.mask;
    }
    std::sort(perm.begin(), perm.end());
    double best = -1.0;
    do {
      double cost = 0.0;
      NodeMask current = MaskOf(r);
      for (PatternNodeId u : perm) {
        const NodeMask child = memo_.at({u, r}).mask;
        cost += pattern_.node(u).parent == r
                    ? cm_.StackTreeAnc(est_.ClusterCard(current | child),
                                       est_.ClusterCard(current))
                    : cm_.StackTreeDesc(est_.ClusterCard(child),
                                        est_.ClusterCard(current | child));
        current |= child;
      }
      if (best < 0.0 || cost < best) {
        best = cost;
        sub.perm = perm;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    sub.cost = children_cost + best;
    return memo_.emplace(std::make_pair(r, blocked), std::move(sub))
        .first->second;
  }

  int Build(PhysicalPlan* plan, PatternNodeId r, PatternNodeId blocked) {
    int current = plan->AddIndexScan(r);
    for (PatternNodeId u : memo_.at({r, blocked}).perm) {
      const int child = Build(plan, u, r);
      current = pattern_.node(u).parent == r
                    ? plan->AddJoin(PlanOp::kStackTreeAnc, r, u,
                                    pattern_.node(u).axis, current, child)
                    : plan->AddJoin(PlanOp::kStackTreeDesc, u, r,
                                    pattern_.node(r).axis, child, current);
    }
    return current;
  }

  const Pattern& pattern_;
  const PatternEstimates& est_;
  const CostModel& cm_;
  std::map<std::pair<PatternNodeId, PatternNodeId>, Sub> memo_;
};

/// A random tree of `nodes` nodes over the generator's tags; half the
/// nodes hang off the root, so stars with high fan-out are common.
Pattern RandomStarBiasedPattern(Rng* rng, size_t nodes, uint32_t num_tags) {
  Pattern p;
  auto tag = [&] {
    std::string t = "t";
    t += std::to_string(rng->NextBelow(num_tags));
    return t;
  };
  p.AddRoot(tag());
  for (size_t i = 1; i < nodes; ++i) {
    const PatternNodeId parent =
        rng->NextBool(0.5)
            ? PatternNodeId{0}
            : static_cast<PatternNodeId>(rng->NextBelow(p.NumNodes()));
    p.AddChild(parent, tag(),
               rng->NextBool(0.5) ? Axis::kDescendant : Axis::kChild);
  }
  if (rng->NextBool(0.3)) {
    p.set_order_by(static_cast<PatternNodeId>(rng->NextBelow(nodes)));
  }
  return p;
}

TEST(FpOptimizerTest, RankOrderMatchesPermutationSearch) {
  // Thm. 3.1 oracle: on random patterns of up to 8 nodes, FP's rank order
  // returns the permutation search's plan at the bit-identical cost.
  size_t cases = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    TreeGenConfig config;
    config.target_nodes = 200 + rng.NextBelow(200);
    config.max_depth = 3 + static_cast<uint32_t>(rng.NextBelow(6));
    config.num_tags = 3 + static_cast<uint32_t>(rng.NextBelow(4));
    config.seed = seed * 131;
    Database db = Database::Open(GenerateTree(config).value());
    ExactEstimator exact(db.doc(), db.index());
    PositionalHistogramEstimator hist = PositionalHistogramEstimator::Build(
        db.doc(), db.index(), db.stats());
    CostModel cm;
    for (int round = 0; round < 6; ++round) {
      Pattern pattern =
          RandomStarBiasedPattern(&rng, 2 + rng.NextBelow(7), config.num_tags);
      for (const CardinalityEstimator* estimator :
           {static_cast<const CardinalityEstimator*>(&exact),
            static_cast<const CardinalityEstimator*>(&hist)}) {
        PatternEstimates pe = std::move(PatternEstimates::Make(
                                            pattern, db.doc(), *estimator))
                                  .value();
        OptimizeContext ctx{&pattern, &pe, &cm, {}};
        Result<OptimizeResult> fp = MakeFpOptimizer()->Optimize(ctx);
        ASSERT_TRUE(fp.ok())
            << pattern.ToString() << ": " << fp.status().ToString();
        auto [plan, cost] = PermutationFp(pattern, pe, cm).Plan();
        EXPECT_EQ(fp.value().search_cost, cost)
            << "seed=" << seed << " pattern=" << pattern.ToString();
        EXPECT_EQ(PlanSignature(fp.value().plan, pattern),
                  PlanSignature(plan, pattern))
            << "seed=" << seed << " pattern=" << pattern.ToString();
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 360u);
}

TEST(FpOptimizerTest, RankOrderIsCheapestUnderAnyCostFactors) {
  // The rank order against the permutation oracle with random cost
  // factors. f_io, f_out and f_stack are each 0 in about a fifth of the
  // cases, as a least-squares refit may return. Under zero factors, zero
  // cardinalities and near-equal ranks several orders can be cheapest, so
  // FP may pick another plan than the oracle's first; its cost may not
  // exceed the oracle's beyond rounding. Each differing plan is printed.
  size_t cases = 0;
  size_t all_zero = 0;
  size_t differing = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed + 1000);
    TreeGenConfig config;
    config.target_nodes = 100 + rng.NextBelow(300);
    config.max_depth = 3 + static_cast<uint32_t>(rng.NextBelow(6));
    config.num_tags = 3 + static_cast<uint32_t>(rng.NextBelow(4));
    config.seed = seed * 977;
    Database db = Database::Open(GenerateTree(config).value());
    ExactEstimator exact(db.doc(), db.index());
    PositionalHistogramEstimator hist = PositionalHistogramEstimator::Build(
        db.doc(), db.index(), db.stats());
    for (int round = 0; round < 10; ++round) {
      Pattern pattern =
          RandomStarBiasedPattern(&rng, 2 + rng.NextBelow(7), config.num_tags);
      for (const CardinalityEstimator* estimator :
           {static_cast<const CardinalityEstimator*>(&exact),
            static_cast<const CardinalityEstimator*>(&hist)}) {
        auto factor = [&] {
          return rng.NextBool(0.2) ? 0.0 : 4.0 * rng.NextDouble();
        };
        CostFactors factors;
        factors.f_io = factor();
        factors.f_out = factor();
        factors.f_stack = factor();
        if (factors.f_io == 0.0 && factors.f_out == 0.0 &&
            factors.f_stack == 0.0) {
          ++all_zero;
        }
        CostModel cm(factors);
        PatternEstimates pe = std::move(PatternEstimates::Make(
                                            pattern, db.doc(), *estimator))
                                  .value();
        OptimizeContext ctx{&pattern, &pe, &cm, {}};
        Result<OptimizeResult> fp = MakeFpOptimizer()->Optimize(ctx);
        ASSERT_TRUE(fp.ok())
            << pattern.ToString() << ": " << fp.status().ToString();
        auto [plan, cost] = PermutationFp(pattern, pe, cm).Plan();
        const std::string where =
            StrFormat("seed=%llu pattern=%s factors=%s",
                      static_cast<unsigned long long>(seed),
                      pattern.ToString().c_str(), factors.ToString().c_str());
        EXPECT_LE(fp.value().search_cost, cost * (1.0 + 1e-12)) << where;
        const std::string got = PlanSignature(fp.value().plan, pattern);
        const std::string want = PlanSignature(plan, pattern);
        if (got != want) {
          ++differing;
          std::printf("co-optimal plan: %s\n  FP %s cost %.17g\n  oracle %s "
                      "cost %.17g\n",
                      where.c_str(), got.c_str(), fp.value().search_cost,
                      want.c_str(), cost);
        }
        ++cases;
      }
    }
  }
  std::printf("%zu cases, %zu with all three factors 0, %zu plans differ\n",
              cases, all_zero, differing);
  EXPECT_EQ(cases, 4000u);
  EXPECT_GT(all_zero, 0u);
}

/// "c<i>", built piece by piece (GCC 12's -Wrestrict misfires on
/// "literal" + std::string&&).
std::string ChildTag(size_t i) {
  std::string tag = "c";
  tag += std::to_string(i);
  return tag;
}

TEST(FpOptimizerTest, PlansStarsOfAnyFanout) {
  // Fan-out 9 and 15 (a 16-node star, the largest pattern admitted) plan
  // and execute to the naive matcher's result.
  std::string xml = "<doc>";
  for (size_t r = 0; r < 6; ++r) {
    xml += "<r>";
    for (size_t c = 0; c < 15; ++c) {
      if (r < 3 && (r + c) % 7 == 6) continue;  // hubs 0-2 miss children
      const int copies = (r == 4 && c % 5 == 0) ? 2 : 1;
      for (int k = 0; k < copies; ++k) {
        xml += '<';
        xml += ChildTag(c);
        xml += "/>";
      }
    }
    xml += "</r>";
  }
  xml += "<r><r><c0/></r></r></doc>";
  Database db = Database::Open(std::move(ParseXml(xml)).value());
  ExactEstimator exact(db.doc(), db.index());
  CostModel cm;
  Executor exec(db);
  for (size_t fanout : {size_t{9}, size_t{15}}) {
    Pattern pattern;
    pattern.AddRoot("r");
    for (size_t c = 0; c < fanout; ++c) {
      pattern.AddChild(0, ChildTag(c),
                       c % 2 == 0 ? Axis::kChild : Axis::kDescendant);
    }
    PatternEstimates pe =
        std::move(PatternEstimates::Make(pattern, db.doc(), exact)).value();
    OptimizeContext ctx{&pattern, &pe, &cm, {}};
    Result<OptimizeResult> r = MakeFpOptimizer()->Optimize(ctx);
    ASSERT_TRUE(r.ok()) << "fan-out " << fanout << ": "
                        << r.status().ToString();
    EXPECT_EQ(r.value().plan.NumOps(), 2 * fanout + 1);
    ExecResult result =
        std::move(exec.Execute(pattern, r.value().plan)).value();
    auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
    EXPECT_FALSE(expected.empty()) << "fan-out " << fanout;
    EXPECT_EQ(result.tuples.Canonical(), expected) << "fan-out " << fanout;
  }
}

}  // namespace
}  // namespace sjos
