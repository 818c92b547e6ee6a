// Holistic twig join correctness: against the naive oracle across pattern
// shapes, axes, predicates, self-paths, and random documents — and
// agreement with the binary-join executor.

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "exec/twig_join.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"
#include "xml/generators/tree_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

Database Db(std::string_view xml) {
  return Database::Open(std::move(ParseXml(xml)).value());
}

Pattern Pat(std::string_view text) {
  return std::move(ParsePattern(text)).value();
}

void ExpectTwigMatchesOracle(const Database& db, const Pattern& pattern,
                             const char* label) {
  Result<TupleSet> twig = TwigJoin(db, pattern);
  ASSERT_TRUE(twig.ok()) << label << ": " << twig.status().ToString();
  auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
  EXPECT_EQ(twig.value().Canonical(), expected) << label;
}

TEST(TwigJoinTest, SingleNode) {
  Database db = Db("<a><b/><b/></a>");
  ExpectTwigMatchesOracle(db, Pat("b"), "single");
}

TEST(TwigJoinTest, SimplePath) {
  Database db = Db("<a><b><c/></b><b/><c/></a>");
  ExpectTwigMatchesOracle(db, Pat("a[//b[/c]]"), "path");
}

TEST(TwigJoinTest, BranchingTwig) {
  Database db = Db("<a><b><c/><d/></b><b><c/></b></a>");
  ExpectTwigMatchesOracle(db, Pat("a[//b[/c][/d]]"), "twig");
  ExpectTwigMatchesOracle(db, Pat("b[/c][/d]"), "twig-root");
}

TEST(TwigJoinTest, SelfPathRecursiveTag) {
  Database db = Db("<m><m><m/></m><m/></m>");
  ExpectTwigMatchesOracle(db, Pat("m[//m]"), "self");
  ExpectTwigMatchesOracle(db, Pat("m[//m[//m]]"), "self3");
}

TEST(TwigJoinTest, ParentChildExactness) {
  Database db = Db("<a><b><x/><b><x/></b></b></a>");
  ExpectTwigMatchesOracle(db, Pat("a[//b[/x]]"), "pc");
  ExpectTwigMatchesOracle(db, Pat("a[/b[/x]]"), "pc2");
}

TEST(TwigJoinTest, PredicatesApplied) {
  Database db = Db("<r><x><n>a</n></x><x><n>b</n></x></r>");
  ExpectTwigMatchesOracle(db, Pat("r[//x[/n='a']]"), "pred");
}

TEST(TwigJoinTest, EmptyResultWhenTagMissing) {
  Database db = Db("<a><b/></a>");
  Result<TupleSet> twig = TwigJoin(db, Pat("a[//zzz]"));
  ASSERT_TRUE(twig.ok());
  EXPECT_TRUE(twig.value().empty());
}

TEST(TwigJoinTest, RunningExampleOnPers) {
  PersGenConfig config;
  config.target_nodes = 800;
  Database db = Database::Open(GeneratePers(config).value());
  ExpectTwigMatchesOracle(
      db, Pat("manager[//employee[/name]][//manager[/department[/name]]]"),
      "running-example");
}

TEST(TwigJoinTest, StatsPopulated) {
  PersGenConfig config;
  config.target_nodes = 500;
  Database db = Database::Open(GeneratePers(config).value());
  TwigJoinStats stats;
  Result<TupleSet> twig =
      TwigJoin(db, Pat("manager[//employee[/name]][//department]"), &stats);
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(stats.num_paths, 2u);
  EXPECT_GT(stats.path_solutions, 0u);
  EXPECT_GT(stats.stack_pushes, 0u);
}

TEST(TwigJoinTest, AgreesWithOptimizedBinaryPlans) {
  PersGenConfig config;
  config.target_nodes = 1000;
  Database db = Database::Open(GeneratePers(config).value());
  ExactEstimator est(db.doc(), db.index());
  CostModel cm;
  for (const BenchQuery& q : PaperWorkload()) {
    if (q.dataset != "Pers") continue;
    PatternEstimates pe =
        std::move(PatternEstimates::Make(q.pattern, db.doc(), est)).value();
    OptimizeContext ctx{&q.pattern, &pe, &cm, {}};
    OptimizeResult r = std::move(MakeDppOptimizer()->Optimize(ctx)).value();
    Executor exec(db);
    ExecResult binary = std::move(exec.Execute(q.pattern, r.plan)).value();
    Result<TupleSet> twig = TwigJoin(db, q.pattern);
    ASSERT_TRUE(twig.ok()) << q.id;
    EXPECT_EQ(twig.value().Canonical(), binary.tuples.Canonical()) << q.id;
  }
}

/// Property sweep over random trees and pattern shapes.
struct TwigSweepParam {
  const char* pattern;
  uint64_t seed;
};

class TwigSweep : public ::testing::TestWithParam<TwigSweepParam> {};

TEST_P(TwigSweep, MatchesOracleOnRandomTrees) {
  TreeGenConfig config;
  config.target_nodes = 400;
  config.max_depth = 8;
  config.num_tags = 4;
  config.seed = GetParam().seed;
  Database db = Database::Open(GenerateTree(config).value());
  Pattern pattern = Pat(GetParam().pattern);
  ExpectTwigMatchesOracle(db, pattern, GetParam().pattern);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TwigSweep,
    ::testing::Values(TwigSweepParam{"t0[//t1]", 21},
                      TwigSweepParam{"t0[/t1]", 22},
                      TwigSweepParam{"t0[//t1[/t2]]", 23},
                      TwigSweepParam{"t0[//t1][//t2]", 24},
                      TwigSweepParam{"t0[//t1[/t2]][//t3]", 25},
                      TwigSweepParam{"t0[//t0[//t1]]", 26},
                      TwigSweepParam{"t1[//t2[/t3]][/t0[//t1]]", 27},
                      TwigSweepParam{"t0[//t1[//t2[//t3]]]", 28}));

}  // namespace
}  // namespace sjos
