// Value predicates on pattern nodes: parsing, selectivity estimation,
// filtered index scans, and end-to-end optimization + execution against
// the naive oracle.

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "exec/operators.h"
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

TEST(ValuePredicateTest, Matching) {
  ValuePredicate none;
  EXPECT_TRUE(none.Matches("anything"));
  ValuePredicate eq{ValuePredicate::Kind::kEquals, "ann"};
  EXPECT_TRUE(eq.Matches("ann"));
  EXPECT_FALSE(eq.Matches("anne"));
  EXPECT_FALSE(eq.Matches(""));
  ValuePredicate contains{ValuePredicate::Kind::kContains, "nn"};
  EXPECT_TRUE(contains.Matches("ann"));
  EXPECT_TRUE(contains.Matches("annnex"));
  EXPECT_FALSE(contains.Matches("an"));
}

TEST(PredicateParserTest, EqualsAndContains) {
  Pattern p = Pat("manager[//name='ann'][//department[/name~'sale']]");
  EXPECT_EQ(p.node(1).predicate.kind, ValuePredicate::Kind::kEquals);
  EXPECT_EQ(p.node(1).predicate.value, "ann");
  EXPECT_EQ(p.node(3).predicate.kind, ValuePredicate::Kind::kContains);
  EXPECT_EQ(p.node(3).predicate.value, "sale");
  EXPECT_TRUE(p.node(0).predicate.Empty());
}

TEST(PredicateParserTest, RootPredicate) {
  Pattern p = Pat("name='bo'");
  EXPECT_EQ(p.node(0).predicate.kind, ValuePredicate::Kind::kEquals);
}

TEST(PredicateParserTest, RoundTripToString) {
  const char* text = "manager[//name='ann'][//title~'senior']";
  EXPECT_EQ(Pat(text).ToString(), text);
}

TEST(PredicateParserTest, Errors) {
  EXPECT_FALSE(ParsePattern("a='unterminated").ok());
  EXPECT_FALSE(ParsePattern("a=noquote").ok());
  EXPECT_FALSE(ParsePattern("a~").ok());
}

TEST(PredicateParserTest, EmptyValueAllowed) {
  Pattern p = Pat("a=''");
  EXPECT_EQ(p.node(0).predicate.kind, ValuePredicate::Kind::kEquals);
  EXPECT_TRUE(p.node(0).predicate.value.empty());
}

TEST(PredicateScanTest, FiltersCandidates) {
  Database db = Db("<r><x>a</x><x>b</x><x>a</x><x/></r>");
  Pattern p = Pat("x='a'");
  ColumnBatch set = ScanCandidateColumns(db, p, 0);
  EXPECT_EQ(set.size(), 2u);
  Pattern all = Pat("x");
  EXPECT_EQ(ScanCandidateColumns(db, all, 0).size(), 4u);
}

TEST(PredicateSelectivityTest, ExactCounts) {
  Database db = Db("<r><x>a</x><x>b</x><x>a</x><x/></r>");
  ExactEstimator est(db.doc(), db.index());
  TagId x = db.doc().dict().Find("x");
  EXPECT_DOUBLE_EQ(
      est.PredicateSelectivity(x, {ValuePredicate::Kind::kEquals, "a"}), 0.5);
  EXPECT_DOUBLE_EQ(
      est.PredicateSelectivity(x, {ValuePredicate::Kind::kEquals, "zz"}), 0.0);
  EXPECT_DOUBLE_EQ(est.PredicateSelectivity(x, {}), 1.0);
}

TEST(PredicateSelectivityTest, HistogramUsesValueStats) {
  // 8 x-elements, 4 with text over 2 distinct values.
  Database db = Db(
      "<r><x>a</x><x>b</x><x>a</x><x>b</x><x/><x/><x/><x/></r>");
  PositionalHistogramEstimator est = PositionalHistogramEstimator::Build(
      db.doc(), db.index(), db.stats());
  TagId x = db.doc().dict().Find("x");
  // equals: text fraction (0.5) / distinct (2) = 0.25.
  EXPECT_DOUBLE_EQ(
      est.PredicateSelectivity(x, {ValuePredicate::Kind::kEquals, "a"}), 0.25);
  double contains =
      est.PredicateSelectivity(x, {ValuePredicate::Kind::kContains, "a"});
  EXPECT_GT(contains, 0.0);
  EXPECT_LT(contains, 0.5);
}

TEST(PredicateEstimatesTest, NodeCardScaled) {
  Database db = Db("<r><x>a</x><x>b</x><x>a</x><x>c</x></r>");
  ExactEstimator est(db.doc(), db.index());
  Pattern p = Pat("r[//x='a']");
  PatternEstimates pe =
      std::move(PatternEstimates::Make(p, db.doc(), est)).value();
  EXPECT_DOUBLE_EQ(pe.NodeCard(1), 2.0);
  // Cluster composition uses the filtered card.
  EXPECT_DOUBLE_EQ(pe.ClusterCard(0b11), 2.0);
}

TEST(PredicateExecutionTest, MatchesOracleOnPers) {
  PersGenConfig config;
  config.target_nodes = 800;
  Database db = Database::Open(GeneratePers(config).value());
  ExactEstimator est(db.doc(), db.index());
  CostModel cm;
  for (const char* text :
       {"manager[//employee[/name='bo']]",
        "manager[//name='ann'][//department]",
        "manager[//employee[/name~'a']][//department[/name~'s']]"}) {
    Pattern pattern = Pat(text);
    PatternEstimates pe =
        std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
    OptimizeContext ctx{&pattern, &pe, &cm, {}};
    auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
    Executor exec(db);
    for (const auto& optimizer : MakePaperOptimizers(pattern.NumEdges())) {
      Result<OptimizeResult> r = optimizer->Optimize(ctx);
      ASSERT_TRUE(r.ok()) << text << " / " << optimizer->name();
      ExecResult result =
          std::move(exec.Execute(pattern, r.value().plan)).value();
      EXPECT_EQ(result.tuples.Canonical(), expected)
          << text << " / " << optimizer->name();
    }
  }
}

TEST(PredicateExecutionTest, SelectivePredicateShrinksIntermediates) {
  PersGenConfig config;
  config.target_nodes = 2000;
  Database db = Database::Open(GeneratePers(config).value());
  ExactEstimator est(db.doc(), db.index());
  CostModel cm;
  Pattern broad = Pat("manager[//employee[/name]]");
  Pattern narrow = Pat("manager[//employee[/name='bo']]");
  Executor exec(db);
  auto run = [&](Pattern& pattern) {
    PatternEstimates pe =
        std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
    OptimizeContext ctx{&pattern, &pe, &cm, {}};
    OptimizeResult r = std::move(MakeDppOptimizer()->Optimize(ctx)).value();
    return std::move(exec.Execute(pattern, r.plan)).value();
  };
  ExecResult broad_result = run(broad);
  ExecResult narrow_result = run(narrow);
  EXPECT_LT(narrow_result.stats.result_rows, broad_result.stats.result_rows);
  EXPECT_LT(narrow_result.stats.join_output_rows,
            broad_result.stats.join_output_rows);
}

}  // namespace
}  // namespace sjos
