// Whole-pipeline tests: parse XML -> build database -> parse query ->
// estimate -> optimize -> execute -> verify, the way a library user would
// drive the public API (mirrors examples/quickstart.cpp).

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_printer.h"
#include "plan/plan_props.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/fold.h"
#include "xml/generators/xmark_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

TEST(EndToEndTest, HandWrittenDocumentThroughFullPipeline) {
  const char* xml =
      "<company>"
      "  <manager><name>ann</name>"
      "    <employee><name>bo</name></employee>"
      "    <employee><name>cy</name></employee>"
      "    <manager><name>dee</name>"
      "      <department><name>sales</name></department>"
      "      <employee><name>ed</name></employee>"
      "    </manager>"
      "  </manager>"
      "</company>";
  Database db = Database::Open(std::move(ParseXml(xml)).value());
  Pattern pattern =
      std::move(
          ParsePattern(
              "manager[//employee[/name]][//manager[/department[/name]]]"))
          .value();
  PositionalHistogramEstimator est = PositionalHistogramEstimator::Build(
      db.doc(), db.index(), db.stats());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
  CostModel cm;
  OptimizeContext ctx{&pattern, &pe, &cm, {}};

  OptimizeResult r = std::move(MakeDppOptimizer()->Optimize(ctx)).value();
  Executor exec(db);
  ExecResult result = std::move(exec.Execute(pattern, r.plan)).value();
  // Only the outer manager has both a descendant employee-with-name and a
  // descendant manager with a department: 3 employees x 1 = 3 matches.
  EXPECT_EQ(result.tuples.size(), 3u);
  auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
  EXPECT_EQ(result.tuples.Canonical(), expected);
}

TEST(EndToEndTest, FoldingPreservesResultMultiplicity) {
  const char* xml =
      "<company><manager><name>a</name>"
      "<employee><name>b</name></employee></manager></company>";
  Document base = std::move(ParseXml(xml)).value();
  Pattern pattern =
      std::move(ParsePattern("manager[//employee[/name]]")).value();
  for (uint32_t fold : {1u, 3u, 10u}) {
    Database db = Database::Open(std::move(FoldDocument(base, fold)).value());
    PositionalHistogramEstimator est = PositionalHistogramEstimator::Build(
        db.doc(), db.index(), db.stats());
    PatternEstimates pe =
        std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
    CostModel cm;
    OptimizeContext ctx{&pattern, &pe, &cm, {}};
    OptimizeResult r = std::move(MakeFpOptimizer()->Optimize(ctx)).value();
    Executor exec(db);
    ExecResult result = std::move(exec.Execute(pattern, r.plan)).value();
    // Copies do not nest, so matches scale exactly linearly.
    EXPECT_EQ(result.tuples.size(), fold);
  }
}

TEST(EndToEndTest, XmarkQueriesAcrossAllOptimizers) {
  XmarkGenConfig config;
  config.target_nodes = 8000;
  Database db = Database::Open(GenerateXmark(config).value());
  for (const char* query :
       {"site[//open_auction[/bidder]]",
        "item[/name][//parlist[/listitem]]",
        "open_auction[//bidder[/increase]][/initial]",
        "regions[//item[//text]]"}) {
    Pattern pattern = std::move(ParsePattern(query)).value();
    PositionalHistogramEstimator est = PositionalHistogramEstimator::Build(
        db.doc(), db.index(), db.stats());
    PatternEstimates pe =
        std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
    CostModel cm;
    OptimizeContext ctx{&pattern, &pe, &cm, {}};
    auto expected = std::move(NaiveMatch(db.doc(), pattern)).value();
    Executor exec(db);
    for (const auto& optimizer : MakePaperOptimizers(pattern.NumEdges())) {
      Result<OptimizeResult> r = optimizer->Optimize(ctx);
      ASSERT_TRUE(r.ok()) << query << " / " << optimizer->name();
      ExecResult result =
          std::move(exec.Execute(pattern, r.value().plan)).value();
      EXPECT_EQ(result.tuples.Canonical(), expected)
          << query << " / " << optimizer->name();
    }
  }
}

TEST(EndToEndTest, PlanPrintingIsStableAcrossRuns) {
  Database db = Database::Open(
      std::move(ParseXml("<a><b><c/></b><b><c/></b></a>")).value());
  Pattern pattern = std::move(ParsePattern("a[//b[/c]]")).value();
  PositionalHistogramEstimator est = PositionalHistogramEstimator::Build(
      db.doc(), db.index(), db.stats());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(pattern, db.doc(), est)).value();
  CostModel cm;
  OptimizeContext ctx{&pattern, &pe, &cm, {}};
  OptimizeResult r1 = std::move(MakeDppOptimizer()->Optimize(ctx)).value();
  OptimizeResult r2 = std::move(MakeDppOptimizer()->Optimize(ctx)).value();
  EXPECT_EQ(PlanSignature(r1.plan, pattern), PlanSignature(r2.plan, pattern));
  EXPECT_EQ(PrintPlan(r1.plan, pattern), PrintPlan(r2.plan, pattern));
}

}  // namespace
}  // namespace sjos
