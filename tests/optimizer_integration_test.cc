// Cross-algorithm properties over the full paper workload, run on
// scaled-down instances of the paper's data sets — the qualitative claims
// of Sec. 4.2 as executable assertions — plus every algorithm's exact
// plan choice pinned, so a refactor of the searches cannot move one.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "estimate/exact_estimator.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "plan/plan_printer.h"
#include "plan/plan_props.h"
#include "plan/random_plans.h"
#include "query/workload.h"
#include "storage/catalog.h"

namespace sjos {
namespace {

// The exact choice of every algorithm, read off the optimizers at a fixed
// commit: plan shape, search counters and both costs. Any refactor of the
// search must leave all of them unchanged.
struct PinnedPlan {
  const char* query;
  const char* algo;
  const char* signature;
  uint64_t plans_considered;
  uint64_t statuses_generated;
  uint64_t statuses_expanded;
  double search_cost;
  double modelled_cost;
};

// Eight paper queries at 2000 base nodes, exact estimator.
const PinnedPlan kSweepPins[] = {
    {"Q.Mbench.1.a", "DP",
     "(eNest#0 STD (eNest#1 STA eOccasional#2))",
     12, 13, 5, 4918.5, 5821.5},
    {"Q.Mbench.1.a", "DPP'",
     "(eNest#0 STD (eNest#1 STA eOccasional#2))",
     5, 6, 3, 4918.5, 5821.5},
    {"Q.Mbench.1.a", "DPP",
     "(eNest#0 STD (eNest#1 STA eOccasional#2))",
     5, 6, 3, 4918.5, 5821.5},
    {"Q.Mbench.1.a", "DPAP-EB",
     "(eNest#0 STD (eNest#1 STA eOccasional#2))",
     5, 6, 3, 4918.5, 5821.5},
    {"Q.Mbench.1.a", "DPAP-LD",
     "(eNest#0 STD (eNest#1 STA eOccasional#2))",
     5, 6, 3, 4918.5, 5821.5},
    {"Q.Mbench.1.a", "FP",
     "(eNest#0 STD (eNest#1 STA eOccasional#2))",
     6, 7, 5, 4918.5, 5821.5},
    {"Q.Mbench.2.b", "DP",
     "((eNest#0 STA @aSixtyFour#3) STD (eNest#1 STA eOccasional#2))",
     48, 49, 17, 7942.5000000000009, 9265.5},
    {"Q.Mbench.2.b", "DPP'",
     "((eNest#0 STA @aSixtyFour#3) STD (eNest#1 STA eOccasional#2))",
     19, 20, 11, 7942.5000000000009, 9265.5},
    {"Q.Mbench.2.b", "DPP",
     "((eNest#0 STA @aSixtyFour#3) STD (eNest#1 STA eOccasional#2))",
     17, 18, 10, 7942.5000000000009, 9265.5},
    {"Q.Mbench.2.b", "DPAP-EB",
     "((eNest#0 STA @aSixtyFour#3) STD (eNest#1 STA eOccasional#2))",
     16, 17, 7, 7942.5000000000009, 9265.5},
    {"Q.Mbench.2.b", "DPAP-LD",
     "((eNest#0 STA (eNest#1 STA eOccasional#2)) STD @aSixtyFour#3)",
     11, 12, 7, 9803.3400000000001, 11126.34},
    {"Q.Mbench.2.b", "FP",
     "((eNest#0 STA @aSixtyFour#3) STD (eNest#1 STA eOccasional#2))",
     10, 10, 8, 7942.5, 9265.5},
    {"Q.DBLP.1.b", "DP",
     "(sort_inproceedings(((inproceedings#0 STD title#1) STD i#2)) STD author#3)",
     48, 49, 17, 1410.1699863519048, 2277.1699863519048},
    {"Q.DBLP.1.b", "DPP'",
     "(sort_inproceedings(((inproceedings#0 STD title#1) STD i#2)) STD author#3)",
     11, 12, 9, 1410.1699863519048, 2277.1699863519048},
    {"Q.DBLP.1.b", "DPP",
     "(sort_inproceedings(((inproceedings#0 STD title#1) STD i#2)) STD author#3)",
     11, 12, 9, 1410.1699863519048, 2277.1699863519048},
    {"Q.DBLP.1.b", "DPAP-EB",
     "(sort_inproceedings(((inproceedings#0 STD title#1) STD i#2)) STD author#3)",
     11, 12, 6, 1410.1699863519048, 2277.1699863519048},
    {"Q.DBLP.1.b", "DPAP-LD",
     "(sort_inproceedings(((inproceedings#0 STD title#1) STD i#2)) STD author#3)",
     11, 12, 9, 1410.1699863519048, 2277.1699863519048},
    {"Q.DBLP.1.b", "FP",
     "((inproceedings#0 STA (title#1 STA i#2)) STD author#3)",
     10, 10, 8, 1722.5599999999999, 2589.5599999999999},
    {"Q.DBLP.2.c", "DP",
     "(sort_cite((((article#0 STA cite#3) STD title#1) STD i#2)) STD @label#4)",
     168, 169, 50, 1054.6910063045523, 1564.6910063045523},
    {"Q.DBLP.2.c", "DPP'",
     "(sort_cite((((article#0 STA cite#3) STD title#1) STD i#2)) STD @label#4)",
     38, 39, 24, 1054.6910063045523, 1564.6910063045523},
    {"Q.DBLP.2.c", "DPP",
     "(sort_cite((((article#0 STA cite#3) STD title#1) STD i#2)) STD @label#4)",
     37, 38, 24, 1054.6910063045523, 1564.6910063045523},
    {"Q.DBLP.2.c", "DPAP-EB",
     "(sort_cite(((sort_article((article#0 STD cite#3)) STD title#1) STD i#2)) STD @label#4)",
     31, 32, 13, 1058.3077763002768, 1568.3077763002766},
    {"Q.DBLP.2.c", "DPAP-LD",
     "(sort_cite((((article#0 STA cite#3) STD title#1) STD i#2)) STD @label#4)",
     33, 34, 23, 1054.6910063045523, 1564.6910063045523},
    {"Q.DBLP.2.c", "FP",
     "(((article#0 STA (title#1 STA i#2)) STD cite#3) STD @label#4)",
     14, 13, 11, 1560.8000000000002, 2070.7999999999997},
    {"Q.Pers.1.a", "DP",
     "(manager#0 STD (employee#1 STA name#2))",
     12, 13, 5, 7806.3999999999996, 9439.3999999999996},
    {"Q.Pers.1.a", "DPP'",
     "(manager#0 STD (employee#1 STA name#2))",
     5, 6, 5, 7806.3999999999996, 9439.3999999999996},
    {"Q.Pers.1.a", "DPP",
     "(manager#0 STD (employee#1 STA name#2))",
     5, 6, 5, 7806.3999999999996, 9439.3999999999996},
    {"Q.Pers.1.a", "DPAP-EB",
     "(manager#0 STD (employee#1 STA name#2))",
     5, 6, 3, 7806.3999999999996, 9439.3999999999996},
    {"Q.Pers.1.a", "DPAP-LD",
     "(manager#0 STD (employee#1 STA name#2))",
     5, 6, 5, 7806.3999999999996, 9439.3999999999996},
    {"Q.Pers.1.a", "FP",
     "(manager#0 STD (employee#1 STA name#2))",
     6, 7, 5, 7806.3999999999996, 9439.3999999999996},
    {"Q.Pers.2.c", "DP",
     "((manager#0 STA (department#3 STA name#4)) STD (employee#1 STA name#2))",
     168, 169, 50, 23321.68888888889, 26099.68888888889},
    {"Q.Pers.2.c", "DPP'",
     "((manager#0 STA (department#3 STA name#4)) STD (employee#1 STA name#2))",
     103, 104, 42, 23321.68888888889, 26099.68888888889},
    {"Q.Pers.2.c", "DPP",
     "((manager#0 STA (department#3 STA name#4)) STD (employee#1 STA name#2))",
     87, 88, 38, 23321.68888888889, 26099.68888888889},
    {"Q.Pers.2.c", "DPAP-EB",
     "((manager#0 STA (department#3 STA name#4)) STD (employee#1 STA name#2))",
     45, 46, 13, 23321.68888888889, 26099.68888888889},
    {"Q.Pers.2.c", "DPAP-LD",
     "(((manager#0 STA (department#3 STA name#4)) STD employee#1) STD name#2)",
     46, 47, 23, 56617.155555555561, 59395.155555555561},
    {"Q.Pers.2.c", "FP",
     "((manager#0 STA (department#3 STA name#4)) STD (employee#1 STA name#2))",
     14, 13, 11, 23321.68888888889, 26099.68888888889},
    {"Q.Pers.3.d", "DP",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     550, 551, 138, 19274.356043580901, 22232.356043580901},
    {"Q.Pers.3.d", "DPP'",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     359, 360, 117, 19274.356043580901, 22232.356043580901},
    {"Q.Pers.3.d", "DPP",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     315, 316, 109, 19274.356043580901, 22232.356043580901},
    {"Q.Pers.3.d", "DPAP-EB",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     96, 97, 21, 19274.356043580901, 22232.356043580901},
    {"Q.Pers.3.d", "DPAP-LD",
     "(((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD employee#1) STD name#2)",
     78, 79, 36, 41180.417154692019, 44138.417154692019},
    {"Q.Pers.3.d", "FP",
     "((manager#0 STA (manager#3 STA (department#4 STA name#5))) STD (employee#1 STA name#2))",
     18, 16, 14, 19451.420370370368, 22409.420370370372},
    {"Q.Pers.4.d", "DP",
     "((manager#0 STA (department#1 STA name#2)) STD sort_manager(((manager#3 STD employee#4) STD name#5)))",
     550, 551, 138, 21527.473590631947, 24485.473590631947},
    {"Q.Pers.4.d", "DPP'",
     "((manager#0 STA (department#1 STA name#2)) STD sort_manager(((manager#3 STD employee#4) STD name#5)))",
     425, 426, 129, 21527.473590631947, 24485.473590631947},
    {"Q.Pers.4.d", "DPP",
     "((manager#0 STA (department#1 STA name#2)) STD sort_manager(((manager#3 STD employee#4) STD name#5)))",
     369, 370, 119, 21527.473590631947, 24485.473590631947},
    {"Q.Pers.4.d", "DPAP-EB",
     "((manager#0 STA (department#1 STA name#2)) STD sort_manager(((manager#3 STD employee#4) STD name#5)))",
     96, 97, 21, 21527.473590631947, 24485.473590631947},
    {"Q.Pers.4.d", "DPAP-LD",
     "(((manager#0 STA sort_manager(((manager#3 STD employee#4) STD name#5))) STD department#1) STD name#2)",
     97, 98, 41, 48598.721738780099, 51556.721738780099},
    {"Q.Pers.4.d", "FP",
     "((manager#0 STA (department#1 STA name#2)) STD (manager#3 STA (employee#4 STA name#5)))",
     18, 16, 14, 21831.282716049383, 24789.282716049383},
};

// Table 2's setting (bench_table2): paper-scale Pers, positional
// histograms, Q.Pers.3.d. EXPERIMENTS.md records the same counts.
const PinnedPlan kTable2Pins[] = {
    {"Q.Pers.3.d", "DP",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     550, 551, 138, 59185.50652565276, 66556.50652565276},
    {"Q.Pers.3.d", "DPP'",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     374, 375, 120, 59185.50652565276, 66556.50652565276},
    {"Q.Pers.3.d", "DPP",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     327, 328, 112, 59185.50652565276, 66556.50652565276},
    {"Q.Pers.3.d", "DPAP-EB",
     "((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD (employee#1 STA name#2))",
     96, 97, 21, 59185.50652565276, 66556.50652565276},
    {"Q.Pers.3.d", "DPAP-LD",
     "(((manager#0 STA sort_manager(((manager#3 STD department#4) STD name#5))) STD employee#1) STD name#2)",
     79, 80, 37, 136621.30032840819, 143992.30032840819},
    {"Q.Pers.3.d", "FP",
     "((manager#0 STA (manager#3 STA (department#4 STA name#5))) STD (employee#1 STA name#2))",
     18, 16, 14, 59494.390568524723, 66865.390568524715},
};

// Table 2's line-up: the five paper algorithms plus DPP'.
std::vector<std::unique_ptr<Optimizer>> Table2Optimizers(size_t num_edges) {
  std::vector<std::unique_ptr<Optimizer>> out;
  out.push_back(MakeDpOptimizer());
  out.push_back(MakeDppOptimizer(/*lookahead=*/false));
  out.push_back(MakeDppOptimizer(/*lookahead=*/true));
  out.push_back(MakeDpapEbOptimizer(static_cast<uint32_t>(num_edges)));
  out.push_back(MakeDpapLdOptimizer());
  out.push_back(MakeFpOptimizer());
  return out;
}

void ExpectPinned(const std::string& query, const OptimizeContext& ctx,
                  const PinnedPlan* pins, size_t num_pins) {
  size_t checked = 0;
  for (const auto& optimizer : Table2Optimizers(ctx.pattern->NumEdges())) {
    const PinnedPlan* pin = nullptr;
    for (size_t i = 0; i < num_pins; ++i) {
      if (query == pins[i].query &&
          std::string(optimizer->name()) == pins[i].algo) {
        pin = &pins[i];
      }
    }
    ASSERT_NE(pin, nullptr) << query << " " << optimizer->name();
    Result<OptimizeResult> r = optimizer->Optimize(ctx);
    ASSERT_TRUE(r.ok()) << optimizer->name() << ": " << r.status().ToString();
    const OptimizeResult& got = r.value();
    EXPECT_EQ(PlanSignature(got.plan, *ctx.pattern), pin->signature)
        << pin->algo;
    EXPECT_EQ(got.stats.plans_considered, pin->plans_considered) << pin->algo;
    EXPECT_EQ(got.stats.statuses_generated, pin->statuses_generated)
        << pin->algo;
    EXPECT_EQ(got.stats.statuses_expanded, pin->statuses_expanded)
        << pin->algo;
    EXPECT_NEAR(got.search_cost, pin->search_cost, 1e-9 * pin->search_cost)
        << pin->algo;
    EXPECT_NEAR(got.modelled_cost, pin->modelled_cost,
                1e-9 * pin->modelled_cost)
        << pin->algo;
    ++checked;
  }
  EXPECT_EQ(checked, 6u);
}

class WorkloadSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    query_ = std::move(FindQuery(GetParam())).value();
    DatasetScale scale;
    scale.base_nodes = 2000;
    db_ = std::make_unique<Database>(
        std::move(MakePaperDataset(query_.dataset, scale)).value());
    est_ = std::make_unique<ExactEstimator>(db_->doc(), db_->index());
    pe_ = std::make_unique<PatternEstimates>(
        std::move(PatternEstimates::Make(query_.pattern, db_->doc(), *est_))
            .value());
  }

  OptimizeContext Ctx() const { return {&query_.pattern, pe_.get(), &cm_}; }

  BenchQuery query_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ExactEstimator> est_;
  std::unique_ptr<PatternEstimates> pe_;
  CostModel cm_;
};

TEST_P(WorkloadSweep, AllFiveAlgorithmsProduceValidCorrectPlans) {
  auto expected = std::move(NaiveMatch(db_->doc(), query_.pattern)).value();
  Executor exec(*db_);
  for (const auto& optimizer : MakePaperOptimizers(query_.pattern.NumEdges())) {
    Result<OptimizeResult> r = optimizer->Optimize(Ctx());
    ASSERT_TRUE(r.ok()) << optimizer->name() << ": " << r.status().ToString();
    ASSERT_TRUE(ValidatePlan(r.value().plan, query_.pattern).ok())
        << optimizer->name();
    ExecResult result =
        std::move(exec.Execute(query_.pattern, r.value().plan)).value();
    EXPECT_EQ(result.tuples.Canonical(), expected) << optimizer->name();
  }
}

TEST_P(WorkloadSweep, DpAndDppAgreeOthersNeverBeatThem) {
  OptimizeResult dp = std::move(MakeDpOptimizer()->Optimize(Ctx())).value();
  OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(Ctx())).value();
  EXPECT_NEAR(dp.search_cost, dpp.search_cost, 1e-6 * (1.0 + dp.search_cost));
  for (const auto& optimizer : MakePaperOptimizers(query_.pattern.NumEdges())) {
    OptimizeResult r = std::move(optimizer->Optimize(Ctx())).value();
    EXPECT_GE(r.search_cost + 1e-6 * (1.0 + r.search_cost), dp.search_cost)
        << optimizer->name();
  }
}

TEST_P(WorkloadSweep, PlanConsiderationOrdering) {
  // Table 2's qualitative ordering: DP >= DPP >= DPAP-EB >= FP and
  // DPP >= DPAP-LD.
  OptimizeResult dp = std::move(MakeDpOptimizer()->Optimize(Ctx())).value();
  OptimizeResult dpp = std::move(MakeDppOptimizer()->Optimize(Ctx())).value();
  OptimizeResult eb =
      std::move(MakeDpapEbOptimizer(
                    static_cast<uint32_t>(query_.pattern.NumEdges()))
                    ->Optimize(Ctx()))
          .value();
  OptimizeResult ld = std::move(MakeDpapLdOptimizer()->Optimize(Ctx())).value();
  OptimizeResult fp = std::move(MakeFpOptimizer()->Optimize(Ctx())).value();
  EXPECT_GE(dp.stats.plans_considered, dpp.stats.plans_considered);
  EXPECT_GE(dpp.stats.plans_considered, eb.stats.plans_considered);
  EXPECT_GE(dpp.stats.plans_considered, ld.stats.plans_considered);
  // On trivial 2-edge chains FP's re-rooting enumeration can exceed DPP's
  // tiny search space; the ordering claim is about non-trivial patterns.
  if (query_.pattern.NumEdges() >= 3) {
    EXPECT_GE(dpp.stats.plans_considered, fp.stats.plans_considered);
  }
  EXPECT_GE(dp.stats.plans_considered, fp.stats.plans_considered);
}

TEST_P(WorkloadSweep, OptimizersBeatWorstRandomPlan) {
  Result<WorstPlanResult> worst =
      WorstOfRandomPlans(query_.pattern, *pe_, cm_, 50, 1234);
  ASSERT_TRUE(worst.ok());
  for (const auto& optimizer : MakePaperOptimizers(query_.pattern.NumEdges())) {
    OptimizeResult r = std::move(optimizer->Optimize(Ctx())).value();
    EXPECT_LE(r.modelled_cost, worst.value().modelled_cost + 1e-9)
        << optimizer->name();
  }
}

TEST_P(WorkloadSweep, HistogramEstimatesStillYieldCorrectPlans) {
  // Swap the exact estimator for positional histograms: plan quality may
  // change, correctness may not.
  PositionalHistogramEstimator hist = PositionalHistogramEstimator::Build(
      db_->doc(), db_->index(), db_->stats());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(query_.pattern, db_->doc(), hist))
          .value();
  OptimizeContext ctx{&query_.pattern, &pe, &cm_};
  auto expected = std::move(NaiveMatch(db_->doc(), query_.pattern)).value();
  Executor exec(*db_);
  for (const auto& optimizer : MakePaperOptimizers(query_.pattern.NumEdges())) {
    Result<OptimizeResult> r = optimizer->Optimize(ctx);
    ASSERT_TRUE(r.ok()) << optimizer->name() << ": " << r.status().ToString();
    ExecResult result =
        std::move(exec.Execute(query_.pattern, r.value().plan)).value();
    EXPECT_EQ(result.tuples.Canonical(), expected) << optimizer->name();
  }
}

TEST_P(WorkloadSweep, ChosenPlansArePinned) {
  ExpectPinned(GetParam(), Ctx(), kSweepPins, std::size(kSweepPins));
}

TEST(Table2Setting, ChosenPlansArePinned) {
  BenchQuery query = std::move(FindQuery("Q.Pers.3.d")).value();
  Database db = std::move(MakePaperDataset("Pers", DatasetScale{})).value();
  PositionalHistogramEstimator hist =
      PositionalHistogramEstimator::Build(db.doc(), db.index(), db.stats());
  PatternEstimates pe =
      std::move(PatternEstimates::Make(query.pattern, db.doc(), hist)).value();
  CostModel cm;
  ExpectPinned(query.id, {&query.pattern, &pe, &cm, {}}, kTable2Pins,
               std::size(kTable2Pins));
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, WorkloadSweep,
                         ::testing::Values("Q.Mbench.1.a", "Q.Mbench.2.b",
                                           "Q.DBLP.1.b", "Q.DBLP.2.c",
                                           "Q.Pers.1.a", "Q.Pers.2.c",
                                           "Q.Pers.3.d", "Q.Pers.4.d"));

}  // namespace
}  // namespace sjos
