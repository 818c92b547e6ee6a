// Resource governance: deadlines and byte budgets enforced cooperatively at
// batch boundaries and inside the join kernel, with partial stats,
// verdicts, and the optimizer's deadline -> FP degradation.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/opt_status.h"
#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "exec/governor.h"
#include "exec/naive_matcher.h"
#include "exec/operators.h"
#include "exec/stack_tree.h"
#include "plan/plan_printer.h"
#include "plan/random_plans.h"
#include "query/pattern_parser.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"

namespace sjos {
namespace {

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisableAll();
    PersGenConfig config;
    config.target_nodes = 2000;
    db_ = std::make_unique<Database>(
        Database::Open(std::move(GeneratePers(config)).value()));
    pattern_ = std::move(ParsePattern("manager[//employee[/name]]")).value();
    Rng rng(3);
    plan_ = std::move(RandomPlan(pattern_, &rng)).value();
  }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }

  std::unique_ptr<Database> db_;
  Pattern pattern_;
  PhysicalPlan plan_;
};

// A delay failpoint makes any plan slow; a deadline well above an
// unbounded run of the plan must then fire whichever site is slow and
// whatever the batch size, leaving partial stats and a verdict. The
// deadline is measured, not fixed, so that the clean re-run fits under it
// on a sanitized build too. Each 30 ms delay lands before a deadline
// check (a batch delay right before one, the scan delays while the plan
// opens), and the delays add up past the deadline before the last check.
TEST_F(GovernorTest, DeadlineFiresAtEverySlowSite) {
  struct Mode {
    const char* point;
    size_t batch_rows;
  };
  const Mode modes[] = {{"exec.batch", 1024}, {"exec.scan", 1024},
                        {"exec.batch", 1}};
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.point + std::string(" batch_rows=") +
                 std::to_string(mode.batch_rows));
    ExecOptions options;
    options.batch_rows = mode.batch_rows;
    Executor unbounded(*db_, options);
    ASSERT_TRUE(unbounded.Execute(pattern_, plan_).ok());
    // 20 ms plus twice the unbounded run.
    const uint64_t deadline_ms =
        20 + 2 * static_cast<uint64_t>(
                     std::ceil(unbounded.last_stats().wall_ms));
    SCOPED_TRACE("deadline_ms=" + std::to_string(deadline_ms));
    ASSERT_TRUE(
        FailpointRegistry::Global().Enable(mode.point, "delay:30").ok());
    options.deadline_ms = deadline_ms;
    Executor exec(*db_, options);
    Result<ExecResult> result = exec.Execute(pattern_, plan_);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_STREQ(exec.last_verdict().c_str(), "deadline");
    // Partial stats survive the abort: the clock ran past the deadline.
    EXPECT_GE(exec.last_stats().wall_ms, static_cast<double>(deadline_ms));
    FailpointRegistry::Global().DisableAll();
    // No poisoned state: the same executor runs clean.
    Result<ExecResult> clean = exec.Execute(pattern_, plan_);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_GT(clean.value().stats.result_rows, 0u);
    EXPECT_STREQ(exec.last_verdict().c_str(), "");
  }
}

// The join kernel polls the deadline between descendant groups, so an
// expired deadline stops it before any output and records the verdict.
TEST_F(GovernorTest, DeadlineFiresInsideJoinKernel) {
  const ColumnBatch anc = ScanCandidateColumns(*db_, pattern_, 0);
  const ColumnBatch desc = ScanCandidateColumns(*db_, pattern_, 1);
  QueryGovernor governor(/*deadline_ms=*/1, /*max_live_bytes=*/0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Result<ColumnBatch> joined =
      StackTreeJoin(db_->View(), anc, 0, desc, 0, Axis::kDescendant,
                    /*output_by_ancestor=*/false, nullptr,
                    /*max_output_rows=*/0, &governor);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(governor.verdict(), "deadline");

  // Without a governor the same join runs to completion.
  Result<ColumnBatch> ungoverned = StackTreeJoin(
      db_->View(), anc, 0, desc, 0, Axis::kDescendant, false);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.status().ToString();
  EXPECT_GT(ungoverned.value().size(), 0u);
}

// A byte budget below the query's working set fires deterministically on
// its first breach (no failpoints involved) with the memory verdict and
// partial stats, on the 60000-node and the 2000-node document alike.
TEST_F(GovernorTest, ByteBudgetFiresDeterministically) {
  PersGenConfig big;
  big.target_nodes = 60000;
  Database big_db = Database::Open(std::move(GeneratePers(big)).value());
  struct Input {
    const Database* db;
    uint64_t max_live_bytes;
  };
  for (const Input& in : {Input{&big_db, 2048}, Input{db_.get(), 8192}}) {
    for (size_t batch_rows : {size_t{64}, size_t{1024}}) {
      SCOPED_TRACE("nodes=" + std::to_string(in.db->doc().NumNodes()) +
                   " budget=" + std::to_string(in.max_live_bytes) +
                   " batch_rows=" + std::to_string(batch_rows));
      ExecOptions options;
      options.batch_rows = batch_rows;
      options.max_live_bytes = in.max_live_bytes;
      Executor exec(*in.db, options);
      Result<ExecResult> result = exec.Execute(pattern_, plan_);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      EXPECT_STREQ(exec.last_verdict().c_str(), "memory");
      // The recorded peak shows the breach the governor acted on.
      EXPECT_GT(exec.last_stats().peak_live_bytes, options.max_live_bytes);
    }
  }
}

// With limits set but generous, results equal the oracle at every batch
// size.
TEST_F(GovernorTest, GenerousLimitsDoNotChangeResults) {
  const auto expected = std::move(NaiveMatch(db_->doc(), pattern_)).value();
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{1024}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    ExecOptions options;
    options.batch_rows = batch_rows;
    options.deadline_ms = 60000;
    options.max_live_bytes = 1ull << 30;
    Executor exec(*db_, options);
    Result<ExecResult> result = exec.Execute(pattern_, plan_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tuples.Canonical(), expected);
  }
}

// Optimizer deadline: a slow DPP search degrades to the FP heuristic, the
// fallback is recorded, and the fallback plan is still correct.
TEST_F(GovernorTest, OptimizerDeadlineFallsBackToFp) {
  PositionalHistogramEstimator estimator = PositionalHistogramEstimator::Build(
      db_->doc(), db_->index(), db_->stats());
  Result<PatternEstimates> estimates =
      PatternEstimates::Make(pattern_, db_->doc(), estimator);
  ASSERT_TRUE(estimates.ok());
  CostModel cost_model;
  OptimizeContext ctx{&pattern_, &estimates.value(), &cost_model, {}};
  ctx.options.deadline_ms = 5.0;
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("opt.search.step", "delay:20").ok());

  const uint64_t fallbacks_before =
      MetricsRegistry::Global()
          .GetCounter("sjos_opt_deadline_fallbacks_total")
          .Value();
  Result<OptimizeResult> result = MakeDppOptimizer()->Optimize(ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().fallback_from, "DPP");
  EXPECT_NE(result.value().plan.note().find("fell back"), std::string::npos);
  EXPECT_GT(MetricsRegistry::Global()
                .GetCounter("sjos_opt_deadline_fallbacks_total")
                .Value(),
            fallbacks_before);
  FailpointRegistry::Global().DisableAll();

  // The fallback plan passes the differential oracle.
  Executor exec(*db_);
  Result<ExecResult> run = exec.Execute(pattern_, result.value().plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const auto expected = std::move(NaiveMatch(db_->doc(), pattern_)).value();
  EXPECT_EQ(run.value().tuples.Canonical(), expected);

  // Without the deadline, DPP completes normally and records no fallback.
  ctx.options.deadline_ms = 0.0;
  Result<OptimizeResult> normal = MakeDppOptimizer()->Optimize(ctx);
  ASSERT_TRUE(normal.ok());
  EXPECT_TRUE(normal.value().fallback_from.empty());
}

// The DP optimizer's per-level poll degrades the same way.
TEST_F(GovernorTest, DpOptimizerDeadlineFallsBackToFp) {
  PositionalHistogramEstimator estimator = PositionalHistogramEstimator::Build(
      db_->doc(), db_->index(), db_->stats());
  Result<PatternEstimates> estimates =
      PatternEstimates::Make(pattern_, db_->doc(), estimator);
  ASSERT_TRUE(estimates.ok());
  CostModel cost_model;
  OptimizeContext ctx{&pattern_, &estimates.value(), &cost_model, {}};
  ctx.options.deadline_ms = 5.0;
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("opt.search.step", "delay:20").ok());
  Result<OptimizeResult> result = MakeDpOptimizer()->Optimize(ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().fallback_from, "DP");
}

// The fallback plans every admitted pattern: DPP cut short on a 16-node
// star (fan-out 15, the largest pattern admitted) returns FP's own plan.
TEST_F(GovernorTest, FallbackPlansTheLargestStar) {
  Pattern star;
  star.AddRoot("manager");
  const char* tags[] = {"employee", "name", "department"};
  for (size_t i = 0; i < kMaxPatternNodes - 1; ++i) {
    star.AddChild(0, tags[i % 3], Axis::kDescendant);
  }
  PositionalHistogramEstimator estimator = PositionalHistogramEstimator::Build(
      db_->doc(), db_->index(), db_->stats());
  Result<PatternEstimates> estimates =
      PatternEstimates::Make(star, db_->doc(), estimator);
  ASSERT_TRUE(estimates.ok());
  CostModel cost_model;
  OptimizeContext ctx{&star, &estimates.value(), &cost_model, {}};
  Result<OptimizeResult> fp = MakeFpOptimizer()->Optimize(ctx);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();

  ctx.options.deadline_ms = 1.0;
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("opt.search.step", "delay:5").ok());
  Result<OptimizeResult> result = MakeDppOptimizer()->Optimize(ctx);
  FailpointRegistry::Global().DisableAll();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().fallback_from, "DPP");
  EXPECT_EQ(PlanSignature(result.value().plan, star),
            PlanSignature(fp.value().plan, star));
  EXPECT_EQ(result.value().search_cost, fp.value().search_cost);
}

// With no failpoint, a 1 ms deadline bounds DPP on the 16-node star: the
// search stops at its next poll and the FP fallback sorts each node's
// neighbours by rank, so the plan arrives within a few milliseconds. The
// best of three runs is timed, so one descheduling does not fail it.
TEST_F(GovernorTest, FallbackOnTheLargestStarIsBounded) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const double bound_ms = 50.0;
#else
  const double bound_ms = 5.0;
#endif
  Pattern star;
  star.AddRoot("manager");
  const char* tags[] = {"employee", "name", "department"};
  for (size_t i = 0; i < kMaxPatternNodes - 1; ++i) {
    star.AddChild(0, tags[i % 3], Axis::kDescendant);
  }
  PositionalHistogramEstimator estimator = PositionalHistogramEstimator::Build(
      db_->doc(), db_->index(), db_->stats());
  Result<PatternEstimates> estimates =
      PatternEstimates::Make(star, db_->doc(), estimator);
  ASSERT_TRUE(estimates.ok());
  CostModel cost_model;
  OptimizeContext ctx{&star, &estimates.value(), &cost_model, {}};
  Result<OptimizeResult> fp = MakeFpOptimizer()->Optimize(ctx);
  ASSERT_TRUE(fp.ok()) << fp.status().ToString();

  ctx.options.deadline_ms = 1.0;
  double best_ms = HUGE_VAL;
  for (int run = 0; run < 3; ++run) {
    Timer timer;
    Result<OptimizeResult> result = MakeDppOptimizer()->Optimize(ctx);
    const double ms = timer.ElapsedMs();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().fallback_from, "DPP");
    EXPECT_EQ(PlanSignature(result.value().plan, star),
              PlanSignature(fp.value().plan, star));
    best_ms = std::min(best_ms, ms);
  }
  EXPECT_LE(best_ms, bound_ms);
}

}  // namespace
}  // namespace sjos
