// Engine service-facade tests: lifecycle errors, concurrent Submit parity
// with synchronous Query, the admission gate, cooperative cancellation,
// submit-path fault injection, the warm-cache contract (no optimize span
// in the trace, hit counter incremented) and the optimizer driver's spans
// for every algorithm.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/executor.h"
#include "query/pattern_parser.h"
#include "service/engine.h"
#include "xml/generators/pers_gen.h"

namespace sjos {
namespace {

Pattern Parse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return std::move(pattern).value();
}

Database SmallPers(uint64_t seed = 7) {
  PersGenConfig config;
  config.target_nodes = 900;
  config.seed = seed;
  return Database::Open(GeneratePers(config).value());
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EngineTest, QueryWithoutDatabaseIsNotFound) {
  Engine engine;
  EXPECT_FALSE(engine.has_database());
  Result<QueryResult> r = engine.Query(Parse("a[/b]"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Apply(FoldMutation{2}).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, InvalidPatternIsRejected) {
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern empty;  // no root
  EXPECT_FALSE(engine.Plan(empty).ok());
}

TEST(EngineTest, ConcurrentSubmitsMatchSynchronousQuery) {
  const char* texts[] = {
      "manager[//employee[/name]][//department]",
      "employee[/name]",
      "department[//employee]",
      "manager[//department[/name]]",
      "company[//manager[//employee]]",
      "manager[/employee][/department]",
  };

  EngineOptions opts;
  opts.cache_max_q_error = 0;  // deterministic residency for the hit check
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());

  std::vector<Pattern> patterns;
  std::vector<std::vector<std::vector<uint32_t>>> expected;
  for (const char* text : texts) {
    patterns.push_back(Parse(text));
    QueryOptions uncached;
    uncached.use_plan_cache = false;
    Result<QueryResult> r = engine.Query(patterns.back(), uncached);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    expected.push_back(r.value().tuples.Canonical());
  }

  // Several rounds so later rounds run against a warm cache while earlier
  // handles are still outstanding.
  std::vector<QueryHandle> handles;
  for (int round = 0; round < 3; ++round) {
    for (const Pattern& pattern : patterns) {
      handles.push_back(engine.Submit(pattern));
    }
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    const Result<QueryResult>& r = handles[i].Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tuples.Canonical(), expected[i % expected.size()])
        << "submit " << i;
  }
  EXPECT_GE(engine.plan_cache().Counters().hits, 1u);
}

TEST(EngineTest, AdmissionGateBoundsConcurrency) {
  EngineOptions opts;
  opts.max_in_flight = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]][//department]");

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(engine.Submit(pattern));
  for (QueryHandle& handle : handles) {
    ASSERT_TRUE(handle.Wait().ok());
  }
  EXPECT_GE(engine.peak_in_flight(), 1u);
  EXPECT_LE(engine.peak_in_flight(), 2u);
}

TEST(EngineTest, InFlightGaugeCountsSynchronousQueries) {
  // One registry counts every query inside RunQuery, so a synchronous
  // Query shows in the gauge exactly as it does in InFlightQueries().
  Gauge& gauge = MetricsRegistry::Global().GetGauge("sjos_engine_in_flight");
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]][//department]");
  QueryOptions options;
  options.use_plan_cache = false;

  ASSERT_TRUE(FailpointRegistry::Global().Enable("exec.batch", "delay:20").ok());
  std::thread runner([&] { EXPECT_TRUE(engine.Query(pattern, options).ok()); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t listed = 0;
  while ((listed = engine.InFlightQueries().size()) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t gauged = gauge.Value();
  FailpointRegistry::Global().Disable("exec.batch");
  runner.join();

  EXPECT_EQ(listed, 1u);
  EXPECT_EQ(gauged, static_cast<int64_t>(listed));
  EXPECT_EQ(engine.InFlightQueries().size(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(engine.peak_in_flight(), 1u);
}

TEST(EngineTest, CancelBeforeDispatchReturnsCancelled) {
  // One worker + a dispatch delay: the second submission cannot start
  // until the first finishes, so its cancel always lands first.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("service.submit", "delay:20").ok());
  EngineOptions opts;
  opts.max_in_flight = 1;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("employee[/name]");

  QueryHandle first = engine.Submit(pattern);
  QueryHandle second = engine.Submit(pattern);
  second.Cancel();

  EXPECT_TRUE(first.Wait().ok());
  const Result<QueryResult>& r = second.Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The query never optimized or executed — the verdict distinguishes the
  // pre-dispatch drop from the governor's mid-execute "cancelled".
  EXPECT_EQ(second.error_info().verdict, "cancelled-before-dispatch");
  FailpointRegistry::Global().Disable("service.submit");
}

TEST(EngineTest, QueryIdIsStableFromSubmitThroughErrorInfo) {
  // Same setup as CancelBeforeDispatch: the second submission's cancel
  // lands before dispatch, so it fails — and the id it was submitted
  // under must survive into the handle, the error report, and the audit
  // log unchanged.
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("service.submit", "delay:20").ok());
  EngineOptions opts;
  opts.max_in_flight = 1;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("employee[/name]");

  QueryOptions winner_options;
  winner_options.query_id = "stable-ok";
  QueryOptions loser_options;
  loser_options.query_id = "stable-cancelled";
  QueryHandle first = engine.Submit(pattern, winner_options);
  QueryHandle second = engine.Submit(pattern, loser_options);
  EXPECT_EQ(first.query_id(), "stable-ok");
  EXPECT_EQ(second.query_id(), "stable-cancelled");
  second.Cancel();

  const Result<QueryResult>& won = first.Wait();
  ASSERT_TRUE(won.ok());
  EXPECT_EQ(won.value().query_id, "stable-ok");

  ASSERT_FALSE(second.Wait().ok());
  EXPECT_EQ(second.query_id(), "stable-cancelled");
  EXPECT_EQ(second.error_info().query_id, "stable-cancelled");
  FailpointRegistry::Global().Disable("service.submit");

  // Both outcomes — including the never-dispatched cancel — are audited
  // under their submitted ids.
  bool logged_ok = false;
  bool logged_cancelled = false;
  for (const QueryLogRecord& rec : engine.query_log().Recent(16)) {
    if (rec.query_id == "stable-ok") logged_ok = rec.ok;
    if (rec.query_id == "stable-cancelled") {
      logged_cancelled = !rec.ok;
      EXPECT_EQ(rec.verdict, "cancelled-before-dispatch");
    }
  }
  EXPECT_TRUE(logged_ok);
  EXPECT_TRUE(logged_cancelled);
}

TEST(EngineTest, CancelMidExecuteReportsGovernorVerdict) {
  // Slow every batch, then cancel only once the query is observably past
  // the dispatch gate (peak_in_flight flips to 1 after the pre-dispatch
  // cancel check): the cancel must land in the governor, whose verdict is
  // "cancelled", not "cancelled-before-dispatch".
  ASSERT_TRUE(FailpointRegistry::Global().Enable("exec.batch", "delay:20").ok());
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]][//department]");
  QueryOptions options;
  options.use_plan_cache = false;

  QueryHandle handle = engine.Submit(pattern, options);
  while (engine.peak_in_flight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.Cancel();
  const Result<QueryResult>& r = handle.Wait();
  FailpointRegistry::Global().Disable("exec.batch");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(handle.error_info().verdict, "cancelled");
}

TEST(EngineTest, ExecutorHonorsCancelToken) {
  // A pre-set token makes the governor cut the run at its first check —
  // the same path a mid-flight QueryHandle::Cancel takes.
  Database db = SmallPers();
  Pattern pattern = Parse("manager[//employee[/name]][//department]");
  std::atomic<bool> cancel{true};
  ExecOptions options;
  options.cancel_token = &cancel;
  Executor executor(db, options);
  PhysicalPlan plan;
  {
    Engine engine;
    ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
    Result<PlannedQuery> planned = engine.Plan(pattern);
    ASSERT_TRUE(planned.ok());
    plan = planned.value().plan;
  }
  Result<ExecResult> r = executor.Execute(pattern, plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(executor.last_verdict(), "cancelled");
}

TEST(EngineTest, SubmitFailpointInjectsError) {
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("service.submit", "error").ok());
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  QueryHandle handle = engine.Submit(Parse("employee[/name]"));
  const Result<QueryResult>& r = handle.Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  FailpointRegistry::Global().Disable("service.submit");

  // The engine stays usable after an injected failure.
  EXPECT_TRUE(engine.Query(Parse("employee[/name]")).ok());
}

TEST(EngineTest, WarmHitSkipsOptimizationEntirely) {
  EngineOptions opts;
  opts.cache_max_q_error = 0;  // keep the entry resident
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]][//department]");

  const std::string cold_path = ::testing::TempDir() + "/engine_cold.json";
  const std::string warm_path = ::testing::TempDir() + "/engine_warm.json";

  Counter& hits =
      MetricsRegistry::Global().GetCounter("sjos_plan_cache_hits_total");
  const uint64_t hits_before = hits.Value();

  ASSERT_TRUE(Tracer::Global().Start(cold_path).ok());
  Result<QueryResult> cold = engine.Query(pattern);
  ASSERT_TRUE(Tracer::Global().Stop().ok());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().planned.cache_hit);

  ASSERT_TRUE(Tracer::Global().Start(warm_path).ok());
  Result<QueryResult> warm = engine.Query(pattern);
  ASSERT_TRUE(Tracer::Global().Stop().ok());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm.value().planned.cache_hit);
  EXPECT_EQ(warm.value().planned.opt_stats.plans_considered, 0u);
  EXPECT_EQ(hits.Value(), hits_before + 1);

  // The optimize span is recorded inside the search; a cache hit must not
  // produce one.
  const std::string cold_trace = ReadFileOrEmpty(cold_path);
  const std::string warm_trace = ReadFileOrEmpty(warm_path);
  EXPECT_NE(cold_trace.find("optimize:"), std::string::npos);
  EXPECT_FALSE(warm_trace.empty());
  EXPECT_EQ(warm_trace.find("optimize:"), std::string::npos);
  std::remove(cold_path.c_str());
  std::remove(warm_path.c_str());
}

// The optimizer driver wraps every algorithm's search in
// optimize.search:<name> and finishes every plan, FP's included, under
// optimize.build_plan.
TEST(EngineTest, EveryOptimizerKindTracesItsSearchAndPlanFinish) {
  Engine engine;
  ASSERT_TRUE(engine.OpenDatabase(SmallPers()).ok());
  Pattern pattern = Parse("manager[//employee[/name]][//department]");
  const std::string path = ::testing::TempDir() + "/engine_kinds.json";
  const std::pair<OptimizerKind, const char*> kinds[] = {
      {OptimizerKind::kDp, "DP"},         {OptimizerKind::kDpp, "DPP"},
      {OptimizerKind::kDpapEb, "DPAP-EB"}, {OptimizerKind::kDpapLd, "DPAP-LD"},
      {OptimizerKind::kFp, "FP"}};
  for (const auto& [kind, name] : kinds) {
    QueryOptions options;
    options.optimizer = kind;
    options.use_plan_cache = false;
    ASSERT_TRUE(Tracer::Global().Start(path).ok());
    Result<PlannedQuery> planned = engine.Plan(pattern, options);
    ASSERT_TRUE(Tracer::Global().Stop().ok());
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    const std::string trace = ReadFileOrEmpty(path);
    const std::string search =
        std::string("\"name\":\"optimize.search:") + name + "\"";
    EXPECT_NE(trace.find(search), std::string::npos) << search;
    EXPECT_NE(trace.find("\"name\":\"optimize.build_plan\""),
              std::string::npos)
        << name;
  }
  std::remove(path.c_str());
}

TEST(EngineTest, LoadReplacesDatabaseAndClearsCache) {
  EngineOptions opts;
  opts.cache_max_q_error = 0;
  Engine engine(opts);
  ASSERT_TRUE(engine.OpenDatabase(SmallPers(7)).ok());
  Pattern pattern = Parse("employee[/name]");
  ASSERT_TRUE(engine.Query(pattern).ok());
  EXPECT_EQ(engine.plan_cache().Size(), 1u);

  ASSERT_TRUE(engine.OpenDatabase(SmallPers(19)).ok());
  EXPECT_EQ(engine.plan_cache().Size(), 0u);
  Result<QueryResult> r = engine.Query(pattern);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().planned.cache_hit);
}

}  // namespace
}  // namespace sjos
