// The fault-injection harness itself: spec parsing, arming/disarming, the
// three firing modes, determinism of the probabilistic mode, and the macro
// behavior at real library sites (xml.parse, exec.*, opt.search).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>

#include "common/failpoint.h"
#include "exec/executor.h"
#include "plan/random_plans.h"
#include "query/pattern_parser.h"
#include "service/engine.h"
#include "storage/catalog.h"
#include "xml/generators/pers_gen.h"
#include "xml/parser.h"

namespace sjos {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisableAll(); }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
};

// The SJOS_FAILPOINT macro caches its Failpoint* in a function-local
// static, which is correct for distinct literal sites but wrong for a
// shared helper — so this helper expands the macro's logic without the
// cache, and MacroCachesPointPerSite covers the real macro.
Status HitPoint(const char* name) {
  Failpoint* fp = FailpointRegistry::Global().Get(name);
  if (fp->armed()) return fp->Fire();
  return Status::OK();
}

Status MacroSite() {
  SJOS_FAILPOINT("test.macro.site");
  return Status::OK();
}

TEST_F(FailpointTest, DisarmedByDefault) {
  Failpoint* fp = FailpointRegistry::Global().Get("test.disarmed");
  ASSERT_NE(fp, nullptr);
  EXPECT_FALSE(fp->armed());
  EXPECT_EQ(fp->SpecString(), "off");
  EXPECT_TRUE(HitPoint("test.disarmed").ok());
}

TEST_F(FailpointTest, MacroCachesPointPerSite) {
  EXPECT_TRUE(MacroSite().ok());
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("test.macro.site", "error").ok());
  Status st = MacroSite();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  FailpointRegistry::Global().Disable("test.macro.site");
  EXPECT_TRUE(MacroSite().ok());
}

TEST_F(FailpointTest, GetReturnsStablePointer) {
  Failpoint* a = FailpointRegistry::Global().Get("test.stable");
  Failpoint* b = FailpointRegistry::Global().Get("test.stable");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "test.stable");
}

TEST_F(FailpointTest, ErrorModeFailsEveryHit) {
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.err", "error").ok());
  Failpoint* fp = FailpointRegistry::Global().Get("test.err");
  EXPECT_TRUE(fp->armed());
  EXPECT_EQ(fp->SpecString(), "error");
  const uint64_t before = fp->hits();
  for (int i = 0; i < 3; ++i) {
    Status st = HitPoint("test.err");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_NE(st.message().find("test.err"), std::string::npos);
  }
  EXPECT_EQ(fp->hits(), before + 3);
}

TEST_F(FailpointTest, DelayModeSleepsThenSucceeds) {
  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("test.delay", "delay:30").ok());
  EXPECT_EQ(FailpointRegistry::Global().Get("test.delay")->SpecString(),
            "delay:30");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(HitPoint("test.delay").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
}

TEST_F(FailpointTest, ProbModeIsDeterministicPerEnable) {
  auto run_sequence = [](int n) {
    std::string outcome;
    for (int i = 0; i < n; ++i) {
      outcome += HitPoint("test.prob").ok() ? 'o' : 'x';
    }
    return outcome;
  };
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.prob", "prob:0.5").ok());
  const std::string first = run_sequence(64);
  // A fair coin over 64 draws lands both outcomes with near certainty.
  EXPECT_NE(first.find('o'), std::string::npos);
  EXPECT_NE(first.find('x'), std::string::npos);
  // Re-enabling reseeds from the point name: the sequence replays exactly.
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.prob", "prob:0.5").ok());
  EXPECT_EQ(run_sequence(64), first);
}

TEST_F(FailpointTest, ProbExtremesAreCertain) {
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.p0", "prob:0").ok());
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.p1", "prob:1").ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(HitPoint("test.p0").ok());
    EXPECT_FALSE(HitPoint("test.p1").ok());
  }
}

TEST_F(FailpointTest, DisableAndDisableAll) {
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.a", "error").ok());
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.b", "error").ok());
  FailpointRegistry::Global().Disable("test.a");
  EXPECT_TRUE(HitPoint("test.a").ok());
  EXPECT_FALSE(HitPoint("test.b").ok());
  FailpointRegistry::Global().DisableAll();
  EXPECT_TRUE(HitPoint("test.b").ok());
  EXPECT_TRUE(FailpointRegistry::Global().ArmedNames().empty());
}

TEST_F(FailpointTest, ArmedNamesSorted) {
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.z", "error").ok());
  ASSERT_TRUE(FailpointRegistry::Global().Enable("test.a", "delay:1").ok());
  const std::vector<std::string> armed =
      FailpointRegistry::Global().ArmedNames();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0], "test.a");
  EXPECT_EQ(armed[1], "test.z");
}

TEST_F(FailpointTest, MalformedSpecsRejected) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  for (const char* bad : {"", "bogus", "delay", "delay:", "delay:abc",
                          "delay:-1", "prob:", "prob:abc", "prob:1.5",
                          "prob:-0.1", "error:5"}) {
    Status st = reg.Enable("test.bad", bad);
    EXPECT_FALSE(st.ok()) << "accepted spec: " << bad;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_FALSE(FailpointRegistry::Global().Get("test.bad")->armed());
}

TEST_F(FailpointTest, EnableFromSpecList) {
  FailpointRegistry& reg = FailpointRegistry::Global();
  ASSERT_TRUE(
      reg.EnableFromSpec("test.one=error, test.two=delay:2;test.three=prob:0.5")
          .ok());
  const std::vector<std::string> armed = reg.ArmedNames();
  ASSERT_EQ(armed.size(), 3u);
  EXPECT_EQ(reg.Get("test.two")->SpecString(), "delay:2");
  // First malformed entry reported; empty entries skipped.
  EXPECT_TRUE(reg.EnableFromSpec(",,test.four=error,,").ok());
  EXPECT_FALSE(reg.EnableFromSpec("test.five=error,nonsense").ok());
}

// --- Macro behavior at real library sites -------------------------------

TEST_F(FailpointTest, XmlParseSiteInjects) {
  ASSERT_TRUE(FailpointRegistry::Global().Enable("xml.parse", "error").ok());
  Result<Document> doc = ParseXml("<a/>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInternal);
  FailpointRegistry::Global().DisableAll();
  EXPECT_TRUE(ParseXml("<a/>").ok());
}

class FailpointExecTest : public FailpointTest {
 protected:
  void SetUpDatabase() {
    PersGenConfig config;
    config.target_nodes = 2000;
    db_ = std::make_unique<Database>(Database::Open(
        std::move(GeneratePers(config)).value()));
    pattern_ = std::move(ParsePattern("manager[//employee[/name]]")).value();
    Rng rng(3);
    plan_ = std::move(RandomPlan(pattern_, &rng)).value();
  }

  std::unique_ptr<Database> db_;
  Pattern pattern_;
  PhysicalPlan plan_;
};

TEST_F(FailpointExecTest, ExecSitesInjectCleanErrors) {
  SetUpDatabase();
  // Each armed point must surface as the injected Status, never a crash:
  // exec.scan fires when a scan opens, exec.scan.next on each scan batch,
  // exec.sort when a sort buffers its input and exec.batch at every batch
  // boundary.
  for (const char* point :
       {"exec.scan", "exec.scan.next", "exec.sort", "exec.batch"}) {
    SCOPED_TRACE(point);
    ASSERT_TRUE(FailpointRegistry::Global().Enable(point, "error").ok());
    Executor exec(*db_);
    Result<ExecResult> result = exec.Execute(pattern_, plan_);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find(point), std::string::npos);
    FailpointRegistry::Global().DisableAll();
    // The engine recovers completely once disarmed.
    Result<ExecResult> clean = exec.Execute(pattern_, plan_);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_GT(clean.value().stats.result_rows, 0u);
  }
}

// An injected fault at dispatch fails a submitted query before it runs;
// its handle must still complete (with an Internal error and its
// done-callback run) instead of leaving Wait() blocked forever.
TEST_F(FailpointExecTest, DispatchFaultCompletesEngineHandle) {
  SetUpDatabase();
  EngineOptions engine_options;
  engine_options.max_in_flight = 2;
  Engine engine(engine_options);
  PersGenConfig config;
  config.target_nodes = 2000;
  ASSERT_TRUE(
      engine.Apply(LoadDocument{GeneratePers(config).value(), "Pers"}).ok());

  ASSERT_TRUE(
      FailpointRegistry::Global().Enable("service.submit", "error").ok());
  QueryHandle dropped = engine.Submit(pattern_);
  std::atomic<bool> callback_ran{false};
  dropped.SetDoneCallback([&callback_ran] { callback_ran.store(true); });
  const Result<QueryResult>& failed = dropped.Wait();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("service.submit"),
            std::string::npos);
  EXPECT_TRUE(callback_ran.load());
  FailpointRegistry::Global().DisableAll();

  // The engine keeps serving once disarmed.
  QueryHandle clean = engine.Submit(pattern_);
  ASSERT_TRUE(clean.Wait().ok()) << clean.Wait().status().ToString();
  EXPECT_GT(clean.Wait().value().stats.result_rows, 0u);
}

}  // namespace
}  // namespace sjos
