// google-benchmark micro benchmarks for the optimizers themselves: search
// cost as the pattern grows (chains and bushy trees of 3..16 nodes). This
// is where the asymptotic separation the paper argues for — DP exponential
// vs DPP's pruned search vs FP's memoized rank sort — becomes visible
// far more starkly than on the 6-node workload queries.
//
// The BM_EnginePlan* benches measure the service layer instead: planning
// latency through Engine::Plan with a warm plan cache (fingerprint + LRU
// lookup + node-id remap) vs cold (a real search each call). Pass
// `--plan-cache off` to force even the Warm variants through the search
// path, which bounds the cache's bookkeeping overhead.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench_util.h"
#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "query/pattern_parser.h"
#include "query/workload.h"
#include "service/engine.h"
#include "storage/catalog.h"

namespace sjos {
namespace {

struct OptBench {
  std::unique_ptr<Database> db;
  std::unique_ptr<PositionalHistogramEstimator> estimator;
  Pattern pattern;
  std::unique_ptr<PatternEstimates> estimates;
  CostModel cost_model;

  OptimizeContext ctx() const {
    return {&pattern, estimates.get(), &cost_model, {}};
  }
};

/// A chain pattern manager//employee//name//... cycled over Pers tags, of
/// `n` nodes; selective and always non-empty.
std::string ChainPattern(int n) {
  const char* tags[] = {"manager", "employee", "name"};
  std::string text = "company";
  std::string suffix;
  for (int i = 1; i < n; ++i) {
    text += "[//";
    text += tags[(i - 1) % 3];
    suffix += "]";
  }
  return text + suffix;
}

/// A bushy pattern: manager root with (n-1) alternating child branches.
std::string StarPattern(int n) {
  const char* tags[] = {"employee", "department", "name", "manager", "title"};
  std::string text = "manager";
  for (int i = 1; i < n; ++i) {
    text += "[//";
    text += tags[(i - 1) % 5];
    text += "]";
  }
  return text;
}

OptBench MakeBench(const std::string& pattern_text) {
  OptBench bench;
  bench.db = std::make_unique<Database>(
      std::move(MakePaperDataset("Pers", DatasetScale{5000, 1})).value());
  bench.estimator = std::make_unique<PositionalHistogramEstimator>(
      PositionalHistogramEstimator::Build(bench.db->doc(), bench.db->index(),
                                          bench.db->stats()));
  bench.pattern = std::move(ParsePattern(pattern_text)).value();
  bench.estimates = std::make_unique<PatternEstimates>(
      std::move(PatternEstimates::Make(bench.pattern, bench.db->doc(),
                                       *bench.estimator))
          .value());
  return bench;
}

void RunOptimizer(benchmark::State& state, Optimizer* optimizer,
                  const std::string& pattern_text) {
  OptBench bench = MakeBench(pattern_text);
  uint64_t plans = 0;
  for (auto _ : state) {
    Result<OptimizeResult> r = optimizer->Optimize(bench.ctx());
    benchmark::DoNotOptimize(r);
    plans = r.value().stats.plans_considered;
  }
  state.counters["plans"] = static_cast<double>(plans);
}

void BM_DpChain(benchmark::State& state) {
  auto optimizer = MakeDpOptimizer();
  RunOptimizer(state, optimizer.get(),
               ChainPattern(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DpChain)->DenseRange(3, 9, 2);

void BM_DppChain(benchmark::State& state) {
  auto optimizer = MakeDppOptimizer();
  RunOptimizer(state, optimizer.get(),
               ChainPattern(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DppChain)->DenseRange(3, 9, 2);

void BM_FpChain(benchmark::State& state) {
  auto optimizer = MakeFpOptimizer();
  RunOptimizer(state, optimizer.get(),
               ChainPattern(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FpChain)->DenseRange(3, 9, 2);

void BM_DpStar(benchmark::State& state) {
  auto optimizer = MakeDpOptimizer();
  RunOptimizer(state, optimizer.get(),
               StarPattern(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DpStar)->DenseRange(3, 7, 2);

void BM_DppStar(benchmark::State& state) {
  auto optimizer = MakeDppOptimizer();
  RunOptimizer(state, optimizer.get(),
               StarPattern(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DppStar)->DenseRange(3, 7, 2);

void BM_DpapLdStar(benchmark::State& state) {
  auto optimizer = MakeDpapLdOptimizer();
  RunOptimizer(state, optimizer.get(),
               StarPattern(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DpapLdStar)->DenseRange(3, 7, 2);

void BM_FpStar(benchmark::State& state) {
  auto optimizer = MakeFpOptimizer();
  RunOptimizer(state, optimizer.get(),
               StarPattern(static_cast<int>(state.range(0))));
}
// 9 and 16 nodes: fan-out 8 and 15, the largest pattern admitted.
BENCHMARK(BM_FpStar)->DenseRange(3, 7, 2)->Arg(9)->Arg(16);

// ---------------------------------------------------------------------------
// Service-layer planning latency: Engine::Plan warm (cache hit) vs cold
// (cache disabled, full search every iteration).

bool g_plan_cache_enabled = true;

void RunEnginePlan(benchmark::State& state, OptimizerKind kind,
                   const std::string& pattern_text, bool warm) {
  Engine engine;
  Status opened = engine.OpenDatabase(
      std::move(MakePaperDataset("Pers", DatasetScale{5000, 1})).value());
  SJOS_CHECK(opened.ok(), opened.ToString().c_str());
  Pattern pattern = std::move(ParsePattern(pattern_text)).value();

  QueryOptions options;
  options.optimizer = kind;
  options.use_plan_cache = warm && g_plan_cache_enabled;
  if (options.use_plan_cache) {
    // Prime the cache so every timed iteration is a hit.
    SJOS_CHECK(engine.Plan(pattern, options).ok(), "priming Plan failed");
  }
  uint64_t hits = 0;
  for (auto _ : state) {
    Result<PlannedQuery> planned = engine.Plan(pattern, options);
    benchmark::DoNotOptimize(planned);
    hits += planned.value().cache_hit ? 1 : 0;
  }
  state.counters["cache_hits"] = static_cast<double>(hits);
}

void BM_EnginePlanColdDpp(benchmark::State& state) {
  RunEnginePlan(state, OptimizerKind::kDpp,
                ChainPattern(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_EnginePlanColdDpp)->DenseRange(3, 9, 2);

void BM_EnginePlanWarmDpp(benchmark::State& state) {
  RunEnginePlan(state, OptimizerKind::kDpp,
                ChainPattern(static_cast<int>(state.range(0))), true);
}
BENCHMARK(BM_EnginePlanWarmDpp)->DenseRange(3, 9, 2);

void BM_EnginePlanColdFp(benchmark::State& state) {
  RunEnginePlan(state, OptimizerKind::kFp,
                StarPattern(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_EnginePlanColdFp)->DenseRange(3, 7, 2);

void BM_EnginePlanWarmFp(benchmark::State& state) {
  RunEnginePlan(state, OptimizerKind::kFp,
                StarPattern(static_cast<int>(state.range(0))), true);
}
BENCHMARK(BM_EnginePlanWarmFp)->DenseRange(3, 7, 2);

}  // namespace
}  // namespace sjos

int main(int argc, char** argv) {
  const std::string plan_cache =
      sjos::bench::ParseFlag(&argc, argv, "--plan-cache");
  if (plan_cache == "off") {
    sjos::g_plan_cache_enabled = false;
  } else if (!plan_cache.empty() && plan_cache != "on") {
    std::fprintf(stderr, "--plan-cache expects on|off, got %s\n",
                 plan_cache.c_str());
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
