#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "plan/plan_printer.h"
#include "plan/random_plans.h"

namespace sjos {
namespace bench {

namespace {

/// Repetition policy: repeat cheap operations until this much wall time
/// has accumulated so mean timings are stable.
constexpr double kMinOptTimingMs = 20.0;
constexpr int kMaxOptReps = 512;
constexpr double kMinEvalTimingMs = 50.0;
constexpr int kMaxEvalReps = 64;

}  // namespace

DatasetHandle::DatasetHandle(const std::string& name, DatasetScale scale) {
  Result<Database> db = MakePaperDataset(name, scale);
  SJOS_CHECK(db.ok(), db.status().ToString().c_str());
  db_ = std::make_unique<Database>(std::move(db).value());
  estimator_ = std::make_unique<PositionalHistogramEstimator>(
      PositionalHistogramEstimator::Build(db_->doc(), db_->index(),
                                          db_->stats()));
}

QueryEnv::QueryEnv(const DatasetHandle& dataset, Pattern pattern)
    : db_(&dataset.db()), pattern_(std::move(pattern)) {
  Result<PatternEstimates> estimates =
      PatternEstimates::Make(pattern_, db_->doc(), dataset.estimator());
  SJOS_CHECK(estimates.ok(), estimates.status().ToString().c_str());
  estimates_ = std::make_unique<PatternEstimates>(std::move(estimates).value());
}

void TimeExecution(const QueryEnv& env, const PhysicalPlan& plan,
                   uint64_t eval_row_budget, Measurement* m,
                   ExecLimits limits) {
  ExecOptions options = limits.ExecView();
  options.max_join_output_rows = eval_row_budget;
  Executor exec(env.db(), options);
  // One untimed warm-up run eliminates cold-cache noise on plans measured
  // with a single rep; a capped warm-up is reported directly.
  {
    Timer warmup;
    Result<ExecResult> result = exec.Execute(env.pattern(), plan);
    if (!result.ok()) {
      m->eval_capped = true;
      m->eval_ms = warmup.ElapsedMs();
      return;
    }
  }
  Timer total;
  int reps = 0;
  double sum_ms = 0.0;
  for (; reps < kMaxEvalReps; ++reps) {
    Result<ExecResult> result = exec.Execute(env.pattern(), plan);
    if (!result.ok()) {
      // Row budget exceeded: report the time spent before the abort.
      m->eval_capped = true;
      m->eval_ms = total.ElapsedMs();
      return;
    }
    sum_ms += result.value().stats.wall_ms;
    m->result_rows = result.value().stats.result_rows;
    m->peak_live_rows = result.value().stats.peak_live_rows;
    if (sum_ms >= kMinEvalTimingMs) {
      ++reps;
      break;
    }
  }
  m->eval_ms = sum_ms / reps;
}

Measurement MeasureOptimizer(const QueryEnv& env, Optimizer* optimizer,
                             uint64_t eval_row_budget, ExecLimits limits) {
  Measurement m;
  m.algo = optimizer->name();

  Result<OptimizeResult> first = optimizer->Optimize(env.ctx());
  SJOS_CHECK(first.ok(), first.status().ToString().c_str());
  OptimizeResult chosen = std::move(first).value();

  // Stabilize the optimization timing with repeated runs.
  Timer timer;
  int reps = 0;
  for (; reps < kMaxOptReps && timer.ElapsedMs() < kMinOptTimingMs; ++reps) {
    Result<OptimizeResult> r = optimizer->Optimize(env.ctx());
    SJOS_CHECK(r.ok(), "optimizer rerun failed");
  }
  m.opt_ms = reps > 0 ? timer.ElapsedMs() / reps : chosen.stats.opt_time_ms;

  m.plans_considered = chosen.stats.plans_considered;
  m.modelled_cost = chosen.modelled_cost;
  m.signature = PlanSignature(chosen.plan, env.pattern());
  TimeExecution(env, chosen.plan, eval_row_budget, &m, limits);
  return m;
}

Measurement MeasureBadPlan(const QueryEnv& env, size_t samples, uint64_t seed,
                           uint64_t eval_row_budget, ExecLimits limits) {
  Measurement m;
  m.algo = "Bad";
  Result<WorstPlanResult> worst = WorstOfRandomPlans(
      env.pattern(), env.estimates(), env.cost_model(), samples, seed);
  SJOS_CHECK(worst.ok(), worst.status().ToString().c_str());
  m.modelled_cost = worst.value().modelled_cost;
  m.signature = PlanSignature(worst.value().plan, env.pattern());
  TimeExecution(env, worst.value().plan, eval_row_budget, &m, limits);
  return m;
}

bool ParsePlanCacheFlag(int* argc, char** argv, bool default_on) {
  bool on = default_on;
  const std::string flag = "--plan-cache";
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == flag && i + 1 < *argc) {
      value = argv[++i];
    } else if (arg.rfind(flag + "=", 0) == 0) {
      value = arg.substr(flag.size() + 1);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    if (value == "on") {
      on = true;
    } else if (value == "off") {
      on = false;
    } else {
      std::fprintf(stderr, "bench: ignoring %s %s (expected on|off)\n",
                   flag.c_str(), value.c_str());
    }
  }
  *argc = out;
  return on;
}

std::string ParseJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < *argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

JsonReport::JsonReport(std::string bench, std::string path)
    : bench_(std::move(bench)), path_(std::move(path)) {}

void JsonReport::Add(const std::string& query, const Measurement& m) {
  if (!active()) return;
  rows_.emplace_back(query, m);
}

bool JsonReport::Write() const {
  if (!active()) return true;
  std::string out = "{\n  \"bench\": ";
  AppendJsonString(bench_, &out);
  out += ",\n  \"results\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Measurement& m = rows_[i].second;
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"query\": ";
    AppendJsonString(rows_[i].first, &out);
    out += ", \"algo\": ";
    AppendJsonString(m.algo, &out);
    out += StrFormat(
        ", \"opt_ms\": %.6f, \"eval_ms\": %.6f, \"out_rows\": %llu, "
        "\"peak_live_rows\": %llu, \"plans_considered\": %llu, "
        "\"modelled_cost\": %.6f, \"capped\": %s, \"signature\": ",
        m.opt_ms, m.eval_ms, static_cast<unsigned long long>(m.result_rows),
        static_cast<unsigned long long>(m.peak_live_rows),
        static_cast<unsigned long long>(m.plans_considered), m.modelled_cost,
        m.eval_capped ? "true" : "false");
    AppendJsonString(m.signature, &out);
    out += '}';
  }
  out += "\n  ],\n  \"metrics\": ";
  out += MetricsRegistry::Global().Snapshot().ToJson();
  out += "\n}\n";
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path_.c_str());
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "bench: short write to %s\n", path_.c_str());
  }
  return ok;
}

ExecLimits ParseLimitFlags(int* argc, char** argv) {
  ExecLimits limits;
  const std::string deadline_flag = "--deadline-ms";
  const std::string mem_flag = "--mem-limit-bytes";
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg == deadline_flag && i + 1 < *argc) {
      limits.deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind(deadline_flag + "=", 0) == 0) {
      limits.deadline_ms =
          std::strtoull(arg.c_str() + deadline_flag.size() + 1, nullptr, 10);
    } else if (arg == mem_flag && i + 1 < *argc) {
      limits.max_live_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind(mem_flag + "=", 0) == 0) {
      limits.max_live_bytes =
          std::strtoull(arg.c_str() + mem_flag.size() + 1, nullptr, 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return limits;
}

void PrintRule(const std::vector<int>& widths) {
  for (int w : widths) {
    std::fputc('+', stdout);
    for (int i = 0; i < w + 2; ++i) std::fputc('-', stdout);
  }
  std::fputs("+\n", stdout);
}

void PrintRow(const std::vector<int>& widths,
              const std::vector<std::string>& cells) {
  for (size_t i = 0; i < widths.size(); ++i) {
    const std::string& cell = i < cells.size() ? cells[i] : std::string();
    std::printf("| %*s ", widths[i], cell.c_str());
  }
  std::fputs("|\n", stdout);
}

std::string Ms(double ms) {
  if (ms >= 100.0) return StrFormat("%.0f", ms);
  if (ms >= 1.0) return StrFormat("%.2f", ms);
  return StrFormat("%.3f", ms);
}

}  // namespace bench
}  // namespace sjos
