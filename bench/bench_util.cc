#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "common/metrics.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "plan/plan_printer.h"
#include "plan/random_plans.h"

namespace sjos {
namespace bench {

namespace {

/// Within a rep, an operation faster than this runs again until its runs
/// add up to about this long, and the rep reads the fastest of them.
constexpr double kMinRepMs = 50.0;

/// Runs `sample` once and fills in its wall time.
Result<Run> TimeOnce(const Sample& sample) {
  const auto start = std::chrono::steady_clock::now();
  Result<Run> r = sample();
  if (!r.ok()) return r;
  Run run = r.value();
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  return run;
}

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

namespace {

/// Executes `plan` once; a run that trips `row_budget` is capped (its time
/// is the time spent before the abort).
Sample ExecuteSample(const QueryEnv& env, PhysicalPlan plan,
                     uint64_t row_budget) {
  ExecOptions options;
  options.max_join_output_rows = row_budget;
  auto exec = std::make_shared<Executor>(env.db(), options);
  return [&env, exec, plan = std::move(plan), row_budget]() -> Result<Run> {
    Result<ExecResult> result = exec->Execute(env.pattern(), plan);
    Run run;
    if (!result.ok()) {
      if (row_budget == 0 ||
          result.status().code() != StatusCode::kOutOfRange) {
        return result.status();
      }
      run.capped = true;
      return run;
    }
    run.rows = result.value().stats.result_rows;
    run.peak_live_rows = result.value().stats.peak_live_rows;
    return run;
  };
}

}  // namespace

Cell Optimized(const QueryEnv& env, std::unique_ptr<Optimizer> optimizer) {
  Result<OptimizeResult> chosen = optimizer->Optimize(env.ctx());
  SJOS_CHECK(chosen.ok(), chosen.status().ToString().c_str());
  Cell cell;
  cell.m.algo = optimizer->name();
  cell.m.plans_considered = chosen.value().stats.plans_considered;
  cell.m.modelled_cost = chosen.value().modelled_cost;
  cell.m.signature = PlanSignature(chosen.value().plan, env.pattern());
  cell.execute =
      ExecuteSample(env, std::move(chosen).value().plan, /*row_budget=*/0);
  std::shared_ptr<Optimizer> shared = std::move(optimizer);
  cell.optimize = [&env, shared]() -> Result<Run> {
    Result<OptimizeResult> r = shared->Optimize(env.ctx());
    if (!r.ok()) return r.status();
    return Run{};
  };
  return cell;
}

Cell BadPlan(const QueryEnv& env, size_t samples, uint64_t seed,
             uint64_t row_budget) {
  Result<WorstPlanResult> worst = WorstOfRandomPlans(
      env.pattern(), env.estimates(), env.cost_model(), samples, seed);
  SJOS_CHECK(worst.ok(), worst.status().ToString().c_str());
  Cell cell;
  cell.m.algo = "Bad";
  cell.m.modelled_cost = worst.value().modelled_cost;
  cell.m.signature = PlanSignature(worst.value().plan, env.pattern());
  cell.execute =
      ExecuteSample(env, std::move(worst).value().plan, row_budget);
  return cell;
}

Status TimeRow(std::vector<Cell>* row) {
  // One slot per timed operation: each cell's optimization, if it has
  // one, then its execution.
  struct Slot {
    const Sample* sample;
    double* ms;
    Measurement* eval;  // null for an optimization
    int runs = 1;       // runs per rep
  };
  std::vector<Slot> slots;
  for (Cell& cell : *row) {
    if (cell.optimize) {
      slots.push_back({&cell.optimize, &cell.m.opt_ms, nullptr});
    }
    slots.push_back({&cell.execute, &cell.m.eval_ms, &cell.m});
  }
  // The untimed warm-up run also sizes each operation's runs per rep.
  int max_runs = 1;
  for (Slot& slot : slots) {
    Result<Run> r = TimeOnce(*slot.sample);
    if (!r.ok()) return r.status();
    if (!r.value().capped && r.value().ms < kMinRepMs) {
      slot.runs = static_cast<int>(kMinRepMs / std::max(r.value().ms, 1e-3));
      max_runs = std::max(max_runs, slot.runs);
    }
    *slot.ms = std::numeric_limits<double>::infinity();
  }
  // Round-robin at the grain of single runs, each slot's runs spread
  // evenly over a rep's passes, so a fast or slow stretch of the host
  // longer than one pass reaches every slot alike.
  for (int rep = 0; rep < kReps; ++rep) {
    for (int64_t i = 0; i < max_runs; ++i) {
      for (Slot& slot : slots) {
        if ((i + 1) * slot.runs / max_runs == i * slot.runs / max_runs) {
          continue;
        }
        Result<Run> r = TimeOnce(*slot.sample);
        if (!r.ok()) return r.status();
        *slot.ms = std::min(*slot.ms, r.value().ms);
        if (slot.eval != nullptr) {
          slot.eval->result_rows = r.value().rows;
          slot.eval->peak_live_rows = r.value().peak_live_rows;
          slot.eval->eval_capped = r.value().capped;
        }
      }
    }
  }
  return Status::OK();
}

std::string ParseFlag(int* argc, char** argv, const std::string& flag) {
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
    }
  }
  *argc = out;
  return value;
}

void JsonReport::Add(const std::string& section, const std::string& query,
                     const Measurement& m) {
  if (!path_.empty()) rows_.push_back({section, query, m});
}

bool JsonReport::Write(const std::vector<Claim>& claims) const {
  if (path_.empty()) return true;
  std::string out = "{\n  \"bench\": \"paper\",\n  \"results\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Measurement& m = rows_[i].m;
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"section\": ";
    AppendJsonString(rows_[i].section, &out);
    out += ", \"query\": ";
    AppendJsonString(rows_[i].query, &out);
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
  out += "\n  ],\n  \"claims\": [";
  for (size_t i = 0; i < claims.size(); ++i) {
    const Claim& c = claims[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendJsonString(c.name, &out);
    out += StrFormat(", \"ratio\": %.6f, \"op\": ", c.ratio);
    AppendJsonString(c.op, &out);
    out += StrFormat(", \"threshold\": %.6f, \"pass\": %s}", c.threshold,
                     c.pass ? "true" : "false");
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

std::string Ms(double ms) {
  if (ms >= 100.0) return StrFormat("%.0f", ms);
  if (ms >= 1.0) return StrFormat("%.2f", ms);
  return StrFormat("%.3f", ms);
}

}  // namespace bench
}  // namespace sjos
