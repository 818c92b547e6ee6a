// Shared machinery for the table/figure reproduction benches: environment
// construction (data set + estimates + cost model per query), stabilized
// timing of optimization and plan execution, the worst-of-random "Bad
// Plan" baseline, and fixed-width table printing in the paper's style.

#ifndef SJOS_BENCH_BENCH_UTIL_H_
#define SJOS_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "query/workload.h"
#include "service/query_options.h"
#include "storage/catalog.h"

namespace sjos {
namespace bench {

/// One data set, reusable across the queries that target it.
class DatasetHandle {
 public:
  DatasetHandle(const std::string& name, DatasetScale scale);

  const Database& db() const { return *db_; }
  const PositionalHistogramEstimator& estimator() const { return *estimator_; }

 private:
  std::unique_ptr<Database> db_;
  std::unique_ptr<PositionalHistogramEstimator> estimator_;
};

/// Everything needed to optimize + run one query on one data set.
class QueryEnv {
 public:
  QueryEnv(const DatasetHandle& dataset, Pattern pattern);

  const Database& db() const { return *db_; }
  const Pattern& pattern() const { return pattern_; }
  OptimizeContext ctx() const { return {&pattern_, estimates_.get(), &cost_model_}; }
  const PatternEstimates& estimates() const { return *estimates_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  const Database* db_;
  Pattern pattern_;
  std::unique_ptr<PatternEstimates> estimates_;
  CostModel cost_model_;
};

/// One algorithm's measured numbers for one query.
struct Measurement {
  std::string algo;
  double opt_ms = 0.0;       // mean optimization wall time
  double eval_ms = 0.0;      // plan execution wall time
  uint64_t plans_considered = 0;
  uint64_t result_rows = 0;
  uint64_t peak_live_rows = 0;  // execution's intermediate-memory high-water
  double modelled_cost = 0.0;
  bool eval_capped = false;  // execution hit the row budget
  std::string signature;     // compact plan shape
};

/// Governance limits applied to every timed execution. The benches share
/// the service layer's QueryOptions instead of a private struct so
/// deadline/memory-limit plumbing exists exactly once; only deadline_ms
/// and max_live_bytes are consulted here (0 disables a limit). A governed
/// run the governor cuts short reports `eval_capped`, exactly like the
/// row-budget safety valve.
using ExecLimits = QueryOptions;

/// Runs `optimizer` on `env`: optimization timed over repeated runs (mean),
/// the chosen plan executed once (re-run and averaged if very fast).
Measurement MeasureOptimizer(const QueryEnv& env, Optimizer* optimizer,
                             uint64_t eval_row_budget = 0,
                             ExecLimits limits = {});

/// Worst-of-`samples` random plans by modelled cost, then executed with a
/// row budget (`eval_capped` set if it tripped).
Measurement MeasureBadPlan(const QueryEnv& env, size_t samples, uint64_t seed,
                           uint64_t eval_row_budget, ExecLimits limits = {});

/// Executes a plan with stabilized timing; fills eval_ms/result_rows/
/// eval_capped of `m`.
void TimeExecution(const QueryEnv& env, const PhysicalPlan& plan,
                   uint64_t eval_row_budget, Measurement* m,
                   ExecLimits limits = {});

/// Parses and strips `--deadline-ms N` and `--mem-limit-bytes N` flags
/// (both also accept the `=N` form) so any bench can run governed. Absent
/// flags leave the corresponding limit at 0 (off).
ExecLimits ParseLimitFlags(int* argc, char** argv);

/// Parses and strips a `--plan-cache on|off` / `--plan-cache=on|off` flag
/// from argv. Returns `default_on` when the flag is absent.
bool ParsePlanCacheFlag(int* argc, char** argv, bool default_on = true);

/// Parses and strips a `--json <file>` / `--json=<file>` flag from argv.
/// Returns the path, or empty when absent.
std::string ParseJsonFlag(int* argc, char** argv);

/// Accumulates per-query measurements and writes them as one JSON object
/// ({"bench", "results": [...], "metrics": <registry snapshot>}) so the
/// BENCH_*.json trajectory tooling can diff runs. Inactive (Add/Write are
/// no-ops) when constructed with an empty path.
class JsonReport {
 public:
  JsonReport(std::string bench, std::string path);

  bool active() const { return !path_.empty(); }
  void Add(const std::string& query, const Measurement& m);
  /// Writes the report file; returns false (with a note on stderr) when
  /// the file cannot be written. No-op returning true when inactive.
  bool Write() const;

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::pair<std::string, Measurement>> rows_;
};

/// printf-style table output: pads `text` to `width` (right-aligned for
/// numbers via FormatCell helpers).
void PrintRule(const std::vector<int>& widths);
void PrintRow(const std::vector<int>& widths,
              const std::vector<std::string>& cells);

/// "12.345" / "0.012" style fixed-point with sensible precision for ms.
std::string Ms(double ms);

}  // namespace bench
}  // namespace sjos

#endif  // SJOS_BENCH_BENCH_UTIL_H_
