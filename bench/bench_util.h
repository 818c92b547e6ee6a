// Shared machinery for the benches: environment construction (data set +
// estimates + cost model per query), the one timing rule of the paper's
// tables (interleaved minimum of kReps), the worst-of-random "Bad Plan"
// baseline, the JSON report, and flag parsing.

#ifndef SJOS_BENCH_BENCH_UTIL_H_
#define SJOS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "query/workload.h"
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
  OptimizeContext ctx() const {
    return {&pattern_, estimates_.get(), &cost_model_, {}};
  }
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
  double opt_ms = 0.0;   // optimization time (0 when not optimized)
  double eval_ms = 0.0;  // execution time
  uint64_t plans_considered = 0;
  uint64_t result_rows = 0;
  uint64_t peak_live_rows = 0;  // execution's intermediate-memory high-water
  double modelled_cost = 0.0;
  bool eval_capped = false;  // execution hit the row budget
  std::string signature;     // compact plan shape
};

/// What one run of an operation reports; the timer fills in `ms`.
struct Run {
  double ms = 0.0;
  uint64_t rows = 0;
  uint64_t peak_live_rows = 0;
  bool capped = false;
};

/// One timed operation; each call runs it once.
using Sample = std::function<Result<Run>()>;

/// One cell of a timed row: an optimization (empty when the plan is fixed)
/// and an execution, and the Measurement that timing them fills in.
struct Cell {
  Measurement m;
  Sample optimize;
  Sample execute;
};

/// Timed reps per cell. A constant: every table reads the same rule.
inline constexpr int kReps = 5;

/// `optimizer` plans `env` once (signature, counters, cost); the cell
/// times that optimization and the chosen plan's execution.
Cell Optimized(const QueryEnv& env, std::unique_ptr<Optimizer> optimizer);

/// Worst of `samples` random plans by modelled cost, executed under
/// `row_budget` join output rows (`eval_capped` set if it trips).
Cell BadPlan(const QueryEnv& env, size_t samples, uint64_t seed,
             uint64_t row_budget);

/// The timing rule of every paper table. Every operation in `row` (each
/// cell's optimization and execution) gets one untimed warm-up run, then
/// kReps reps go round-robin across the row, so a slow stretch of a
/// shared host hits all cells alike. A cell reads the minimum of its
/// reps. An operation shorter than 50 ms runs about 50 ms worth of times
/// per rep, its runs spread evenly through the rep's round-robin, and
/// the rep reads the fastest. Fails on the first run that errors.
Status TimeRow(std::vector<Cell>* row);

/// Parses and strips `<flag> <value>` / `<flag>=<value>` from argv.
/// Returns the value, or empty when absent.
std::string ParseFlag(int* argc, char** argv, const std::string& flag);

/// One checked claim of the paper: `ratio <op> threshold` passes.
struct Claim {
  std::string name;
  double ratio = 0.0;
  std::string op;  // ">" or ">="
  double threshold = 0.0;
  bool pass = false;
};

/// Accumulates measurements and writes them with the claims as one
/// JSON object ({"bench": "paper", "results": [...], "claims": [...],
/// "metrics": <registry snapshot>}). Inactive (Add/Write are no-ops)
/// when constructed with an empty path.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {}

  void Add(const std::string& section, const std::string& query,
           const Measurement& m);
  /// Writes the report file; returns false (with a note on stderr) when
  /// the file cannot be written. No-op returning true when inactive.
  bool Write(const std::vector<Claim>& claims) const;

 private:
  struct Row {
    std::string section;
    std::string query;
    Measurement m;
  };
  std::string path_;
  std::vector<Row> rows_;
};

/// "12.345" / "0.012" style fixed-point with sensible precision for ms.
std::string Ms(double ms);

}  // namespace bench
}  // namespace sjos

#endif  // SJOS_BENCH_BENCH_UTIL_H_
