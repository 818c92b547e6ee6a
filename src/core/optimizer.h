// The optimizer interface shared by the five algorithms of Sec. 3, the
// statistics each run reports (optimization time and the number of
// alternative plans considered — the currency of Table 2), and the
// paper's line-up of algorithms.
//
// Optimizer::Optimize is the one driver: it validates the pattern, wraps
// the algorithm's search in the `optimize.search:<name>` span, degrades a
// deadline breach to FP, finishes the plan (validation, modelled cost,
// per-operator estimates) and publishes the run's metrics. Each algorithm
// supplies only its search.
//
// Expert path: these factories and OptimizeContext are the low-level
// optimization API — you bring your own PatternEstimates and CostModel and
// execute the plan yourself. Most callers should use sjos::Engine
// (service/engine.h), which selects the algorithm via
// QueryOptions::optimizer, caches plans across repeated patterns, and
// handles estimation wiring internally.

#ifndef SJOS_CORE_OPTIMIZER_H_
#define SJOS_CORE_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "estimate/composite.h"
#include "plan/cost_model.h"
#include "plan/plan.h"
#include "query/pattern.h"

namespace sjos {

/// Optimizer-side resource limits (distinct from ExecOptions, which
/// govern execution).
struct OptimizerOptions {
  /// Wall-clock budget for the plan search in milliseconds (0 =
  /// unlimited). DP and the best-first searches (DPP, DPAP-*) poll it
  /// during search; on a breach the driver degrades gracefully to the FP
  /// heuristic instead of failing, recording the fallback in metrics
  /// (sjos_opt_deadline_fallbacks_total), OptimizeResult::fallback_from,
  /// and the plan's EXPLAIN note. Only when FP itself cannot plan the
  /// pattern (unindexed nodes) does the breach surface as
  /// Status::DeadlineExceeded. FP ignores the deadline — it IS the
  /// fallback. Its search is memoized per (node, blocked neighbour) and
  /// tries every join order of a node's neighbours, at most 8! per node.
  double deadline_ms = 0.0;
};

/// Everything an optimizer needs for one query.
struct OptimizeContext {
  const Pattern* pattern = nullptr;
  const PatternEstimates* estimates = nullptr;
  const CostModel* cost_model = nullptr;
  OptimizerOptions options;
};

/// Per-run search statistics.
struct OptimizerStats {
  uint64_t plans_considered = 0;    // alternatives costed during search
  uint64_t statuses_generated = 0;  // statuses created (incl. duplicates)
  uint64_t statuses_expanded = 0;   // statuses whose moves were enumerated
  double opt_time_ms = 0.0;         // wall-clock optimization time
};

/// The outcome of one optimization.
struct OptimizeResult {
  PhysicalPlan plan;
  /// Cost accumulated over the chosen move sequence (joins + sorts; index
  /// scans excluded, being identical across plans).
  double search_cost = 0.0;
  /// Full modelled cost of the built plan, index scans included.
  double modelled_cost = 0.0;
  OptimizerStats stats;
  /// Name of the algorithm whose search was cut short when this result
  /// came from the deadline-triggered FP fallback ("DP", "DPP", ...);
  /// empty when the original search finished.
  std::string fallback_from;
};

/// Abstract join-order optimizer.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Finds an evaluation plan for the context's pattern. Fails on invalid
  /// patterns, patterns over kMaxPatternNodes, or (for restricted search
  /// spaces) when no plan within the space exists.
  Result<OptimizeResult> Optimize(const OptimizeContext& ctx);

  /// Algorithm name as used in the paper's tables ("DP", "DPP", ...).
  virtual const char* name() const = 0;

 protected:
  /// The searches' poll point: fires the `opt.search.step` failpoint and
  /// returns DeadlineExceeded once the context's deadline has passed on
  /// `timer`, which the driver turns into the FP fallback.
  static Status PollDeadline(const OptimizeContext& ctx, const Timer& timer);

 private:
  /// The algorithm's search over a validated pattern. Fills `out->plan`
  /// and `out->search_cost`, and counts its work in `out->stats` — also
  /// when it fails, so a deadline breach (PollDeadline's status) reports
  /// the partial work.
  virtual Status Search(const OptimizeContext& ctx, const Timer& timer,
                        OptimizeResult* out) = 0;
};

/// The paper's Sec. 3 line-up, selectable per query.
enum class OptimizerKind : uint8_t {
  kDp,      // exhaustive dynamic programming (Sec. 3.1)
  kDpp,     // DP with pruning and lookahead (optimal; the default; Sec. 3.2)
  kDpapEb,  // approximate: expansion bound = number of pattern edges
  kDpapLd,  // approximate: left-deep plans only (Sec. 3.3.2)
  kFp,      // fully pipelined: the cheapest plan with no sort (Sec. 3.4)
};

inline constexpr OptimizerKind kAllOptimizerKinds[] = {
    OptimizerKind::kDp, OptimizerKind::kDpp, OptimizerKind::kDpapEb,
    OptimizerKind::kDpapLd, OptimizerKind::kFp};

/// Stable lower-case name: "dp", "dpp", "dpap-eb", "dpap-ld", "fp".
const char* OptimizerKindName(OptimizerKind kind);

/// Inverse of OptimizerKindName (case-sensitive); InvalidArgument listing
/// the accepted names otherwise.
Result<OptimizerKind> ParseOptimizerKind(std::string_view name);

/// Instantiates `kind` with the paper's Table 1 settings (DPAP-EB bound
/// T_e = number of pattern edges, chosen per Sec. 4.2).
std::unique_ptr<Optimizer> MakeOptimizer(OptimizerKind kind, size_t num_edges);

/// All five algorithms, in kAllOptimizerKinds order.
std::vector<std::unique_ptr<Optimizer>> MakePaperOptimizers(size_t num_edges);

/// One factory per algorithm, for the benches that sweep them.
std::unique_ptr<Optimizer> MakeDpOptimizer();
/// `lookahead = false` is DPP' of Table 2.
std::unique_ptr<Optimizer> MakeDppOptimizer(bool lookahead = true);
/// DPP with subtree navigation offered on every edge (extension beyond
/// the paper's join-only plan space; see bench_nav for the ablation).
std::unique_ptr<Optimizer> MakeDppNavOptimizer();
/// `expansion_bound` is T_e; 0 is raised to 1.
std::unique_ptr<Optimizer> MakeDpapEbOptimizer(uint32_t expansion_bound);
std::unique_ptr<Optimizer> MakeDpapLdOptimizer();
std::unique_ptr<Optimizer> MakeFpOptimizer();

}  // namespace sjos

#endif  // SJOS_CORE_OPTIMIZER_H_
