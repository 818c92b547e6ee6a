// Derived plan properties: which pattern nodes each operator covers, the
// physical order of its output, validity (join inputs correctly ordered,
// each pattern node scanned exactly once, every edge joined exactly once),
// shape classification (left-deep vs bushy, fully-pipelined vs blocking),
// and modelled cost.

#ifndef SJOS_PLAN_PLAN_PROPS_H_
#define SJOS_PLAN_PLAN_PROPS_H_

#include <vector>

#include "common/status.h"
#include "estimate/composite.h"
#include "exec/op_stats.h"
#include "plan/cost_model.h"
#include "plan/plan.h"
#include "query/pattern.h"

namespace sjos {

/// Per-operator derived properties.
struct OpProps {
  NodeMask covered = 0;                       // pattern nodes produced
  PatternNodeId ordered_by = kNoPatternNode;  // physical output order
  double est_rows = 0.0;                      // estimated output tuples
  double est_cost = 0.0;                      // cumulative modelled cost
};

/// Whole-plan summary.
struct PlanProps {
  std::vector<OpProps> ops;  // indexed like the plan's nodes
  double total_cost = 0.0;
  bool fully_pipelined = false;  // no Sort operator anywhere
  bool left_deep = false;        // every join's right input is a leaf scan
  size_t num_sorts = 0;
  size_t num_joins = 0;
};

/// Checks structural validity of `plan` against `pattern`:
///   * the root covers all pattern nodes,
///   * each pattern node is scanned exactly once,
///   * every join evaluates a distinct pattern edge whose endpoints come
///     one from each input,
///   * both join inputs are ordered by their respective join nodes.
Status ValidatePlan(const PhysicalPlan& plan, const Pattern& pattern);

/// Computes properties + modelled cost. Fails where ValidatePlan would.
Result<PlanProps> ComputePlanProps(const PhysicalPlan& plan,
                                   const Pattern& pattern,
                                   const PatternEstimates& estimates,
                                   const CostModel& cost_model);

/// Copies each operator's estimated output rows from `props` into the plan
/// nodes (PlanNode::est_rows), closing the estimate-vs-actual loop: the
/// executor compares the annotations against measured rows.
void AnnotatePlanEstimates(PhysicalPlan* plan, const PlanProps& props);

/// q-error of a cardinality estimate: max(est/act, act/est) with both
/// sides clamped to >= 1 row, so the result is always finite and >= 1
/// (an estimate of 0 for an empty actual is a perfect 1.0).
double QError(double est_rows, double actual_rows);

/// Worst q-error over the plan's annotated joins against one execution's
/// measured output rows (`op_stats`, indexed by plan node); joins that
/// never served a batch are skipped. 0 when no join qualifies. ExecStats'
/// max_q_error and EXPLAIN ANALYZE both report it.
double MaxJoinQError(const PhysicalPlan& plan,
                     const std::vector<OpStats>& op_stats);

}  // namespace sjos

#endif  // SJOS_PLAN_PLAN_PROPS_H_
