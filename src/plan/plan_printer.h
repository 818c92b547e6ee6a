// Text rendering of physical plans, in the spirit of the paper's Fig. 2
// plan drawings: an indented operator tree annotated with join nodes and
// axes, and (EXPLAIN ANALYZE) each operator's measured counters.

#ifndef SJOS_PLAN_PLAN_PRINTER_H_
#define SJOS_PLAN_PLAN_PRINTER_H_

#include <string>
#include <vector>

#include "exec/op_stats.h"
#include "plan/plan.h"
#include "query/pattern.h"

namespace sjos {

/// Renders `plan` as an indented tree. Pattern node ids are shown with
/// their tags, e.g. "#1(employee)".
std::string PrintPlan(const PhysicalPlan& plan, const Pattern& pattern);

/// EXPLAIN ANALYZE: the plan tree annotated with the measured per-operator
/// counters of one execution (ExecResult::op_stats, indexed by plan node):
/// rows emitted, batches served, inclusive wall time, and the operator's
/// own peak live rows. Blocking operators stand out by their peak
/// (rows-sized for Sort, ~batch-sized for streaming nodes).
std::string PrintPlanAnalyze(const PhysicalPlan& plan, const Pattern& pattern,
                             const std::vector<OpStats>& op_stats);

/// One-line summary: join order as a parenthesized expression, e.g.
/// "((A STD B) STA (D STD E))". Useful in bench output tables.
std::string PlanSignature(const PhysicalPlan& plan, const Pattern& pattern);

}  // namespace sjos

#endif  // SJOS_PLAN_PLAN_PRINTER_H_
