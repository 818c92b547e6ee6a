// Turns a chosen move sequence (the output of the status-based optimizers)
// into an executable PhysicalPlan, appending the final order-fixing sort
// when the pattern demands an explicit result order. The optimizer driver
// finishes the plan (validation, modelled cost, estimates).

#ifndef SJOS_CORE_PLAN_BUILDER_H_
#define SJOS_CORE_PLAN_BUILDER_H_

#include <vector>

#include "common/status.h"
#include "core/move_gen.h"
#include "plan/plan.h"

namespace sjos {

/// Materializes `moves` (in application order, starting from the start
/// status) as a plan over `gen`'s pattern.
Result<PhysicalPlan> BuildPlanFromMoves(const MoveGenerator& gen,
                                        const std::vector<Move>& moves);

}  // namespace sjos

#endif  // SJOS_CORE_PLAN_BUILDER_H_
