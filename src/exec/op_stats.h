// Per-operator execution counters, indexed by plan node, filled
// incrementally as batches flow through the operator tree. plan_printer's
// EXPLAIN ANALYZE mode renders them next to each plan node.
//
// This header sits below both src/exec/ and src/plan/ so the plan printer
// can consume executor output without a header cycle.

#ifndef SJOS_EXEC_OP_STATS_H_
#define SJOS_EXEC_OP_STATS_H_

#include <cstdint>

namespace sjos {

/// Counters for one physical operator in one execution.
struct OpStats {
  uint64_t rows = 0;     // rows this operator emitted
  uint64_t batches = 0;  // NextBatch calls served
  double time_ms = 0.0;  // inclusive wall time (operator + its children)
  /// time_ms less the children's time_ms: the operator's own work. Set
  /// once the execution finishes (or fails).
  double self_ms = 0.0;
  /// Max rows simultaneously resident in this operator's own buffers
  /// (input batches, sort buffer, join stack/stage).
  uint64_t peak_live_rows = 0;
};

}  // namespace sjos

#endif  // SJOS_EXEC_OP_STATS_H_
