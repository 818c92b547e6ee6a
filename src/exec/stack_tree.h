// The Stack-Tree family of binary structural join algorithms
// (Al-Khalifa, Jagadish, Koudas, Patel, Srivastava, Wu — ICDE 2002), the
// access methods the paper's optimizer plans over (Sec. 2.2.1).
//
// Both algorithms merge two inputs sorted by document order, maintaining an
// in-memory stack of nested open ancestors:
//   * Stack-Tree-Desc emits pairs as each descendant arrives → output
//     ordered by the DESCENDANT.
//   * Stack-Tree-Anc buffers pairs in per-stack-entry self/inherit lists
//     and releases them as entries pop → output ordered by the ANCESTOR.
//
// This implementation is tuple-generalized the way Timber generalizes
// element joins: inputs are tuple sets sorted by their join column; runs of
// tuples sharing the same join element form groups, the stack algorithm
// runs on distinct elements, and each matched element pair emits the cross
// product of its two row groups.
//
// The kernel trades in columnar batches (exec/column_batch.h): group
// detection, sortedness validation, parent-child level filtering over the
// stack, and cross-product expansion all run as column sweeps through
// exec/vector_kernels.h. The row-major TupleSet overloads are thin
// conversion shims kept for tests and boundary callers.

#ifndef SJOS_EXEC_STACK_TREE_H_
#define SJOS_EXEC_STACK_TREE_H_

#include <cstdint>

#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/tuple_set.h"
#include "query/pattern.h"
#include "storage/differential_index.h"
#include "xml/document.h"

namespace sjos {

class QueryGovernor;

/// Counters a join run reports (consumed by executor stats and tests).
struct JoinStats {
  uint64_t element_pairs = 0;  // matched (ancestor, descendant) elements
  uint64_t output_rows = 0;    // tuples emitted (after group expansion)
  uint64_t stack_pushes = 0;
  uint64_t max_stack_depth = 0;
};

/// Joins `anc` (sorted by column `anc_slot`) with `desc` (sorted by column
/// `desc_slot`) under the structural predicate `axis`
/// (ancestor-descendant or parent-child).
///
/// `output_by_ancestor` selects the algorithm: true = Stack-Tree-Anc
/// (output ordered by the ancestor column), false = Stack-Tree-Desc
/// (ordered by the descendant column).
///
/// The output schema is anc.slots() followed by desc.slots(). Fails if an
/// input is not sorted by its join column or the schemas overlap.
///
/// `max_output_rows` (0 = unlimited) aborts the join with OutOfRange once
/// the output would exceed the budget — the safety valve that lets benches
/// run deliberately terrible plans on huge documents without exhausting
/// memory.
///
/// `governor`, when non-null, is polled for the query deadline every 64
/// descendant groups; a breach aborts the join with DeadlineExceeded.
Result<ColumnBatch> StackTreeJoin(DocView view, const ColumnBatch& anc,
                                  size_t anc_slot, const ColumnBatch& desc,
                                  size_t desc_slot, Axis axis,
                                  bool output_by_ancestor,
                                  JoinStats* stats = nullptr,
                                  uint64_t max_output_rows = 0,
                                  QueryGovernor* governor = nullptr);

/// Row-major shim: converts at the boundary and runs the columnar kernel.
Result<TupleSet> StackTreeJoin(DocView view, const TupleSet& anc,
                               size_t anc_slot, const TupleSet& desc,
                               size_t desc_slot, Axis axis,
                               bool output_by_ancestor,
                               JoinStats* stats = nullptr,
                               uint64_t max_output_rows = 0,
                               QueryGovernor* governor = nullptr);

}  // namespace sjos

#endif  // SJOS_EXEC_STACK_TREE_H_
