// Whole-list helpers outside the streaming pipeline: the candidate-list
// index scan TwigJoin reads its streams from, plus row-major shims for
// tests and benches. The pipeline's own scan, sort and navigation
// operators live in operator.h.

#ifndef SJOS_EXEC_OPERATORS_H_
#define SJOS_EXEC_OPERATORS_H_

#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/tuple_set.h"
#include "query/pattern.h"
#include "storage/catalog.h"

namespace sjos {

/// Index access (Sec. 2.2.2): materializes the candidate list of pattern
/// node `node` — every element whose tag matches — as a one-column batch
/// in document order. A tag absent from the document yields an empty
/// batch. Predicate-free scans are a single bulk column copy out of the
/// tag index's posting arena.
ColumnBatch ScanCandidateColumns(const Database& db, const Pattern& pattern,
                                 PatternNodeId node);

/// Row-major shim over ScanCandidateColumns.
TupleSet ScanCandidates(const Database& db, const Pattern& pattern,
                        PatternNodeId node);

/// Reorders `set` by the column bound to pattern node `by_node` (a
/// row-major shim over ColumnBatch::SortBySlot). Internal error if the set
/// does not cover that node.
Status SortTuples(TupleSet* set, PatternNodeId by_node);

}  // namespace sjos

#endif  // SJOS_EXEC_OPERATORS_H_
