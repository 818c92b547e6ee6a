// Whole-list helper outside the streaming pipeline: the candidate-list
// index scan TwigJoin reads its streams from. The pipeline's own scan,
// sort and navigation operators live in operator.h.

#ifndef SJOS_EXEC_OPERATORS_H_
#define SJOS_EXEC_OPERATORS_H_

#include "common/status.h"
#include "exec/column_batch.h"
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

}  // namespace sjos

#endif  // SJOS_EXEC_OPERATORS_H_
