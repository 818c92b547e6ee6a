// Holistic twig join — the multi-way structural pattern match of Bruno,
// Koudas, Srivastava ("Holistic Twig Joins: Optimal XML Pattern Matching",
// SIGMOD 2002), which the paper names as future work for its optimizer
// ("new access methods ... multi-way structural joins as in [5]").
//
// Two-phase structure, as in TwigStack:
//   Phase 1 — decompose the pattern into root-to-leaf paths and run the
//     PathStack chained-stack algorithm per path, producing each path's
//     solution list in one synchronized pass over the candidate streams.
//     (We run PathStack per path rather than TwigStack's getNext-guarded
//     single pass; this affects only intermediate path-solution counts,
//     never correctness, and keeps parent-child edges exact via level
//     filtering at expansion.)
//   Phase 2 — merge the per-path solutions on their shared pattern nodes
//     (hash join on the common prefix columns) into full twig matches.
//
// This is the natural baseline to compare against the optimizer's binary
// structural join plans (`bench_paper --only twig` runs the comparison):
// one holistic operator with no join-order decisions versus an optimized
// binary-join tree.

#ifndef SJOS_EXEC_TWIG_JOIN_H_
#define SJOS_EXEC_TWIG_JOIN_H_

#include <cstdint>

#include "common/status.h"
#include "exec/tuple_set.h"
#include "query/pattern.h"
#include "storage/catalog.h"

namespace sjos {

/// Counters from one twig join run.
struct TwigJoinStats {
  double wall_ms = 0.0;
  uint64_t path_solutions = 0;  // total phase-1 rows across paths
  uint64_t merge_rows = 0;      // rows produced by phase-2 joins
  uint64_t stack_pushes = 0;
  size_t num_paths = 0;
};

/// Evaluates `pattern` against `db` holistically. Returns the full match
/// set (schema = all pattern nodes, unordered). Supports both axes and
/// value predicates.
Result<TupleSet> TwigJoin(const Database& db, const Pattern& pattern,
                          TwigJoinStats* stats = nullptr);

}  // namespace sjos

#endif  // SJOS_EXEC_TWIG_JOIN_H_
