// QueryOptions: the one knob struct of the service layer. It unifies what
// the low-level API splits across ExecOptions (execution) and
// OptimizerOptions (plan search) and adds the two service-level choices —
// which of the paper's five algorithms plans the query (OptimizerKind,
// declared with the line-up in core/optimizer.h) and whether the Engine's
// plan cache may serve it. The old structs stay as the expert path;
// QueryOptions derives them via ExecView()/OptimizerView() so limits are
// declared once and enforced everywhere.

#ifndef SJOS_SERVICE_QUERY_OPTIONS_H_
#define SJOS_SERVICE_QUERY_OPTIONS_H_

#include <cstdint>
#include <string>

#include "core/optimizer.h"
#include "exec/executor.h"

namespace sjos {

/// Per-query settings for Engine::Plan/Query/Submit. Zero limits mean
/// unlimited; the defaults match the low-level structs' defaults.
struct QueryOptions {
  /// Which algorithm plans the query (also part of the plan-cache key, so
  /// switching algorithms never serves another algorithm's plan).
  OptimizerKind optimizer = OptimizerKind::kDpp;

  /// Wall-clock budget for the WHOLE query — optimization plus execution —
  /// in milliseconds (0 = unlimited). The Engine charges optimization time
  /// against it and hands the remainder to the executor; a plan-cache hit
  /// leaves the full budget for execution. During the search phase a
  /// breach degrades to the FP heuristic (see OptimizerOptions); during
  /// execution it surfaces as Status::DeadlineExceeded.
  uint64_t deadline_ms = 0;

  /// Budget on live intermediate bytes (0 = unlimited); see
  /// ExecOptions::max_live_bytes for enforcement and relief semantics.
  uint64_t max_live_bytes = 0;

  /// Abort any single join whose output exceeds this many rows
  /// (0 = unlimited).
  uint64_t max_join_output_rows = 0;

  /// Streaming batch capacity; 0 = auto (SJOS_EXEC_BATCH_ROWS or the
  /// built-in default).
  size_t batch_rows = 0;

  /// Whether the Engine's plan cache may serve and store this query's
  /// plan. Off = always optimize fresh (the cache is left untouched).
  bool use_plan_cache = true;

  /// Attribution label (the network service sets it from the wire
  /// request). Purely observational: it is copied into the audit record
  /// and /statusz, and mints no metric series, so client-chosen names
  /// cannot grow the registry.
  std::string tenant;

  /// The query's identity across trace spans (args:{qid}), governor
  /// verdicts, the audit log, /statusz, and QueryErrorInfo. The network
  /// service sets it to the client-supplied wire id; when left empty the
  /// Engine assigns "q-<n>" at Query/Submit. Purely observational —
  /// execution is byte-identical whatever the id.
  std::string query_id;

  /// Wall time the caller spent turning query text into the Pattern,
  /// recorded verbatim as the audit record's parse_ms phase (the Engine
  /// itself receives an already-parsed Pattern). 0 when unknown.
  double parse_ms = 0.0;

  /// Execution-side view (everything ExecOptions carries). The Engine
  /// overwrites deadline_ms with the post-optimization remainder and wires
  /// cancel_token itself.
  ExecOptions ExecView() const;

  /// Search-side view for the expert optimizer API.
  OptimizerOptions OptimizerView() const;
};

}  // namespace sjos

#endif  // SJOS_SERVICE_QUERY_OPTIONS_H_
