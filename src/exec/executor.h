// Plan execution. The serial engine is a streaming operator pipeline
// (exec/operator.h): Execute compiles the PhysicalPlan into an
// Open/NextBatch/Close tree and pulls fixed-capacity row batches from the
// root, so "fully pipelined" plans — no Sort, the blocking cost the
// paper's Sec. 4.3 identifies as dominant — run in O(batch × plan depth)
// intermediate memory. It is the only engine: concurrency across queries
// lives in the Engine's worker pool, not inside one plan. Batches are
// columnar (ColumnBatch) from scan to sink: Execute transposes each root
// batch into the result TupleSet as it arrives, with no second pass, and
// ExecuteStreaming hands each batch to its sink as it is. Wall time plus
// operator-level counters let benches decompose where time and memory
// went.
//
// Expert path: Executor is the low-level execution API — you bring your own
// Database, plan (from core/optimizer.h), and ExecOptions. Most callers
// should use sjos::Engine (service/engine.h) instead, which wires catalog,
// estimation, optimizer choice, plan caching, and admission behind one
// QueryOptions struct and delegates here.

#ifndef SJOS_EXEC_EXECUTOR_H_
#define SJOS_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/op_stats.h"
#include "exec/tuple_set.h"
#include "plan/plan.h"
#include "query/pattern.h"
#include "storage/catalog.h"

namespace sjos {

/// Counters from one plan execution. Every field except wall_ms,
/// peak_live_rows and peak_live_bytes is identical across batch sizes; the
/// two peaks are deterministic for a fixed batch size.
struct ExecStats {
  double wall_ms = 0.0;
  uint64_t result_rows = 0;
  uint64_t rows_scanned = 0;       // index-scan output
  uint64_t rows_sorted = 0;        // total rows passing through Sort ops
  uint64_t join_output_rows = 0;   // total join outputs (all joins)
  uint64_t element_pairs = 0;      // matched element pairs (all joins)
  uint64_t nodes_navigated = 0;    // subtree nodes visited by Navigate ops
  size_t num_sorts = 0;
  size_t num_joins = 0;
  size_t num_navigates = 0;
  /// High-water mark of rows simultaneously resident in intermediates
  /// (batches, sort buffers, join state, accumulated results). For a
  /// pipelined plan it is bounded by O(batch × depth) + result size.
  uint64_t peak_live_rows = 0;
  /// Worst q-error (max(est/act, act/est), clamped finite — see
  /// MaxJoinQError) over the plan's annotated join nodes; 0 when the plan
  /// carries no estimates. Depends only on the plan and its join output
  /// counters, so it is identical across batch sizes.
  double max_q_error = 0.0;
  /// Byte-denominated companion of peak_live_rows: rows × arity ×
  /// sizeof(NodeId) charged by the operator owning each buffer. The figure
  /// the governor's max_live_bytes budget is enforced against;
  /// deterministic for a fixed batch size.
  uint64_t peak_live_bytes = 0;
};

/// A finished execution: the result bindings plus counters.
struct ExecResult {
  TupleSet tuples;
  ExecStats stats;
  /// Per-plan-node counters (indexed like PhysicalPlan nodes); feed them
  /// to PrintPlanAnalyze for an EXPLAIN ANALYZE rendering.
  std::vector<OpStats> op_stats;
};

/// Execution knobs.
struct ExecOptions {
  /// Abort any single join whose output exceeds this many rows
  /// (0 = unlimited). Guards deliberately bad plans on huge documents.
  uint64_t max_join_output_rows = 0;

  /// NextBatch row capacity. 0 = auto: the SJOS_EXEC_BATCH_ROWS
  /// environment variable if set, else kDefaultExecBatchRows. Explicit
  /// values always win over the env var.
  size_t batch_rows = 0;

  /// Wall-clock budget for one Execute/ExecuteStreaming call in
  /// milliseconds (0 = unlimited). Enforced cooperatively — at batch
  /// boundaries and every 64 groups inside a join — so a breach surfaces as
  /// Status::DeadlineExceeded shortly after the deadline, with the partial
  /// ExecStats gathered so far kept readable via Executor::last_stats().
  uint64_t deadline_ms = 0;

  /// Budget on live intermediate bytes (0 = unlimited), measured as
  /// rows × arity × sizeof(NodeId) across all resident buffers — see
  /// ExecStats::peak_live_bytes. The first breach fails the query with
  /// Status::ResourceExhausted.
  uint64_t max_live_bytes = 0;

  /// Externally owned cancel flag (e.g. a QueryHandle's token), polled at
  /// the same cooperative points as the deadline. Once it reads true the
  /// query unwinds with Status::Cancelled and verdict "cancelled". The
  /// pointee must outlive the Execute/ExecuteStreaming call. Null = not
  /// cancellable.
  const std::atomic<bool>* cancel_token = nullptr;

  /// Id attributed to this execution (the Engine assigns one per query).
  /// Tags every trace span recorded during the call as args:{qid}, and
  /// prefixes governor failure messages, so one query is followable
  /// across threads and logs. Empty = unattributed (the expert-path
  /// default; results are unaffected).
  std::string query_id;

  /// When non-null, the executor publishes the query's current live
  /// intermediate bytes here (relaxed stores at the existing accounting
  /// points) so the service's /statusz can report per-query residency
  /// while the query is in flight. The pointee must outlive the call.
  std::atomic<uint64_t>* live_bytes_observer = nullptr;
};

/// Executes plans against one database.
class Executor {
 public:
  /// Receives each non-empty result batch of a streaming execution, in
  /// the executor's columnar form. The batch is only valid for the
  /// duration of the call.
  using BatchSink = std::function<Status(const ColumnBatch&)>;

  explicit Executor(const Database& db, ExecOptions options = {});

  /// Runs `plan` for `pattern`. The plan must be valid (ValidatePlan);
  /// execution itself re-checks input ordering at each join and fails
  /// loudly on violations rather than producing wrong answers.
  Result<ExecResult> Execute(const Pattern& pattern, const PhysicalPlan& plan);

  /// Streaming execution without result accumulation: pulls batches from
  /// the plan root and hands each to `sink`. Because consumed batches are
  /// released, stats.peak_live_rows reflects only the pipeline's working
  /// set — the memory-boundedness figure for pipelined plans. `op_stats`,
  /// when non-null, receives the per-plan-node counters.
  Result<ExecStats> ExecuteStreaming(const Pattern& pattern,
                                     const PhysicalPlan& plan,
                                     const BatchSink& sink,
                                     std::vector<OpStats>* op_stats = nullptr);

  /// Stats of the most recent Execute/ExecuteStreaming call — populated
  /// even when that call returned an error, so callers can report the
  /// partial progress of a query the governor cut short.
  const ExecStats& last_stats() const { return last_stats_; }
  const std::vector<OpStats>& last_op_stats() const { return last_op_stats_; }

  /// Which governor limit cut the last query short: "" (none — the query
  /// finished or failed for another reason), "deadline", or "memory".
  const std::string& last_verdict() const { return last_verdict_; }

 private:
  /// The one execution path behind Execute and ExecuteStreaming: compiles
  /// the plan into an operator tree, pulls batches from the root, and
  /// records last_stats()/last_op_stats()/last_verdict(). With `rows`
  /// non-null each batch is appended there as it arrives (counted as live
  /// rows, inside the timed call); otherwise each goes to `*sink`.
  Status Run(const Pattern& pattern, const PhysicalPlan& plan,
             TupleSet* rows, const BatchSink* sink, ExecStats* stats,
             std::vector<OpStats>* op_stats);

  size_t ResolveBatchRows() const;

  const Database& db_;
  ExecOptions options_;
  ExecStats last_stats_;
  std::vector<OpStats> last_op_stats_;
  std::string last_verdict_;
};

}  // namespace sjos

#endif  // SJOS_EXEC_EXECUTOR_H_
