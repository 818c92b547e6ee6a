#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "exec/governor.h"
#include "exec/operator.h"
#include "plan/plan_props.h"

namespace sjos {

namespace {

void RecordExecutionMetrics(const ExecStats& stats,
                            const std::vector<OpStats>& op_stats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& queries = registry.GetCounter("sjos_exec_queries_total");
  static Counter& result_rows =
      registry.GetCounter("sjos_exec_result_rows_total");
  static Counter& batches = registry.GetCounter("sjos_exec_batches_total");
  static Counter& op_rows =
      registry.GetCounter("sjos_exec_operator_rows_total");
  static Histogram& peak =
      registry.GetHistogram("sjos_exec_peak_live_rows");
  static Histogram& q_error =
      registry.GetHistogram("sjos_exec_max_q_error_milli");
  queries.Add(1);
  result_rows.Add(stats.result_rows);
  uint64_t total_batches = 0;
  uint64_t total_rows = 0;
  for (const OpStats& os : op_stats) {
    total_batches += os.batches;
    total_rows += os.rows;
  }
  batches.Add(total_batches);
  op_rows.Add(total_rows);
  peak.Observe(stats.peak_live_rows);
  if (stats.max_q_error > 0.0) {
    q_error.Observe(
        static_cast<uint64_t>(std::llround(stats.max_q_error * 1000.0)));
  }
}

/// Sets each operator's self time: its inclusive time less its children's.
/// A child runs only inside its parent's timed Open and NextBatch, so the
/// difference is negative only by floating-point rounding, clamped to 0.
void SetSelfTimes(const PhysicalPlan& plan, std::vector<OpStats>* op_stats) {
  for (size_t i = 0; i < op_stats->size(); ++i) {
    const PlanNode& node = plan.At(static_cast<int>(i));
    double children_ms = 0.0;
    for (const int child : {node.left, node.right}) {
      if (child >= 0) {
        children_ms += (*op_stats)[static_cast<size_t>(child)].time_ms;
      }
    }
    OpStats& os = (*op_stats)[i];
    os.self_ms = std::max(0.0, os.time_ms - children_ms);
  }
}

}  // namespace

Executor::Executor(const Database& db, ExecOptions options)
    : db_(db), options_(std::move(options)) {}

size_t Executor::ResolveBatchRows() const {
  if (options_.batch_rows > 0) return options_.batch_rows;
  if (const char* env = std::getenv("SJOS_EXEC_BATCH_ROWS")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
  }
  return kDefaultExecBatchRows;
}

Status Executor::Run(const Pattern& pattern, const PhysicalPlan& plan,
                     TupleSet* rows, const BatchSink* sink, ExecStats* stats,
                     std::vector<OpStats>* op_stats) {
  if (plan.Empty()) return Status::InvalidArgument("empty plan");
  TraceQueryScope qid_scope(options_.query_id);
  TraceSpan span("execute.streaming");
  op_stats->assign(plan.NumOps(), OpStats{});
  QueryGovernor governor(options_.deadline_ms, options_.max_live_bytes,
                         options_.cancel_token, options_.query_id);
  Timer timer;
  ExecContext ctx;
  ctx.db = &db_;
  ctx.pattern = &pattern;
  ctx.batch_rows = ResolveBatchRows();
  ctx.max_join_output_rows = options_.max_join_output_rows;
  ctx.stats = stats;
  ctx.op_stats = op_stats;
  ctx.governor = governor.has_limits() ? &governor : nullptr;
  ctx.live_observer = options_.live_bytes_observer;
  Status st = [&]() -> Status {
    Result<std::unique_ptr<Operator>> compiled =
        CompileOperatorTree(&ctx, plan, plan.root());
    if (!compiled.ok()) return compiled.status();
    Operator* root = compiled.value().get();
    SJOS_RETURN_IF_ERROR(Operator::OpenTimed(root));
    ColumnBatch batch = root->MakeBatch();
    if (rows != nullptr) *rows = TupleSet(batch.slots());
    const uint64_t row_bytes = batch.arity() * sizeof(NodeId);
    bool eos = false;
    while (!eos) {
      // The in-flight root batch is the driver's contribution to live rows.
      ctx.SubLive(batch.size(), batch.size() * row_bytes);
      Status pulled = Operator::PullTimed(root, &batch, &eos);
      if (!pulled.ok()) {
        // Unwind the whole tree so OwnAdd/OwnSub accounting balances and
        // buffered state is dropped even on a governed/injected failure.
        (void)root->Close();
        return pulled;
      }
      ctx.AddLive(batch.size(), batch.size() * row_bytes);
      if (batch.size() == 0) continue;
      stats->result_rows += batch.size();
      if (rows != nullptr) {
        // Each batch is transposed into the result rows as it arrives, the
        // one copy a result row gets. Accumulated result rows count as
        // live, so the peak is honest about total residency.
        rows->AppendBatch(batch);
        ctx.AddLive(batch.size(), batch.size() * row_bytes);
      } else {
        SJOS_RETURN_IF_ERROR((*sink)(batch));
      }
    }
    ctx.SubLive(batch.size(), batch.size() * row_bytes);
    TraceSpan close_span("Close:", root->Name());
    return root->Close();
  }();
  stats->peak_live_rows = ctx.peak_live_rows;
  stats->peak_live_bytes = ctx.peak_live_bytes;
  stats->wall_ms = timer.ElapsedMs();
  SetSelfTimes(plan, op_stats);
  if (st.ok()) stats->max_q_error = MaxJoinQError(plan, *op_stats);
  // Keeps the partial counters readable (last_stats()/last_verdict())
  // whether the query finishes or a limit / injected fault cuts it short.
  last_stats_ = *stats;
  last_op_stats_ = *op_stats;
  last_verdict_ = governor.verdict();
  if (st.ok()) RecordExecutionMetrics(*stats, *op_stats);
  return st;
}

Result<ExecResult> Executor::Execute(const Pattern& pattern,
                                     const PhysicalPlan& plan) {
  ExecResult result;
  SJOS_RETURN_IF_ERROR(Run(pattern, plan, &result.tuples, /*sink=*/nullptr,
                           &result.stats, &result.op_stats));
  return result;
}

Result<ExecStats> Executor::ExecuteStreaming(const Pattern& pattern,
                                             const PhysicalPlan& plan,
                                             const BatchSink& sink,
                                             std::vector<OpStats>* op_stats) {
  ExecStats stats;
  std::vector<OpStats> local_ops;
  SJOS_RETURN_IF_ERROR(Run(pattern, plan, /*rows=*/nullptr, &sink, &stats,
                           op_stats != nullptr ? op_stats : &local_ops));
  return stats;
}

}  // namespace sjos
