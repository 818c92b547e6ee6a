#include "core/optimizer.h"

#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "core/opt_status.h"
#include "plan/plan_props.h"

namespace sjos {

namespace {

/// Publishes one successful run's statistics to the global
/// MetricsRegistry (sjos_opt_runs_total, plans-considered/statuses
/// counters, and the sjos_opt_time_us histogram).
void RecordOptimizerMetrics(const OptimizerStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& runs = registry.GetCounter("sjos_opt_runs_total");
  static Counter& plans =
      registry.GetCounter("sjos_opt_plans_considered_total");
  static Counter& generated =
      registry.GetCounter("sjos_opt_statuses_generated_total");
  static Counter& expanded =
      registry.GetCounter("sjos_opt_statuses_expanded_total");
  static Histogram& time_us = registry.GetHistogram("sjos_opt_time_us");
  runs.Add(1);
  plans.Add(stats.plans_considered);
  generated.Add(stats.statuses_generated);
  expanded.Add(stats.statuses_expanded);
  time_us.Observe(static_cast<uint64_t>(stats.opt_time_ms * 1000.0));
}

/// The plan finish every algorithm shares: validates the searched plan,
/// derives its modelled cost and annotates each operator's estimated rows.
Status FinishPlan(const OptimizeContext& ctx, OptimizeResult* result) {
  TraceSpan span("optimize.build_plan");
  Timer build_timer;
  SJOS_RETURN_IF_ERROR(ValidatePlan(result->plan, *ctx.pattern));
  Result<PlanProps> props = ComputePlanProps(result->plan, *ctx.pattern,
                                             *ctx.estimates, *ctx.cost_model);
  if (!props.ok()) return props.status();
  result->modelled_cost = props.value().total_cost;
  AnnotatePlanEstimates(&result->plan, props.value());
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& built = registry.GetCounter("sjos_opt_plans_built_total");
  static Histogram& build_us =
      registry.GetHistogram("sjos_opt_build_plan_us");
  built.Add(1);
  build_us.Observe(static_cast<uint64_t>(build_timer.ElapsedMicros()));
  return Status::OK();
}

/// Graceful degradation: `from_name`'s search exceeded the deadline after
/// `elapsed_ms` with `partial_stats` of work done. Re-plans with FP (its
/// deadline cleared; one rank sort per node, so microseconds), folds the
/// abandoned search's counters into the returned stats, marks the result
/// (fallback_from + plan note) and bumps sjos_opt_deadline_fallbacks_total.
/// Returns DeadlineExceeded when FP cannot plan the pattern either.
Result<OptimizeResult> FallbackToFp(const OptimizeContext& ctx,
                                    const char* from_name,
                                    const OptimizerStats& partial_stats,
                                    double elapsed_ms) {
  static Counter& fallbacks = MetricsRegistry::Global().GetCounter(
      "sjos_opt_deadline_fallbacks_total");
  fallbacks.Add(1);
  OptimizeContext fp_ctx = ctx;
  fp_ctx.options.deadline_ms = 0.0;  // the fallback must be allowed to finish
  Result<OptimizeResult> fp = MakeFpOptimizer()->Optimize(fp_ctx);
  if (!fp.ok()) {
    return Status::DeadlineExceeded(StrFormat(
        "%s search exceeded its %.0f ms deadline after %.1f ms and the FP "
        "fallback failed: %s",
        from_name, ctx.options.deadline_ms, elapsed_ms,
        fp.status().ToString().c_str()));
  }
  OptimizeResult result = std::move(fp).value();
  // Keep the accounting honest: the abandoned search's work still happened.
  result.stats.plans_considered += partial_stats.plans_considered;
  result.stats.statuses_generated += partial_stats.statuses_generated;
  result.stats.statuses_expanded += partial_stats.statuses_expanded;
  result.stats.opt_time_ms += elapsed_ms;
  result.fallback_from = from_name;
  result.plan.SetNote(StrFormat(
      "optimizer deadline (%.0f ms) exceeded: fell back from %s to FP",
      ctx.options.deadline_ms, from_name));
  return result;
}

}  // namespace

Result<OptimizeResult> Optimizer::Optimize(const OptimizeContext& ctx) {
  TraceSpan span("optimize:", name());
  Timer timer;
  SJOS_FAILPOINT("opt.search");
  SJOS_RETURN_IF_ERROR(ctx.pattern->Validate());
  if (ctx.pattern->NumNodes() > kMaxPatternNodes) {
    return Status::Unsupported(
        StrFormat("pattern too large for %s optimization", name()));
  }

  OptimizeResult result;
  Status searched;
  {
    TraceSpan search_span("optimize.search:", name());
    searched = Search(ctx, timer, &result);
  }
  // Only PollDeadline reports DeadlineExceeded from a search.
  if (searched.code() == StatusCode::kDeadlineExceeded) {
    return FallbackToFp(ctx, name(), result.stats, timer.ElapsedMs());
  }
  SJOS_RETURN_IF_ERROR(searched);
  SJOS_RETURN_IF_ERROR(FinishPlan(ctx, &result));
  result.stats.opt_time_ms = timer.ElapsedMs();
  RecordOptimizerMetrics(result.stats);
  return result;
}

Status Optimizer::PollDeadline(const OptimizeContext& ctx, const Timer& timer) {
  SJOS_FAILPOINT("opt.search.step");
  const double deadline_ms = ctx.options.deadline_ms;
  if (deadline_ms > 0.0 && timer.ElapsedMs() >= deadline_ms) {
    return Status::DeadlineExceeded("optimizer search deadline");
  }
  return Status::OK();
}

const char* OptimizerKindName(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kDp:
      return "dp";
    case OptimizerKind::kDpp:
      return "dpp";
    case OptimizerKind::kDpapEb:
      return "dpap-eb";
    case OptimizerKind::kDpapLd:
      return "dpap-ld";
    case OptimizerKind::kFp:
      return "fp";
  }
  return "?";
}

Result<OptimizerKind> ParseOptimizerKind(std::string_view name) {
  for (OptimizerKind kind : kAllOptimizerKinds) {
    if (name == OptimizerKindName(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown optimizer '" + std::string(name) +
      "' (expected dp, dpp, dpap-eb, dpap-ld, or fp)");
}

std::unique_ptr<Optimizer> MakeOptimizer(OptimizerKind kind,
                                         size_t num_edges) {
  switch (kind) {
    case OptimizerKind::kDp:
      return MakeDpOptimizer();
    case OptimizerKind::kDpp:
      return MakeDppOptimizer();
    case OptimizerKind::kDpapEb:
      return MakeDpapEbOptimizer(static_cast<uint32_t>(num_edges));
    case OptimizerKind::kDpapLd:
      return MakeDpapLdOptimizer();
    case OptimizerKind::kFp:
      return MakeFpOptimizer();
  }
  return nullptr;
}

std::vector<std::unique_ptr<Optimizer>> MakePaperOptimizers(size_t num_edges) {
  std::vector<std::unique_ptr<Optimizer>> out;
  for (OptimizerKind kind : kAllOptimizerKinds) {
    out.push_back(MakeOptimizer(kind, num_edges));
  }
  return out;
}

}  // namespace sjos
