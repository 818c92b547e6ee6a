#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "xml/fold.h"
#include "xml/parser.h"

namespace sjos {

namespace {

/// Plan-cache entries per Engine.
constexpr size_t kPlanCacheCapacity = 256;

struct EngineMetrics {
  Counter& queries;
  Counter& submits;
  Gauge& in_flight;
  Histogram& wall_us;

  static EngineMetrics& Get() {
    static EngineMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.SetHelp("sjos_engine_query_wall_us",
                  "End-to-end query wall time (plan + execute), microseconds");
      return new EngineMetrics{reg.GetCounter("sjos_engine_queries_total"),
                               reg.GetCounter("sjos_engine_submits_total"),
                               reg.GetGauge("sjos_engine_in_flight"),
                               reg.GetHistogram("sjos_engine_query_wall_us")};
    }();
    return *m;
  }
};

}  // namespace

void QueryHandle::Cancel() {
  if (state_ != nullptr) {
    state_->cancel.store(true, std::memory_order_relaxed);
  }
}

bool QueryHandle::Done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

bool QueryHandle::CancelRequested() const {
  return state_ != nullptr &&
         state_->cancel.load(std::memory_order_relaxed);
}

const Result<QueryResult>& QueryHandle::Wait() {
  SJOS_CHECK(state_ != nullptr, "Wait on invalid QueryHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return *state_->result;
}

bool QueryHandle::WaitFor(uint64_t timeout_ms) {
  SJOS_CHECK(state_ != nullptr, "WaitFor on invalid QueryHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this] { return state_->done; });
}

void QueryHandle::SetDoneCallback(std::function<void()> fn) {
  SJOS_CHECK(state_ != nullptr, "SetDoneCallback on invalid QueryHandle");
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->done) {
      state_->on_done = std::move(fn);
      return;
    }
  }
  // Already finished — the completing worker consumed (or never saw) the
  // callback slot, so run it here.
  fn();
}

const QueryErrorInfo& QueryHandle::error_info() const {
  SJOS_CHECK(state_ != nullptr, "error_info on invalid QueryHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  SJOS_CHECK(state_->done, "error_info before the query finished");
  return state_->error_info;
}

const std::string& QueryHandle::query_id() const {
  static const std::string kEmpty;
  // Written once before Submit returns the handle; safe without mu.
  return state_ == nullptr ? kEmpty : state_->query_id;
}

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(kPlanCacheCapacity),
      query_log_(std::make_unique<QueryLog>(options.query_log)),
      pool_(options.max_in_flight) {}

void Engine::RebuildEstimatorLocked() {
  estimator_.emplace(PositionalHistogramEstimator::Build(
      db_->doc(), db_->index(), db_->stats()));
}

size_t Engine::InstallDatabaseLocked(Database db) {
  db_.emplace(std::move(db));
  RebuildEstimatorLocked();
  // New statistics wholesale: no cached plan may outlive the old document.
  return cache_.Clear();
}

void Engine::ApplyDeltaLocked(const Database::MutationDelta& delta,
                              MutationResult* result) {
  result->nodes_added = delta.added.size();
  result->nodes_removed = delta.removed.size();
  if (delta.respaced) {
    // First insert into a dense document: keys were respaced, so every
    // grid coordinate the estimator holds is stale — rebuild from the
    // base, then fold the mutation itself in incrementally below.
    RebuildEstimatorLocked();
    result->estimator_rebuilt = true;
  }
  for (const DifferentialIndex::InsertedNode& n : delta.added) {
    estimator_->ApplyInsert(n.tag, n.parent_tag, n.level, n.key, n.end_key,
                            !n.text.empty());
    ++result->histogram_deltas;
  }
  for (const DifferentialIndex::InsertedNode& n : delta.removed) {
    estimator_->ApplyRemove(n.tag, n.parent_tag, n.level, n.key, n.end_key,
                            !n.text.empty());
    ++result->histogram_deltas;
  }
  if (!delta.touched_tags.empty()) {
    std::vector<std::string> names;
    names.reserve(delta.touched_tags.size());
    for (TagId t : delta.touched_tags) {
      names.emplace_back(db_->doc().dict().Name(t));
    }
    std::sort(names.begin(), names.end());
    result->cache_invalidated = cache_.InvalidateTags(names);
    result->scope = "tagset";
  }
}

Result<MutationResult> Engine::ApplyFoldLocked(const FoldMutation& fold) {
  // FoldDocument wants a dense document; materialize the live merged tree
  // first (this also folds pending overlay edits in, and is an identity
  // rebuild for a dense overlay-free base).
  Result<Document> dense = db_->MaterializeMerged();
  if (!dense.ok()) return dense.status();
  Result<Document> folded = FoldDocument(dense.value(), fold.factor);
  if (!folded.ok()) return folded.status();
  const uint64_t before = db_->LiveNodeCount();
  std::string name = db_->name();
  db_.emplace(Database::Open(std::move(folded).value(), std::move(name)));
  RebuildEstimatorLocked();
  MutationResult result;
  result.estimator_rebuilt = true;
  const uint64_t after = db_->LiveNodeCount();
  result.nodes_added = after > before ? after - before : 0;
  result.nodes_removed = before > after ? before - after : 0;
  // Every tag in the dictionary was rescaled, so invalidate by the full
  // tag set — the fine-grained path.
  const TagDictionary& dict = db_->doc().dict();
  std::vector<std::string> names;
  names.reserve(dict.size());
  for (TagId t = 0; t < dict.size(); ++t) names.emplace_back(dict.Name(t));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  result.cache_invalidated = cache_.InvalidateTags(names);
  result.scope = "tagset";
  return result;
}

Result<MutationResult> Engine::ApplyInsertLocked(const InsertSubtree& insert) {
  Result<Document> fragment = ParseXml(insert.xml);
  if (!fragment.ok()) return fragment.status();
  Database::MutationDelta delta;
  NodeId parent = insert.parent;
  Status st = db_->InsertSubtree(parent, insert.position, fragment.value(),
                                 &delta);
  bool flushed = false;
  if (st.code() == StatusCode::kResourceExhausted) {
    // The parent's key gap is exhausted. Flush the overlay (respacing all
    // keys) and retry once; the parent's key is remapped through its
    // pre-order rank, which the flush preserves. A first insert into a
    // dense document respaced before failing, so its dense parent key
    // maps through its slot first.
    if (delta.respaced) parent = db_->doc().KeyOfSlot(parent);
    const std::vector<NodeId> order = db_->MergedOrder();
    const auto it = std::find(order.begin(), order.end(), parent);
    if (it == order.end()) {
      return Status::NotFound("insert parent vanished during gap flush");
    }
    const size_t rank = static_cast<size_t>(it - order.begin());
    SJOS_RETURN_IF_ERROR(db_->FlushDifferential());
    parent = db_->doc().KeyOfSlot(static_cast<NodeId>(rank));
    RebuildEstimatorLocked();
    flushed = true;
    delta = Database::MutationDelta{};
    st = db_->InsertSubtree(parent, insert.position, fragment.value(), &delta);
  }
  if (!st.ok()) return st;
  MutationResult result;
  ApplyDeltaLocked(delta, &result);
  if (flushed) result.estimator_rebuilt = true;
  return result;
}

Result<MutationResult> Engine::ApplyDeleteLocked(const DeleteSubtree& del) {
  Database::MutationDelta delta;
  SJOS_RETURN_IF_ERROR(db_->DeleteSubtreeAt(del.node, &delta));
  MutationResult result;
  ApplyDeltaLocked(delta, &result);
  return result;
}

Result<MutationResult> Engine::ApplyFlushLocked() {
  MutationResult result;
  if (!db_->HasOverlay()) return result;  // nothing to fold in
  SJOS_RETURN_IF_ERROR(db_->FlushDifferential());
  // The flush preserves every logical statistic (counts, levels, texts);
  // only the physical key layout changed, and plans are cached in
  // canonical pattern space — so no plan-cache invalidation at all. The
  // estimator grids live in key coordinates, though: rebuild them.
  RebuildEstimatorLocked();
  result.estimator_rebuilt = true;
  return result;
}

std::shared_lock<std::shared_mutex> Engine::ReadLock() const {
  std::lock_guard<std::mutex> gate(db_writer_gate_);
  return std::shared_lock<std::shared_mutex>(db_mu_);
}

std::unique_lock<std::shared_mutex> Engine::WriteLock() {
  std::lock_guard<std::mutex> gate(db_writer_gate_);
  return std::unique_lock<std::shared_mutex>(db_mu_);
}

Result<MutationResult> Engine::Apply(Mutation mutation) {
  std::unique_lock<std::shared_mutex> lock = WriteLock();
  if (LoadDocument* load = std::get_if<LoadDocument>(&mutation)) {
    MutationResult result;
    result.nodes_added = load->doc.NumNodes();
    result.cache_invalidated = InstallDatabaseLocked(
        Database::Open(std::move(load->doc), std::move(load->name)));
    result.estimator_rebuilt = true;
    result.scope = "global";
    return result;
  }
  if (!db_.has_value()) {
    return Status::NotFound(
        "no database loaded — apply a LoadDocument first");
  }
  if (const FoldMutation* fold = std::get_if<FoldMutation>(&mutation)) {
    return ApplyFoldLocked(*fold);
  }
  if (const InsertSubtree* insert = std::get_if<InsertSubtree>(&mutation)) {
    return ApplyInsertLocked(*insert);
  }
  if (const DeleteSubtree* del = std::get_if<DeleteSubtree>(&mutation)) {
    return ApplyDeleteLocked(*del);
  }
  return ApplyFlushLocked();
}

Status Engine::OpenDatabase(Database db) {
  std::unique_lock<std::shared_mutex> lock = WriteLock();
  InstallDatabaseLocked(std::move(db));
  return Status::OK();
}

bool Engine::has_database() const {
  std::shared_lock<std::shared_mutex> lock = ReadLock();
  return db_.has_value();
}

const Database& Engine::db() const {
  std::shared_lock<std::shared_mutex> lock = ReadLock();
  SJOS_CHECK(db_.has_value(), "Engine::db() without a loaded database");
  return *db_;
}

Result<PlannedQuery> Engine::PlanLocked(const Pattern& pattern,
                                        const QueryOptions& options) {
  SJOS_RETURN_IF_ERROR(pattern.Validate());
  if (!db_.has_value()) {
    return Status::NotFound(
        "no database loaded — apply a LoadDocument first");
  }
  PatternFingerprint fp = pattern.CanonicalFingerprint();

  PlannedQuery planned;
  planned.cache_key = PlanCache::MakeKey(fp.key, options.optimizer);

  if (options.use_plan_cache) {
    CachedPlan cached;
    if (cache_.Get(planned.cache_key, &cached)) {
      // Cached plans live in canonical node-id space; translate to this
      // pattern's ids. For the pattern the plan was cached from this is
      // the identity, so results are byte-identical to a fresh optimize.
      planned.plan = cached.plan.WithRemappedPatternNodes(fp.canonical_to_node);
      planned.algorithm = std::move(cached.algorithm);
      planned.modelled_cost = cached.modelled_cost;
      planned.cache_hit = true;
      return planned;
    }
  }

  Result<PatternEstimates> estimates =
      PatternEstimates::Make(pattern, db_->doc(), *estimator_);
  if (!estimates.ok()) return estimates.status();

  std::unique_ptr<Optimizer> optimizer =
      MakeOptimizer(options.optimizer, pattern.NumEdges());
  OptimizeContext ctx{&pattern, &estimates.value(), &cost_model_,
                      options.OptimizerView()};
  Result<OptimizeResult> optimized = optimizer->Optimize(ctx);
  if (!optimized.ok()) return optimized.status();

  OptimizeResult& opt = optimized.value();
  planned.plan = std::move(opt.plan);
  planned.algorithm = opt.fallback_from.empty() ? optimizer->name() : "FP";
  planned.fallback_from = std::move(opt.fallback_from);
  planned.opt_stats = opt.stats;
  planned.modelled_cost = opt.modelled_cost;

  // Don't cache fallback plans: FP stood in because the search ran out of
  // budget, and a later, better-budgeted query should get the real search.
  if (options.use_plan_cache && planned.fallback_from.empty()) {
    std::vector<PatternNodeId> to_canonical(fp.canonical_to_node.size());
    for (size_t i = 0; i < fp.canonical_to_node.size(); ++i) {
      to_canonical[static_cast<size_t>(fp.canonical_to_node[i])] =
          static_cast<PatternNodeId>(i);
    }
    CachedPlan entry;
    entry.plan = planned.plan.WithRemappedPatternNodes(to_canonical);
    entry.algorithm = planned.algorithm;
    entry.modelled_cost = planned.modelled_cost;
    // Tag set for fine-grained invalidation: a mutation touching none of
    // these tags cannot change this plan's costs.
    entry.tags.reserve(pattern.NumNodes());
    for (size_t i = 0; i < pattern.NumNodes(); ++i) {
      entry.tags.push_back(pattern.node(static_cast<PatternNodeId>(i)).tag);
    }
    std::sort(entry.tags.begin(), entry.tags.end());
    entry.tags.erase(std::unique(entry.tags.begin(), entry.tags.end()),
                     entry.tags.end());
    cache_.Put(planned.cache_key, std::move(entry));
  }
  return planned;
}

Result<PlannedQuery> Engine::Plan(const Pattern& pattern,
                                  const QueryOptions& options) {
  std::shared_lock<std::shared_mutex> lock = ReadLock();
  return PlanLocked(pattern, options);
}

Result<QueryResult> Engine::RunQuery(const Pattern& pattern,
                                     const QueryOptions& options,
                                     const std::atomic<bool>* cancel_token,
                                     QueryErrorInfo* error_info) {
  // Tags every span this query emits with args:{qid} for per-query
  // Perfetto filtering.
  TraceQueryScope qid_scope(options.query_id);
  EngineMetrics::Get().queries.Add();

  // /statusz registration; the executor publishes live bytes straight
  // into the entry. Unregistered on every exit path below.
  std::shared_ptr<InFlightEntry> entry = RegisterInFlight(options);
  struct InFlightGuard {
    Engine* engine;
    const InFlightEntry* entry;
    ~InFlightGuard() { engine->UnregisterInFlight(entry); }
  } in_flight_guard{this, entry.get()};

  QueryLogRecord rec;
  rec.query_id = options.query_id;
  rec.tenant = options.tenant;
  rec.optimizer = OptimizerKindName(options.optimizer);
  rec.parse_ms = options.parse_ms;

  Timer timer;
  double plan_ms = 0.0;
  bool executor_ran = false;  // Executor::Execute was called

  // Every failure exit funnels through here: finishes the audit record,
  // fills error_info, and appends. A query that failed before the executor
  // ran records no execution time.
  auto fail = [&](const Status& status, const std::string& verdict) {
    rec.ok = false;
    rec.status_code = StatusCodeName(status.code());
    rec.verdict = verdict;
    rec.optimize_ms = plan_ms;
    rec.total_ms = timer.ElapsedMs();
    if (executor_ran) rec.execute_ms = std::max(0.0, rec.total_ms - plan_ms);
    if (error_info != nullptr) {
      error_info->verdict = verdict;
      error_info->query_id = options.query_id;
    }
    query_log_->Append(std::move(rec));
    return status;
  };

  std::shared_lock<std::shared_mutex> lock = ReadLock();

  Result<PlannedQuery> planned = PlanLocked(pattern, options);
  plan_ms = timer.ElapsedMs();
  if (!planned.ok()) return fail(planned.status(), "");
  rec.cache_hit = planned.value().cache_hit;
  rec.fingerprint = planned.value().cache_key;
  const double root_est =
      planned.value().plan.At(planned.value().plan.root()).est_rows;
  rec.est_rows = root_est < 0 ? 0 : static_cast<uint64_t>(root_est);

  ExecOptions exec = options.ExecView();
  exec.cancel_token = cancel_token;
  exec.live_bytes_observer = &entry->live_bytes;
  if (options.deadline_ms > 0) {
    // The deadline covers the whole query: charge planning time and hand
    // execution the remainder (a cache hit leaves nearly all of it).
    const double remaining_ms =
        static_cast<double>(options.deadline_ms) - plan_ms;
    if (remaining_ms < 1.0) {
      return fail(
          Status::DeadlineExceeded(
              "query planning consumed the whole deadline of " +
              std::to_string(options.deadline_ms) + " ms"),
          "deadline");
    }
    exec.deadline_ms = static_cast<uint64_t>(remaining_ms);
  }

  Executor executor(*db_, exec);
  executor_ran = true;
  Result<ExecResult> executed = executor.Execute(pattern, planned.value().plan);
  if (!executed.ok()) {
    if (error_info != nullptr) {
      error_info->partial_stats = executor.last_stats();
    }
    rec.actual_rows = executor.last_stats().result_rows;
    rec.max_q_error = executor.last_stats().max_q_error;
    rec.peak_live_bytes = executor.last_stats().peak_live_bytes;
    for (const OpStats& op : executor.last_op_stats()) {
      rec.batches += op.batches;
    }
    return fail(executed.status(), executor.last_verdict());
  }

  QueryResult out;
  out.tuples = std::move(executed.value().tuples);
  out.stats = executed.value().stats;
  out.op_stats = std::move(executed.value().op_stats);
  out.planned = std::move(planned).value();
  out.query_id = options.query_id;

  rec.status_code = StatusCodeName(StatusCode::kOk);
  rec.actual_rows = out.stats.result_rows;
  rec.max_q_error = out.stats.max_q_error;
  rec.peak_live_bytes = out.stats.peak_live_bytes;
  for (const OpStats& op : out.op_stats) rec.batches += op.batches;
  rec.optimize_ms = plan_ms;
  rec.total_ms = timer.ElapsedMs();
  rec.execute_ms = std::max(0.0, rec.total_ms - plan_ms);
  EngineMetrics::Get().wall_us.Observe(
      static_cast<uint64_t>(rec.total_ms * 1000.0));
  query_log_->Append(std::move(rec));
  return out;
}

Result<QueryResult> Engine::Query(const Pattern& pattern,
                                  const QueryOptions& options,
                                  QueryErrorInfo* error_info) {
  if (!options.query_id.empty()) {
    return RunQuery(pattern, options, /*cancel_token=*/nullptr, error_info);
  }
  QueryOptions with_id = options;
  with_id.query_id = NextQueryId();
  return RunQuery(pattern, with_id, /*cancel_token=*/nullptr, error_info);
}

QueryHandle Engine::Submit(Pattern pattern, QueryOptions options) {
  auto state = std::make_shared<QueryHandle::State>();
  if (options.query_id.empty()) options.query_id = NextQueryId();
  state->query_id = options.query_id;

  EngineMetrics::Get().submits.Add();
  pool_.Submit([this, state, pattern = std::move(pattern),
                 options = std::move(options)] {
    // Tags the task's span (and everything the query records) with the
    // query's id; the worker thread has no ambient id of its own.
    TraceQueryScope qid_scope(options.query_id);
    TraceSpan span("pool.task");
    Status predispatch = Status::OK();
    SJOS_FAILPOINT_CHECK("service.submit", predispatch);
    std::optional<Result<QueryResult>> outcome;
    QueryErrorInfo error_info;
    if (predispatch.ok() && state->cancel.load(std::memory_order_relaxed)) {
      // Distinct from the governor's mid-execute "cancelled": this query
      // never optimized or executed at all.
      predispatch = Status::Cancelled("query cancelled before start");
      error_info.verdict = "cancelled-before-dispatch";
    }
    if (!predispatch.ok()) {
      // Queries that die before RunQuery still get an audit record
      // (RunQuery writes its own for everything that reaches it).
      error_info.query_id = options.query_id;
      QueryLogRecord rec;
      rec.query_id = options.query_id;
      rec.tenant = options.tenant;
      rec.optimizer = OptimizerKindName(options.optimizer);
      rec.ok = false;
      rec.status_code = StatusCodeName(predispatch.code());
      rec.verdict = error_info.verdict;
      query_log_->Append(std::move(rec));
      outcome.emplace(std::move(predispatch));
    } else {
      try {
        outcome.emplace(
            RunQuery(pattern, options, &state->cancel, &error_info));
      } catch (const std::exception& e) {
        error_info.query_id = options.query_id;
        outcome.emplace(Status::Internal(
            "query '" + options.query_id + "' threw: " + e.what()));
      } catch (...) {
        error_info.query_id = options.query_id;
        outcome.emplace(Status::Internal(
            "query '" + options.query_id + "' threw a non-std exception"));
      }
    }
    // Publishes the outcome. The callback runs while still holding mu:
    // any thread that observes done == true (Done/Wait/WaitFor all lock
    // mu) then has the callback's effects happen-before it, so a caller
    // may tear down the resources the callback releases (the server's
    // live-query count) the moment completion is visible. This is why
    // SetDoneCallback forbids callbacks that touch the handle.
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.emplace(std::move(*outcome));
      state->error_info = std::move(error_info);
      state->done = true;
      if (state->on_done) {
        std::function<void()> on_done = std::move(state->on_done);
        on_done();
      }
    }
    state->cv.notify_all();
  });
  return QueryHandle(state);
}

std::shared_ptr<Engine::InFlightEntry> Engine::RegisterInFlight(
    const QueryOptions& options) {
  auto entry = std::make_shared<InFlightEntry>();
  entry->query_id = options.query_id;
  entry->tenant = options.tenant;
  entry->optimizer = OptimizerKindName(options.optimizer);
  entry->start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(in_flight_mu_);
  in_flight_entries_.push_back(entry);
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_entries_.size());
  EngineMetrics::Get().in_flight.Set(
      static_cast<int64_t>(in_flight_entries_.size()));
  return entry;
}

void Engine::UnregisterInFlight(const InFlightEntry* entry) {
  std::lock_guard<std::mutex> lock(in_flight_mu_);
  for (auto it = in_flight_entries_.begin(); it != in_flight_entries_.end();
       ++it) {
    if (it->get() == entry) {
      in_flight_entries_.erase(it);
      break;
    }
  }
  EngineMetrics::Get().in_flight.Set(
      static_cast<int64_t>(in_flight_entries_.size()));
}

size_t Engine::peak_in_flight() const {
  std::lock_guard<std::mutex> lock(in_flight_mu_);
  return peak_in_flight_;
}

std::vector<InFlightInfo> Engine::InFlightQueries() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<InFlightInfo> out;
  std::lock_guard<std::mutex> lock(in_flight_mu_);
  out.reserve(in_flight_entries_.size());
  for (const auto& entry : in_flight_entries_) {
    InFlightInfo info;
    info.query_id = entry->query_id;
    info.tenant = entry->tenant;
    info.optimizer = entry->optimizer;
    info.elapsed_ms =
        std::chrono::duration<double, std::milli>(now - entry->start).count();
    info.live_bytes = entry->live_bytes.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace sjos
