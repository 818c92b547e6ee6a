// sjos::Engine — the query-service facade. Owns the database (catalog,
// tag index, statistics), the positional-histogram estimator, the cost
// model, the plan cache, and a worker pool for concurrent query admission,
// so callers go from XML to results in a handful of lines:
//
//   Engine engine;
//   SJOS_CHECK(engine.Apply(LoadDocument{std::move(doc)}).ok(), "load");
//   Result<QueryResult> r = engine.Query(pattern, QueryOptions{});
//
// Planning: Engine::Plan resolves QueryOptions::optimizer to one of the
// paper's five algorithms and consults the plan cache first — key =
// optimizer kind + canonical pattern fingerprint, the whole cache cleared
// on every load and entries dropped by touched tag set on folds and
// subtree mutations, plans stored in canonical node-id space and remapped
// per concrete pattern. A hit skips estimation and search entirely (no
// optimize:<ALGO> span appears in a trace); plans that came from a
// deadline-triggered FP fallback are never cached. After execution, a
// plan whose measured max_q_error exceeds EngineOptions::cache_max_q_error
// is self-evicted so the next occurrence re-optimizes.
//
// Concurrency: Submit() enqueues the query on the Engine's pool and
// returns a future-style QueryHandle; at most EngineOptions::max_in_flight
// queries execute concurrently (the admission gate — later submissions
// queue in FIFO order), each under its own governor with the handle's
// cancel token. Mutations (Engine::Apply — loads, folds, subtree
// inserts/deletes, flushes) are writer-exclusive against running queries.
// Every query inside RunQuery — submitted or synchronous — sits in one
// in-flight registry, which /statusz, the sjos_engine_in_flight gauge and
// peak_in_flight() all read.

#ifndef SJOS_SERVICE_ENGINE_H_
#define SJOS_SERVICE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/optimizer.h"
#include "estimate/positional_histogram.h"
#include "exec/executor.h"
#include "plan/cost_model.h"
#include "service/mutation.h"
#include "service/plan_cache.h"
#include "service/query_log.h"
#include "service/query_options.h"
#include "storage/catalog.h"
#include "xml/document.h"

namespace sjos {

/// Engine-wide settings, fixed at construction.
struct EngineOptions {
  /// Admission gate: queries executing concurrently via Submit(). Also
  /// the Engine pool's worker count.
  size_t max_in_flight = 4;

  /// Self-eviction threshold: a cached (or just-cached) plan whose
  /// executed ExecStats::max_q_error exceeds this is dropped from the
  /// cache. 0 disables self-eviction.
  double cache_max_q_error = 64.0;

  /// Audit/slow-query log settings. The defaults keep the log in-memory
  /// only (no file sinks) with a 100 ms slow-query threshold; sjos_serve
  /// wires file paths from its flags. See service/query_log.h.
  QueryLogOptions query_log;
};

/// Outcome of the planning phase of one query.
struct PlannedQuery {
  PhysicalPlan plan;
  /// Algorithm name as reported by the optimizer ("DP", "DPP", ...);
  /// on a cache hit, the name of the kind the plan was cached under.
  std::string algorithm;
  /// See OptimizeResult::fallback_from; empty on a cache hit.
  std::string fallback_from;
  /// Zeroed on a cache hit (no search ran).
  OptimizerStats opt_stats;
  double search_cost = 0.0;
  double modelled_cost = 0.0;
  /// True when the plan came from the cache (no estimation, no search).
  bool cache_hit = false;
  /// The full cache key, also useful as a stable query identity in logs.
  std::string cache_key;
};

/// A finished query: result bindings, execution counters, and how the
/// plan was obtained.
struct QueryResult {
  TupleSet tuples;
  ExecStats stats;
  std::vector<OpStats> op_stats;
  PlannedQuery planned;
  /// The id the query ran under (client-supplied or Engine-assigned).
  std::string query_id;
};

/// Partial progress of a query that failed mid-execution: the counters
/// gathered so far and which governor limit (if any) cut it short
/// ("deadline", "memory", "cancelled", or "" for other failures). A
/// submitted query whose cancel landed before it ever started reports
/// "cancelled-before-dispatch" instead of the governor's "cancelled", so
/// callers (and the network service's disconnect path) can tell the two
/// apart.
struct QueryErrorInfo {
  ExecStats partial_stats;
  std::vector<OpStats> op_stats;
  std::string verdict;
  /// The id the query ran under, stable from Submit to this error report.
  std::string query_id;
  /// Failure flight recorder: engine phase spans and the counter deltas
  /// observed across the query's lifetime (see service/query_log.h).
  /// Filled for every failure that reached the Engine's run path.
  FlightRecord flight;
};

/// One entry of Engine::InFlightQueries(): a query currently planning or
/// executing, with its elapsed wall time and current live intermediate
/// bytes (published by the executor at its accounting points).
struct InFlightInfo {
  std::string query_id;
  std::string tenant;
  std::string optimizer;
  double elapsed_ms = 0.0;
  uint64_t live_bytes = 0;
};

/// Future-style handle to a query submitted with Engine::Submit. Copyable
/// (all copies share one underlying state); default-constructed handles
/// are invalid. The handle stays usable after the Engine is destroyed
/// (the Engine drains in-flight queries first).
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Requests cooperative cancellation. A query that has not started is
  /// dropped at dispatch; a running one unwinds with Status::Cancelled at
  /// its next governance point. Idempotent; racing with completion is
  /// safe (the result may then be the finished one).
  void Cancel();

  bool Done() const;

  /// Whether Cancel() has been requested on any copy of this handle (the
  /// query may still be unwinding). The network service uses this to tell
  /// a doomed live query from a re-attachable one.
  bool CancelRequested() const;

  /// Blocks until the query finishes, then returns its outcome. The
  /// reference stays valid while any copy of the handle lives.
  const Result<QueryResult>& Wait();

  /// Blocks up to `timeout_ms` milliseconds; returns true when the query
  /// finished within the window (Wait() then returns immediately).
  bool WaitFor(uint64_t timeout_ms);

  /// Registers `fn` to run exactly once when the query finishes, on the
  /// worker that completed it (immediately, on the calling thread, if it
  /// already did). The callback's effects happen-before any observation
  /// of completion through Done/Wait/WaitFor — the network service relies
  /// on this to release its live-query slot before a client can react to
  /// the result, with or without a poll, cancelled queries included. The
  /// callback runs under the handle's internal lock: keep it small,
  /// non-blocking, and never touch the handle from inside it. At most one
  /// callback per handle state.
  void SetDoneCallback(std::function<void()> fn);

  /// Error-side details (partial stats, governor verdict); meaningful
  /// after Wait() returned a non-OK result.
  const QueryErrorInfo& error_info() const;

  /// The id the query runs under, fixed at Submit (client-supplied via
  /// QueryOptions::query_id or Engine-assigned). Empty on invalid handles.
  const std::string& query_id() const;

 private:
  friend class Engine;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<Result<QueryResult>> result;
    QueryErrorInfo error_info;
    std::atomic<bool> cancel{false};
    /// Invoked under mu right after done flips true; see SetDoneCallback.
    std::function<void()> on_done;
    /// Immutable after Submit returns the handle.
    std::string query_id;
  };

  explicit QueryHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// The service facade. Thread-safe: Query/Plan/Submit may be called
/// concurrently; Apply excludes running queries.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Applies one mutation (see service/mutation.h) writer-exclusively
  /// against running queries, and reports what changed. Inserts and
  /// deletes maintain the estimator incrementally and invalidate only the
  /// plan-cache entries whose tag sets the mutation touched; loads clear
  /// the cache globally. An insert that exhausts its key gap automatically
  /// flushes the overlay and retries once.
  Result<MutationResult> Apply(Mutation mutation);

  /// Adopts an already-opened Database. Same invalidation as a load.
  Status OpenDatabase(Database db);

  bool has_database() const;

  /// The loaded database. SJOS_CHECK-fails when none is loaded — callers
  /// needing the document/dictionary should check has_database() first.
  const Database& db() const;

  /// Plans `pattern` (cache first, then estimate + search). The returned
  /// plan references `pattern`'s node ids.
  Result<PlannedQuery> Plan(const Pattern& pattern,
                            const QueryOptions& options = {});

  /// Plans and executes `pattern` synchronously. On failure, fills
  /// `error_info` (when non-null) with partial progress and the governor
  /// verdict.
  Result<QueryResult> Query(const Pattern& pattern,
                            const QueryOptions& options = {},
                            QueryErrorInfo* error_info = nullptr);

  /// Enqueues the query for asynchronous execution on the Engine's pool
  /// and returns immediately. At most EngineOptions::max_in_flight
  /// submitted queries execute concurrently.
  QueryHandle Submit(Pattern pattern, QueryOptions options = {});

  PlanCache& plan_cache() { return cache_; }
  const PlanCache& plan_cache() const { return cache_; }

  /// High-water mark of the in-flight registry: queries concurrently
  /// inside RunQuery, submitted or synchronous (the set /statusz lists).
  size_t peak_in_flight() const;

  /// The audit/slow-query log (always present; file sinks only when
  /// EngineOptions::query_log configures paths).
  QueryLog& query_log() { return *query_log_; }
  const QueryLog& query_log() const { return *query_log_; }

  /// Snapshot of queries currently inside RunQuery (planning or
  /// executing), oldest first. Powers /statusz and the shell's \top.
  std::vector<InFlightInfo> InFlightQueries() const;

 private:
  /// db_mu_ shared (queries) or exclusive (mutations), taken through
  /// db_writer_gate_ so that a stream of queries cannot starve a mutation.
  std::shared_lock<std::shared_mutex> ReadLock() const;
  std::unique_lock<std::shared_mutex> WriteLock();

  /// Replaces db_/estimator_ and clears the plan cache, under an
  /// already-held exclusive db_mu_. Returns the number of plans dropped.
  size_t InstallDatabaseLocked(Database db);

  /// Apply() branches, all under exclusive db_mu_.
  Result<MutationResult> ApplyFoldLocked(const FoldMutation& fold);
  Result<MutationResult> ApplyInsertLocked(const InsertSubtree& insert);
  Result<MutationResult> ApplyDeleteLocked(const DeleteSubtree& del);
  Result<MutationResult> ApplyFlushLocked();

  /// Folds a mutation delta into the estimator (incremental) and the plan
  /// cache (tag-set scoped), filling `result`.
  void ApplyDeltaLocked(const Database::MutationDelta& delta,
                        MutationResult* result);

  void RebuildEstimatorLocked();

  /// Plan + execute under an already-held reader lock.
  Result<QueryResult> RunQuery(const Pattern& pattern,
                               const QueryOptions& options,
                               const std::atomic<bool>* cancel_token,
                               QueryErrorInfo* error_info);

  Result<PlannedQuery> PlanLocked(const Pattern& pattern,
                                  const QueryOptions& options);

  const EngineOptions options_;

  /// Guards db_/estimator_: queries hold it shared, mutations
  /// exclusively. Taken only through ReadLock()/WriteLock().
  mutable std::shared_mutex db_mu_;
  /// A mutation holds this while it waits for db_mu_, and every query
  /// passes through it before taking db_mu_ shared, so new queries queue
  /// behind a waiting mutation. Without it, std::shared_mutex may keep
  /// admitting readers (glibc's does) and overlapping queries starve
  /// every write. No thread may call ReadLock() while it holds db_mu_.
  mutable std::mutex db_writer_gate_;
  std::optional<Database> db_;
  std::optional<PositionalHistogramEstimator> estimator_;
  CostModel cost_model_;

  PlanCache cache_;

  /// One registry slot per query inside RunQuery. The executor publishes
  /// live bytes straight into the entry's atomic (no locking on the query
  /// path); InFlightQueries() snapshots under in_flight_mu_. Register and
  /// Unregister set the sjos_engine_in_flight gauge to the registry size
  /// and raise the peak, under the same lock.
  struct InFlightEntry {
    std::string query_id;
    std::string tenant;
    std::string optimizer;
    std::chrono::steady_clock::time_point start;
    std::atomic<uint64_t> live_bytes{0};
  };

  std::shared_ptr<InFlightEntry> RegisterInFlight(const QueryOptions& options);
  void UnregisterInFlight(const InFlightEntry* entry);

  mutable std::mutex in_flight_mu_;
  std::vector<std::shared_ptr<InFlightEntry>> in_flight_entries_;
  size_t peak_in_flight_ = 0;

  /// Sequence for Engine-assigned "q-<n>" ids.
  std::atomic<uint64_t> next_query_id_{1};
  std::string NextQueryId() {
    return "q-" + std::to_string(
                      next_query_id_.fetch_add(1, std::memory_order_relaxed));
  }

  std::unique_ptr<QueryLog> query_log_;

  /// The worker queue Submit() enqueues onto; its worker count is the
  /// admission gate. Declared last so it is destroyed first: its
  /// destructor runs every queued query before any member they use goes.
  ThreadPool pool_;
};

}  // namespace sjos

#endif  // SJOS_SERVICE_ENGINE_H_
