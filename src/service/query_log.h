// Structured per-query audit log (DESIGN.md §12). Every query the Engine
// finishes — success or failure — appends one QueryLogRecord; records are
// kept in a bounded in-memory ring (servicing /statusz and the shell's
// \slow command) and, when a path is configured, written as JSONL by a
// background writer thread so file I/O never sits on the query's critical
// path. Records whose total_ms reaches QueryLogOptions::slow_query_ms are
// additionally promoted to a separate slow-query sink, ClickHouse
// query_log style.
//
// Failed queries carry a FlightRecord: the engine's coarse phase spans and
// the process-counter deltas observed across the query's lifetime, so a
// postmortem does not require re-running the query with SJOS_TRACE armed.

#ifndef SJOS_SERVICE_QUERY_LOG_H_
#define SJOS_SERVICE_QUERY_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sjos {

/// Always-on failure context captured by the Engine when a query ends in
/// an error (governor verdicts and injected faults included): engine-level
/// phase spans plus every process counter that moved while the query ran.
struct FlightRecord {
  struct Span {
    std::string name;     // "plan", "execute"
    double start_ms = 0;  // offset from query start
    double dur_ms = 0;
  };

  std::vector<Span> spans;
  /// Counters that changed during the query, (series name, delta) in name
  /// order. Under concurrency deltas may include neighbours' activity —
  /// they bound, not isolate, the query's own work.
  std::vector<std::pair<std::string, uint64_t>> counter_deltas;

  bool empty() const { return spans.empty() && counter_deltas.empty(); }

  /// {"spans":[{"name":...,"start_ms":...,"dur_ms":...}],
  ///  "counter_deltas":{"<series>":N,...}}
  std::string ToJson() const;
};

/// One finished query, as recorded in the audit log.
struct QueryLogRecord {
  std::string query_id;
  std::string tenant;
  /// The plan-cache key — `<optimizer kind>|<canonical pattern
  /// fingerprint>` — a stable identity for "the same query".
  std::string fingerprint;
  std::string optimizer;    // OptimizerKindName of the planning algorithm
  std::string status_code;  // StatusCodeName of the outcome
  /// Governor verdict ("deadline" | "memory" | "cancelled"), the submit
  /// path's "cancelled-before-dispatch", or "" when no limit fired.
  std::string verdict;
  bool ok = true;
  bool cache_hit = false;
  uint64_t est_rows = 0;  // optimizer's root estimate; 0 when unannotated
  uint64_t actual_rows = 0;
  double max_q_error = 0.0;
  uint64_t peak_live_bytes = 0;
  uint64_t batches = 0;  // NextBatch calls summed over the plan's operators
  double parse_ms = 0.0;  // caller-side text→Pattern time (wire/shell)
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  double total_ms = 0.0;
  /// Wall-clock microseconds since the Unix epoch at record time.
  int64_t ts_us = 0;
  /// Failure context; empty (and omitted from the JSONL) on success.
  FlightRecord flight;

  /// One JSON object, no trailing newline.
  std::string ToJsonl() const;
};

struct QueryLogOptions {
  /// Audit sink; "" keeps the log in-memory only (the ring still serves
  /// recent/slow queries to /statusz and the shell).
  std::string path;
  /// Separate sink for promoted slow queries; "" = no slow file (slow
  /// records are still retained in the in-memory slow ring).
  std::string slow_path;
  /// Promote records with total_ms >= this to the slow sink; 0 disables
  /// promotion entirely.
  uint64_t slow_query_ms = 100;
  /// Bound on records queued for the background writer; Append drops the
  /// oldest pending record (counted by dropped()) rather than block.
  size_t ring_capacity = 1024;
};

/// Lock-cheap audit log. Append copies the record into bounded in-memory
/// rings and wakes the writer thread; serialization and file writes happen
/// only on the writer. Thread-safe.
class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions options);
  ~QueryLog();

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  void Append(QueryLogRecord record);

  /// The most recent records (newest last), up to `n`.
  std::vector<QueryLogRecord> Recent(size_t n) const;

  /// The most recent slow-promoted records (newest last), up to `n`.
  std::vector<QueryLogRecord> RecentSlow(size_t n) const;

  /// Blocks until every record appended so far has been written (and the
  /// files flushed). For tests and shutdown.
  void Flush();

  uint64_t appended() const;
  uint64_t slow_count() const;
  /// Pending records discarded because the writer fell behind the ring.
  uint64_t dropped() const;

  const QueryLogOptions& options() const { return options_; }

 private:
  void WriterLoop();
  void WriteBatch(const std::vector<QueryLogRecord>& batch);

  const QueryLogOptions options_;
  std::FILE* file_ = nullptr;       // audit sink, owned
  std::FILE* slow_file_ = nullptr;  // slow sink, owned

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the writer
  std::condition_variable idle_cv_;  // wakes Flush waiters
  std::deque<QueryLogRecord> pending_;
  std::deque<QueryLogRecord> recent_;
  std::deque<QueryLogRecord> recent_slow_;
  uint64_t appended_ = 0;
  uint64_t slow_ = 0;
  uint64_t dropped_ = 0;
  bool writer_busy_ = false;
  bool stop_ = false;
  std::thread writer_;
};

}  // namespace sjos

#endif  // SJOS_SERVICE_QUERY_LOG_H_
