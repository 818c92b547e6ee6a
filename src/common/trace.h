// Low-overhead span tracing in Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing). Each thread records complete spans
// ("ph":"X") into its own fixed-capacity ring buffer, so recording is one
// short critical section on an uncontended per-thread mutex and never
// allocates after the ring exists; when tracing is disabled the whole path
// is a single relaxed atomic load and branch, and no ring is ever created.
//
// A session starts one of two ways: the SJOS_TRACE=<file> environment
// variable (flushed at process exit), or Start()/Stop() on the global
// tracer (the shell's \trace command). A session is process-wide: it
// records every query that runs while it is active. Rings overwrite their
// oldest events when full; the dropped count is reported in the flush
// output's metadata.

#ifndef SJOS_COMMON_TRACE_H_
#define SJOS_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace sjos {

/// Per-thread ring capacity in events. 16K complete spans per thread keep
/// the tail of an execution; earlier events are overwritten when exceeded.
inline constexpr size_t kTraceRingCapacity = 16384;

/// Fixed storage for the per-span query-id tag (terminator included);
/// longer ids are truncated in the trace output only.
inline constexpr size_t kTraceQueryIdBytes = 32;

/// Global span tracer. Use Tracer::Global(); separate instances exist only
/// for tests.
class Tracer {
 public:
  Tracer();

  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Begins a trace session writing to `path` on Stop(). Fails
  /// (InvalidArgument) when a session is already active. Clears events
  /// left from a previous session and restarts the clock.
  Status Start(const std::string& path);

  /// Ends the session and writes the Chrome trace JSON file. No-op (OK)
  /// when no session is active.
  Status Stop();

  /// Microseconds since the current session started.
  int64_t NowMicros() const;

  /// Records one complete span named `prefix` + `suffix` (suffix may be
  /// null). Call only while enabled().
  void RecordSpan(const char* prefix, const char* suffix, int64_t ts_us,
                  int64_t dur_us);

  /// Serializes all recorded events (without ending the session).
  std::string ToJson() const;

  size_t NumEventsForTest() const;
  size_t NumRingsForTest() const;

 private:
  struct Event {
    char name[48];
    /// Query-id tag captured from the recording thread's TraceQueryScope
    /// ("" outside any scope); emitted as args:{"qid":...} so one query's
    /// spans can be filtered across threads in Perfetto.
    char qid[kTraceQueryIdBytes];
    int64_t ts_us;
    int64_t dur_us;
  };
  struct Ring {
    mutable std::mutex mu;
    std::vector<Event> events;  // capacity-bounded, append until full
    size_t next = 0;            // overwrite cursor once full
    uint64_t dropped = 0;
    uint32_t tid = 0;
  };

  Ring* RingForThisThread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards path_ and the rings_ vector
  std::string path_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::atomic<int64_t> epoch_ns_{0};
};

/// Tags every span the calling thread records (until destruction) with a
/// query id, so Perfetto can filter one query's spans. Scopes nest and
/// restore the previous tag on destruction; the Engine opens one per query,
/// and its worker task opens one before its pool.task span. Ids longer
/// than kTraceQueryIdBytes - 1 are truncated in the trace output.
class TraceQueryScope {
 public:
  explicit TraceQueryScope(const char* qid);
  explicit TraceQueryScope(const std::string& qid)
      : TraceQueryScope(qid.c_str()) {}
  ~TraceQueryScope();

  TraceQueryScope(const TraceQueryScope&) = delete;
  TraceQueryScope& operator=(const TraceQueryScope&) = delete;

 private:
  char saved_[kTraceQueryIdBytes];
};

/// The calling thread's current query-id tag ("" outside any scope).
const char* CurrentTraceQueryId();

/// RAII span: measures construction-to-destruction and records it on the
/// global tracer. When tracing is disabled, both ends reduce to one atomic
/// load and branch.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* suffix = nullptr) {
    if (!Tracer::Global().enabled()) return;
    name_ = name;
    suffix_ = suffix;
    start_us_ = Tracer::Global().NowMicros();
  }
  ~TraceSpan() {
    if (name_ == nullptr) return;
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) return;
    tracer.RecordSpan(name_, suffix_, start_us_,
                      tracer.NowMicros() - start_us_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* suffix_ = nullptr;
  int64_t start_us_ = 0;
};

}  // namespace sjos

#endif  // SJOS_COMMON_TRACE_H_
