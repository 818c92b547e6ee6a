#include "common/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/str_util.h"

namespace sjos {

namespace {

/// The recording thread's current query-id tag; spans copy it at record
/// time, so a worker that opens the scope for the query it runs tags its
/// spans with that query's id.
thread_local char t_trace_qid[kTraceQueryIdBytes] = {0};

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void FlushGlobalTracerAtExit() { (void)Tracer::Global().Stop(); }

}  // namespace

Tracer::Tracer() {
  if (const char* env = std::getenv("SJOS_TRACE"); env != nullptr &&
                                                   *env != '\0') {
    if (Start(env).ok()) std::atexit(FlushGlobalTracerAtExit);
  }
}

Tracer& Tracer::Global() {
  // Leaked: worker threads may record spans during process teardown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Status Tracer::Start(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty trace path");
  std::lock_guard<std::mutex> lock(mu_);
  if (!path_.empty()) {
    return Status::InvalidArgument("a trace session is already active");
  }
  path_ = path;
  for (const std::shared_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
  epoch_ns_.store(SteadyNowNanos(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status Tracer::Stop() {
  SJOS_FAILPOINT("trace.flush");
  enabled_.store(false, std::memory_order_relaxed);
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty()) return Status::OK();
    path = path_;
    path_.clear();
  }
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open trace file '%s'", path.c_str()));
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal(
        StrFormat("short write to trace file '%s'", path.c_str()));
  }
  return Status::OK();
}

int64_t Tracer::NowMicros() const {
  return (SteadyNowNanos() - epoch_ns_.load(std::memory_order_relaxed)) /
         1000;
}

Tracer::Ring* Tracer::RingForThisThread() {
  thread_local Tracer* owner = nullptr;
  thread_local std::shared_ptr<Ring> ring;
  if (owner != this) {
    ring = std::make_shared<Ring>();
    ring->events.reserve(kTraceRingCapacity);
    std::lock_guard<std::mutex> lock(mu_);
    ring->tid = static_cast<uint32_t>(rings_.size() + 1);
    rings_.push_back(ring);
    owner = this;
  }
  return ring.get();
}

void Tracer::RecordSpan(const char* prefix, const char* suffix, int64_t ts_us,
                        int64_t dur_us) {
  Ring* ring = RingForThisThread();
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(ring->mu);
    Event* ev;
    if (ring->events.size() < kTraceRingCapacity) {
      ev = &ring->events.emplace_back();
    } else {
      ev = &ring->events[ring->next];
      ring->next = (ring->next + 1) % kTraceRingCapacity;
      ++ring->dropped;
      overwrote = true;
    }
    std::snprintf(ev->name, sizeof(ev->name), "%s%s", prefix,
                  suffix != nullptr ? suffix : "");
    std::memcpy(ev->qid, t_trace_qid, sizeof(ev->qid));
    ev->ts_us = ts_us;
    ev->dur_us = dur_us;
  }
  if (overwrote) {
    // Mirror of the per-ring dropped count as a scrapeable counter, so a
    // wrapped ring is visible without flushing a trace file.
    static Counter& dropped_total = MetricsRegistry::Global().GetCounter(
        "sjos_trace_dropped_events_total");
    dropped_total.Add();
  }
}

TraceQueryScope::TraceQueryScope(const char* qid) {
  std::memcpy(saved_, t_trace_qid, sizeof(saved_));
  std::snprintf(t_trace_qid, sizeof(t_trace_qid), "%s",
                qid != nullptr ? qid : "");
}

TraceQueryScope::~TraceQueryScope() {
  std::memcpy(t_trace_qid, saved_, sizeof(saved_));
}

const char* CurrentTraceQueryId() { return t_trace_qid; }

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  uint64_t dropped = 0;
  for (const std::shared_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    dropped += ring->dropped;
    for (const Event& ev : ring->events) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      AppendJsonString(ev.name, &out);
      out += StrFormat(
          ",\"cat\":\"sjos\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
          "\"pid\":1,\"tid\":%u",
          static_cast<long long>(ev.ts_us), static_cast<long long>(ev.dur_us),
          ring->tid);
      if (ev.qid[0] != '\0') {
        out += ",\"args\":{\"qid\":";
        AppendJsonString(ev.qid, &out);
        out += '}';
      }
      out += '}';
    }
  }
  out += StrFormat("],\"sjosDroppedEvents\":%llu}",
                   static_cast<unsigned long long>(dropped));
  return out;
}

size_t Tracer::NumEventsForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const std::shared_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    n += ring->events.size();
  }
  return n;
}

size_t Tracer::NumRingsForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rings_.size();
}

}  // namespace sjos
