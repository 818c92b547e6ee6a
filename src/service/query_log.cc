#include "service/query_log.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string_view>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/str_util.h"

namespace sjos {

namespace {

/// Records retained for /statusz and the shell's \slow, per ring.
constexpr size_t kRecentCapacity = 256;

struct QueryLogMetrics {
  Counter& records;
  Counter& slow;
  Counter& dropped;

  static QueryLogMetrics& Get() {
    static QueryLogMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.SetHelp("sjos_query_log_records_total",
                  "Queries recorded in the audit log");
      reg.SetHelp("sjos_query_log_slow_total",
                  "Audit records promoted to the slow-query sink");
      reg.SetHelp("sjos_query_log_dropped_total",
                  "Pending audit records dropped because the writer fell "
                  "behind");
      return new QueryLogMetrics{
          reg.GetCounter("sjos_query_log_records_total"),
          reg.GetCounter("sjos_query_log_slow_total"),
          reg.GetCounter("sjos_query_log_dropped_total")};
    }();
    return *m;
  }
};

void AppendField(std::string_view key, std::string_view value, bool* first,
                 std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  AppendJsonString(key, out);
  out->push_back(':');
  *out += value;
}

void AppendStringField(std::string_view key, std::string_view value,
                       bool* first, std::string* out) {
  std::string quoted;
  AppendJsonString(value, &quoted);
  AppendField(key, quoted, first, out);
}

std::string U64(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

int64_t WallNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string FlightRecord::ToJson() const {
  std::string out = "{\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":";
    AppendJsonString(spans[i].name, &out);
    out += ",\"start_ms\":" + FormatDouble(spans[i].start_ms, 3);
    out += ",\"dur_ms\":" + FormatDouble(spans[i].dur_ms, 3);
    out += '}';
  }
  out += "],\"counter_deltas\":{";
  for (size_t i = 0; i < counter_deltas.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(counter_deltas[i].first, &out);
    out += ':' + U64(counter_deltas[i].second);
  }
  out += "}}";
  return out;
}

std::string QueryLogRecord::ToJsonl() const {
  std::string out = "{";
  bool first = true;
  AppendStringField("query_id", query_id, &first, &out);
  AppendStringField("tenant", tenant, &first, &out);
  AppendStringField("fingerprint", fingerprint, &first, &out);
  AppendStringField("optimizer", optimizer, &first, &out);
  AppendStringField("status", status_code, &first, &out);
  AppendStringField("verdict", verdict, &first, &out);
  AppendField("ok", ok ? "true" : "false", &first, &out);
  AppendField("cache_hit", cache_hit ? "true" : "false", &first, &out);
  AppendField("est_rows", U64(est_rows), &first, &out);
  AppendField("actual_rows", U64(actual_rows), &first, &out);
  AppendField("max_q_error", FormatDouble(max_q_error, 4), &first, &out);
  AppendField("peak_live_bytes", U64(peak_live_bytes), &first, &out);
  AppendField("batches", U64(batches), &first, &out);
  AppendField("parse_ms", FormatDouble(parse_ms, 3), &first, &out);
  AppendField("optimize_ms", FormatDouble(optimize_ms, 3), &first, &out);
  AppendField("execute_ms", FormatDouble(execute_ms, 3), &first, &out);
  AppendField("total_ms", FormatDouble(total_ms, 3), &first, &out);
  AppendField("ts_us", StrFormat("%lld", static_cast<long long>(ts_us)),
              &first, &out);
  if (!flight.empty()) AppendField("flight", flight.ToJson(), &first, &out);
  out += '}';
  return out;
}

QueryLog::QueryLog(QueryLogOptions options) : options_(std::move(options)) {
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "a");
  }
  if (!options_.slow_path.empty()) {
    slow_file_ = std::fopen(options_.slow_path.c_str(), "a");
  }
  if (file_ != nullptr || slow_file_ != nullptr) {
    writer_ = std::thread(&QueryLog::WriterLoop, this);
  }
}

QueryLog::~QueryLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (file_ != nullptr) std::fclose(file_);
  if (slow_file_ != nullptr) std::fclose(slow_file_);
}

void QueryLog::Append(QueryLogRecord record) {
  if (record.ts_us == 0) record.ts_us = WallNowUs();
  const bool slow = options_.slow_query_ms > 0 &&
                    record.total_ms >=
                        static_cast<double>(options_.slow_query_ms);
  QueryLogMetrics::Get().records.Add();
  if (slow) QueryLogMetrics::Get().slow.Add();
  const bool has_file = file_ != nullptr || slow_file_ != nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++appended_;
    if (slow) {
      ++slow_;
      recent_slow_.push_back(record);
      if (recent_slow_.size() > kRecentCapacity) recent_slow_.pop_front();
    }
    recent_.push_back(has_file ? record : std::move(record));
    if (recent_.size() > kRecentCapacity) recent_.pop_front();
    if (has_file) {
      if (pending_.size() >= options_.ring_capacity) {
        pending_.pop_front();
        ++dropped_;
        QueryLogMetrics::Get().dropped.Add();
      }
      pending_.push_back(std::move(record));
    }
  }
  if (has_file) cv_.notify_one();
}

std::vector<QueryLogRecord> QueryLog::Recent(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, recent_.size());
  return std::vector<QueryLogRecord>(recent_.end() - take, recent_.end());
}

std::vector<QueryLogRecord> QueryLog::RecentSlow(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, recent_slow_.size());
  return std::vector<QueryLogRecord>(recent_slow_.end() - take,
                                     recent_slow_.end());
}

void QueryLog::Flush() {
  if (!writer_.joinable()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_.empty() && !writer_busy_; });
}

uint64_t QueryLog::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t QueryLog::slow_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

uint64_t QueryLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void QueryLog::WriterLoop() {
  for (;;) {
    std::vector<QueryLogRecord> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) {
        if (stop_) return;
        continue;
      }
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.end()));
      pending_.clear();
      writer_busy_ = true;
    }
    // Delay-injection point so tests can stall the writer and exercise the
    // ring-overflow path deterministically.
    SJOS_FAILPOINT_VOID("querylog.write");
    WriteBatch(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      writer_busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

void QueryLog::WriteBatch(const std::vector<QueryLogRecord>& batch) {
  const bool promote = options_.slow_query_ms > 0;
  for (const QueryLogRecord& record : batch) {
    const std::string line = record.ToJsonl() + "\n";
    if (file_ != nullptr) {
      std::fwrite(line.data(), 1, line.size(), file_);
    }
    if (slow_file_ != nullptr && promote &&
        record.total_ms >= static_cast<double>(options_.slow_query_ms)) {
      std::fwrite(line.data(), 1, line.size(), slow_file_);
    }
  }
  if (file_ != nullptr) std::fflush(file_);
  if (slow_file_ != nullptr) std::fflush(slow_file_);
}

}  // namespace sjos
