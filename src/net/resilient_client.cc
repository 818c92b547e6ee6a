#include "net/resilient_client.h"

#include <atomic>
#include <utility>

#include "common/metrics.h"

namespace sjos {
namespace net {

namespace {

struct ClientMetrics {
  Counter& retries;
  Counter& reconnects;
  Counter& resubmits;
  Counter& breaker_opens;

  /// Registered eagerly (first ResilientClient construction) so the
  /// counters appear in every metrics export at 0 — sjos_promcheck and the
  /// chaos harness assert on their presence, not just their growth.
  static ClientMetrics& Get() {
    static ClientMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.SetHelp("sjos_client_retries_total",
                  "Resilient-client re-sends (transport loss or shed hint)");
      reg.SetHelp("sjos_client_breaker_open_total",
                  "Circuit-breaker transitions to open");
      return new ClientMetrics{
          reg.GetCounter("sjos_client_retries_total"),
          reg.GetCounter("sjos_client_reconnects_total"),
          reg.GetCounter("sjos_client_resubmits_total"),
          reg.GetCounter("sjos_client_breaker_open_total")};
    }();
    return *m;
  }
};

/// True for a response-level terminal state: the query finished (ok or
/// not) and polling further would be wrong.
bool IsDone(const JsonValue& resp) {
  const JsonValue* done = resp.Find("done");
  return done != nullptr && done->is_bool() && done->bool_value();
}

bool IsOk(const JsonValue& resp) {
  const JsonValue* ok = resp.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

uint64_t RetryAfterMs(const JsonValue& resp) {
  const JsonValue* hint = resp.Find("retry_after_ms");
  if (hint == nullptr || !hint->is_number() || hint->number_value() <= 0) {
    return 0;
  }
  return static_cast<uint64_t>(hint->number_value());
}

bool CodeIs(const JsonValue& resp, std::string_view name) {
  const JsonValue* code = resp.Find("code");
  return code != nullptr && code->is_string() && code->string_value() == name;
}

/// A distinct jitter seed per client, so clients that fail together draw
/// different backoff delays.
uint64_t NextJitterSeed() {
  static std::atomic<uint64_t> clients{0};
  return 0x5EEDBACC0FFEEULL + clients.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ResilientClient::ResilientClient(std::string host, uint16_t port,
                                 ResilientClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      backoff_(options_.retry.base_backoff_ms, options_.retry.max_backoff_ms,
               NextJitterSeed()),
      budget_(options_.retry.budget_tokens,
              options_.retry.budget_refill_per_s),
      breaker_(options_.retry.breaker_failure_threshold, kBreakerOpenMs) {
  ClientMetrics::Get();
}

Status ResilientClient::EnsureConnected() {
  if (client_.connected()) return Status::OK();
  Result<Client> conn = Client::Connect(host_, port_);
  if (!conn.ok()) return conn.status();
  client_ = std::move(conn).value();
  // Any successful dial after the first is a reconnect, whether the old
  // connection died under us or was closed deliberately.
  if (ever_connected_) {
    ++stats_.reconnects;
    ClientMetrics::Get().reconnects.Add();
  }
  ever_connected_ = true;
  return Status::OK();
}

Result<JsonValue> ResilientClient::CallOnce(std::string_view request_json) {
  SJOS_RETURN_IF_ERROR(EnsureConnected());
  Status sent = client_.Send(request_json);
  if (!sent.ok()) {
    client_.Close();
    return sent;
  }
  Result<std::string> payload = client_.Receive();
  if (!payload.ok()) {
    client_.Close();
    return payload.status();
  }
  Result<JsonValue> parsed = ParseJson(payload.value());
  if (!parsed.ok()) {
    // A half-garbled reply means the stream is unsynchronized; the
    // connection is useless, though the error itself is not retryable.
    client_.Close();
  }
  return parsed;
}

Result<JsonValue> ResilientClient::Call(std::string_view request_json,
                                        bool idempotent) {
  uint32_t attempts = 0;
  const uint32_t max_attempts =
      options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
  while (true) {
    if (!breaker_.Allow(options_.clock.now_us())) {
      return Status::Unavailable("circuit breaker open for " + host_ + ":" +
                                 std::to_string(port_));
    }
    Result<JsonValue> result = CallOnce(request_json);
    ++attempts;
    if (result.ok()) {
      breaker_.RecordSuccess();
      backoff_.Reset();
      const JsonValue& resp = result.value();
      const uint64_t hint = RetryAfterMs(resp);
      // A shed (ok:false with a pacing hint) is retryable at the server's
      // requested cadence — but never terminal-done errors, which also
      // carry no hint.
      if (!IsOk(resp) && hint > 0 && attempts < max_attempts) {
        if (!budget_.TryTake(options_.clock.now_us())) return result;
        options_.clock.sleep_us(hint * 1000);
        ++stats_.retries;
        ++stats_.hint_waits;
        ClientMetrics::Get().retries.Add();
        continue;
      }
      return result;
    }

    const Status& st = result.status();
    const bool transport_loss = st.code() == StatusCode::kUnavailable;
    if (transport_loss &&
        breaker_.RecordFailure(options_.clock.now_us())) {
      ++stats_.breaker_opens;
      ClientMetrics::Get().breaker_opens.Add();
    }
    if (!transport_loss || !idempotent || attempts >= max_attempts) {
      return result;
    }
    if (!budget_.TryTake(options_.clock.now_us())) {
      return Status::ResourceExhausted("retry budget exhausted after: " +
                                       st.ToString());
    }
    options_.clock.sleep_us(backoff_.NextDelayMs() * 1000);
    ++stats_.retries;
    ClientMetrics::Get().retries.Add();
  }
}

Result<JsonValue> ResilientClient::Execute(const std::string& id,
                                           std::string_view submit_json) {
  // Phase 1: get the submit accepted (or learn its terminal state — a
  // re-submit of a completed id replays the stored response directly).
  Result<JsonValue> submitted = Call(submit_json);
  if (!submitted.ok()) return submitted;
  {
    const JsonValue& resp = submitted.value();
    if (IsDone(resp)) return submitted;     // replayed terminal response
    if (!IsOk(resp)) return submitted;      // rejected (bad query, shed out)
  }

  // Phase 2: poll to a terminal state; the id is our idempotency key
  // across reconnects and server restarts.
  std::string poll_json = "{\"verb\":\"poll\",\"id\":";
  AppendJsonString(id, &poll_json);
  poll_json +=
      ",\"wait_ms\":" + std::to_string(options_.poll_wait_ms) + "}";
  while (true) {
    Result<JsonValue> polled = Call(poll_json);
    if (!polled.ok()) return polled;
    const JsonValue& resp = polled.value();
    if (IsDone(resp)) return polled;
    if (IsOk(resp)) continue;  // still running
    if (CodeIs(resp, "NotFound")) {
      // The server no longer knows the id — it restarted, or the
      // completed-ring evicted an undelivered result. Re-submit under the
      // same id and keep polling.
      ++stats_.resubmits;
      ClientMetrics::Get().resubmits.Add();
      Result<JsonValue> again = Call(submit_json);
      if (!again.ok()) return again;
      const JsonValue& sub = again.value();
      if (IsDone(sub)) return again;
      if (!IsOk(sub)) return again;
      continue;
    }
    return polled;  // some other definite error
  }
}

}  // namespace net
}  // namespace sjos
