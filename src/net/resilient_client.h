// Fault-tolerant wrapper over net::Client: transparent reconnect on
// EOF/ECONNRESET with capped decorrelated-jitter backoff, a token-bucket
// retry budget, honoring of server `retry_after_ms` shed hints, and a
// per-endpoint circuit breaker. Safe re-sends lean on the server's
// idempotent submit: requests are keyed by the client-supplied query id,
// so a re-submit after a torn reply attaches to the live query (or replays
// its stored terminal response) instead of double-executing.
//
// Each instance seeds its backoff jitter differently (a process-wide
// counter), so clients that fail together do not retry in lockstep.
//
// Like Client, an instance is not thread-safe — one per thread. The
// metrics it bumps (sjos_client_*) are process-global.

#ifndef SJOS_NET_RESILIENT_CLIENT_H_
#define SJOS_NET_RESILIENT_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/client.h"
#include "net/json.h"
#include "net/retry_policy.h"

namespace sjos {
namespace net {

struct ResilientClientOptions {
  RetryPolicy retry;
  RetryClock clock = RetryClock::Real();
  /// Server-side block per poll round trip in Execute().
  uint64_t poll_wait_ms = 200;
};

class ResilientClient {
 public:
  ResilientClient(std::string host, uint16_t port,
                  ResilientClientOptions options = {});

  /// Counts of what resilience cost so far (also exported as
  /// sjos_client_* counters).
  struct Stats {
    uint64_t retries = 0;
    uint64_t reconnects = 0;
    uint64_t resubmits = 0;
    uint64_t breaker_opens = 0;
    uint64_t hint_waits = 0;
  };

  /// One request/response round trip with reconnect + retry. A transport
  /// loss (kUnavailable) closes and re-dials, then re-sends — only when
  /// `idempotent` (the default: every protocol verb is safe to re-send
  /// because submits dedupe on id and the rest are reads or idempotent
  /// cancels). A response-level shed (ok:false with a retry_after_ms hint)
  /// sleeps the hint and re-sends. Returns the final parsed response, or
  /// the transport error once attempts/budget are exhausted or the breaker
  /// is open.
  Result<JsonValue> Call(std::string_view request_json, bool idempotent = true);

  /// Drives a submit to a definite terminal state: submit (retrying /
  /// re-attaching as needed), then poll until done. A poll answered
  /// NotFound (the server restarted or evicted the id) re-submits the same
  /// id and keeps polling. The returned object is the terminal response:
  /// ok:true+done:true with a result, or ok:false+done:true with the
  /// error, or ok:false with a shed that outlived every retry.
  Result<JsonValue> Execute(const std::string& id,
                            std::string_view submit_json);

  const Stats& stats() const { return stats_; }
  bool connected() const { return client_.connected(); }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  void Close() { client_.Close(); }

 private:
  Status EnsureConnected();
  /// Sends and receives once on the current connection; kUnavailable on
  /// any transport loss (connection closed on the way out).
  Result<JsonValue> CallOnce(std::string_view request_json);

  std::string host_;
  uint16_t port_;
  ResilientClientOptions options_;
  Client client_;
  Backoff backoff_;
  TokenBucket budget_;
  CircuitBreaker breaker_;
  Stats stats_;
  /// Dials after the first successful one count as reconnects.
  bool ever_connected_ = false;
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_RESILIENT_CLIENT_H_
