// ObservabilityServer: a minimal HTTP/1.0 GET server exposing the
// process's observability surfaces beside the framed-TCP query port, so
// standard tooling (curl, Prometheus) can scrape without speaking the
// wire protocol:
//
//   /metrics — Prometheus text exposition of the global MetricsRegistry
//   /healthz — "ok" liveness probe
//   /statusz — JSON: queries in flight right now (id, tenant, optimizer,
//              elapsed ms, live bytes), recent slow queries, and audit-log
//              totals
//
// Deliberately tiny: GET only, one request per connection (Connection:
// close), recv/send timeouts so a stuck client cannot wedge the accept
// loop. Not a general web server — an operator port. The listener and
// the write loop are net/frame.h's Listen and SendAll, shared with the
// query server; the limits below are fixed, not configured.
//
// Lifetime: the server must be destroyed (or Stop()ed) before the Engine
// it reads from.

#ifndef SJOS_NET_HTTP_H_
#define SJOS_NET_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/engine.h"

namespace sjos {
namespace net {

struct HttpServerOptions {
  /// Listen address; 0 picks an ephemeral port (read back with port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Ceiling on the request head the server buffers before answering 400.
inline constexpr size_t kHttpMaxRequestBytes = 8192;

/// Per-connection recv/send timeout; a client slower than this is cut off
/// rather than allowed to block the (single-threaded) serve loop.
inline constexpr uint64_t kHttpIoTimeoutMs = 2000;

/// Entries returned in /statusz's "slow" array.
inline constexpr size_t kStatuszSlowQueries = 16;

class ObservabilityServer {
 public:
  /// `engine` must outlive this server.
  ObservabilityServer(Engine* engine, HttpServerOptions options = {});
  ~ObservabilityServer();

  ObservabilityServer(const ObservabilityServer&) = delete;
  ObservabilityServer& operator=(const ObservabilityServer&) = delete;

  /// Binds, listens, and starts the serve loop. Fails (without leaking
  /// the socket) when the address cannot be bound.
  Status Start();

  /// Shuts down the listener, joins the serve thread, then closes the
  /// listener. Idempotent; called by the destructor.
  void Stop();

  /// The bound port (after Start); useful with HttpServerOptions::port == 0.
  uint16_t port() const { return port_; }

  /// The response body /statusz serves, exposed for local (in-process)
  /// consumers: the shell's \top reuses it without a socket.
  std::string StatuszJson() const;

 private:
  void ServeLoop();
  void ServeConnection(int fd);
  /// Routes `path`; fills status line, content type, and body.
  void HandlePath(const std::string& path, int* http_status,
                  std::string* content_type, std::string* body) const;

  Engine* engine_;
  const HttpServerOptions options_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread serve_thread_;
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_HTTP_H_
