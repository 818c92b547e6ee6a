#include "net/http.h"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

#include "common/metrics.h"
#include "common/str_util.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/json.h"
#include "service/query_log.h"

namespace sjos {
namespace net {

namespace {

struct HttpMetrics {
  Counter& requests;

  static HttpMetrics& Get() {
    static HttpMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      reg.SetHelp("sjos_http_requests_total",
                  "HTTP observability requests served, by path");
      return new HttpMetrics{reg.GetCounter("sjos_http_requests_total")};
    }();
    return *m;
  }
};

const char* StatusText(int http_status) {
  switch (http_status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
  }
  return "Error";
}

}  // namespace

ObservabilityServer::ObservabilityServer(Engine* engine,
                                         HttpServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

ObservabilityServer::~ObservabilityServer() { Stop(); }

Status ObservabilityServer::Start() {
  SJOS_CHECK(!started_.load(), "ObservabilityServer::Start called twice");
  Result<ListenSocket> listener = Listen(options_.host, options_.port, 16);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.value().fd;
  port_ = listener.value().port;
  started_.store(true);
  stopping_.store(false);
  serve_thread_ = std::thread(&ObservabilityServer::ServeLoop, this);
  return Status::OK();
}

void ObservabilityServer::Stop() {
  if (!started_.exchange(false)) return;
  stopping_.store(true);
  // Shut the listener down to unblock accept(), and close it only once the
  // serve loop has exited: closing first would let accept() run on a
  // descriptor number the process may already have reused.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (serve_thread_.joinable()) serve_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ObservabilityServer::ServeLoop() {
  // Stop resets listen_fd_ only after joining this thread.
  const int listen_fd = listen_fd_;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;
    }
    SetSocketTimeout(fd, SO_RCVTIMEO, kHttpIoTimeoutMs);
    SetSocketTimeout(fd, SO_SNDTIMEO, kHttpIoTimeoutMs);
    ServeConnection(fd);
    ::close(fd);
  }
}

void ObservabilityServer::ServeConnection(int fd) {
  // Read until the end of the request head (we ignore any body — these
  // are GETs) or the size ceiling.
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kHttpMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<size_t>(n));
  }

  int http_status = 400;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "malformed request\n";

  // Request line: METHOD SP PATH SP VERSION.
  const size_t line_end = head.find("\r\n");
  if (line_end != std::string::npos) {
    const std::string_view line(head.data(), line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string_view::npos
                           ? std::string_view::npos
                           : line.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      const std::string_view method = line.substr(0, sp1);
      std::string path(line.substr(sp1 + 1, sp2 - sp1 - 1));
      const size_t query = path.find('?');
      if (query != std::string::npos) path.resize(query);
      if (method != "GET") {
        http_status = 405;
        body = "only GET is supported\n";
      } else {
        HandlePath(path, &http_status, &content_type, &body);
      }
      HttpMetrics::Get().requests.Add();
      MetricsRegistry::Global()
          .GetCounter("sjos_http_requests_total", {{"path", path}})
          .Add();
    }
  }

  std::string response =
      StrFormat("HTTP/1.0 %d %s\r\n", http_status, StatusText(http_status));
  response += "Content-Type: " + content_type + "\r\n";
  response += StrFormat("Content-Length: %zu\r\n", body.size());
  response += "Connection: close\r\n\r\n";
  response += body;
  iovec iov{response.data(), response.size()};
  (void)SendAll(fd, &iov, 1);
}

void ObservabilityServer::HandlePath(const std::string& path,
                                     int* http_status,
                                     std::string* content_type,
                                     std::string* body) const {
  if (path == "/metrics") {
    *http_status = 200;
    // The exposition content type Prometheus' text parser expects.
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    *body = MetricsRegistry::Global().Snapshot().ToPrometheus();
    return;
  }
  if (path == "/healthz") {
    *http_status = 200;
    *body = "ok\n";
    return;
  }
  if (path == "/statusz") {
    *http_status = 200;
    *content_type = "application/json";
    *body = StatuszJson();
    return;
  }
  *http_status = 404;
  *body = "unknown path (try /metrics, /healthz, /statusz)\n";
}

std::string ObservabilityServer::StatuszJson() const {
  std::string out = "{";
  AppendInFlightAndSlow(*engine_, kStatuszSlowQueries, &out);
  out += ",\"queries_logged\":";
  AppendJsonUint(engine_->query_log().appended(), &out);
  out += ",\"slow_total\":";
  AppendJsonUint(engine_->query_log().slow_count(), &out);
  out += ",\"log_dropped\":";
  AppendJsonUint(engine_->query_log().dropped(), &out);
  out += '}';
  return out;
}

}  // namespace net
}  // namespace sjos
