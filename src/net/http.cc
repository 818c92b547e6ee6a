#include "net/http.h"

#include <cerrno>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/metrics.h"
#include "common/str_util.h"
#include "net/codec.h"
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

/// Writes all of `data`, honouring the socket's send timeout.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

ObservabilityServer::ObservabilityServer(Engine* engine,
                                         HttpServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

ObservabilityServer::~ObservabilityServer() { Stop(); }

Status ObservabilityServer::Start() {
  SJOS_CHECK(!started_.load(), "ObservabilityServer::Start called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::Internal("bind to " + options_.host + ":" +
                                 std::to_string(options_.port) +
                                 " failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 16) != 0) {
    Status st = Status::Internal(std::string("listen failed: ") +
                                 std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  started_.store(true);
  stopping_.store(false);
  serve_thread_ = std::thread(&ObservabilityServer::ServeLoop, this);
  return Status::OK();
}

void ObservabilityServer::Stop() {
  if (!started_.exchange(false)) return;
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (serve_thread_.joinable()) serve_thread_.join();
}

void ObservabilityServer::ServeLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;
    }
    timeval tv;
    tv.tv_sec = static_cast<time_t>(options_.io_timeout_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((options_.io_timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
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
         head.size() < options_.max_request_bytes) {
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
  SendAll(fd, response);
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
  AppendInFlightAndSlow(*engine_, options_.statusz_slow_queries, &out);
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
