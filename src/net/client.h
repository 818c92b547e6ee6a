// Blocking client for the QueryServer wire protocol: connects over TCP,
// sends one framed JSON request, reads one framed JSON response. Used by
// the loopback tests, perfbench's pers_wire workload, and the shell's
// --connect mode.
// Move-only (owns the socket); not thread-safe — one Client per thread.

#ifndef SJOS_NET_CLIENT_H_
#define SJOS_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/json.h"

namespace sjos {
namespace net {

class Client {
 public:
  /// Connects to `host:port`. `host` must be a dotted-quad IPv4 literal
  /// (no resolver dependency).
  static Result<Client> Connect(const std::string& host, uint16_t port);

  /// An invalid (unconnected) client; every call fails until move-assigned
  /// from Connect.
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends one raw frame (the payload is not validated as JSON — the
  /// protocol tests use this to deliver malformed bytes).
  Status Send(std::string_view payload);

  /// Reads one frame. EOF — clean or mid-frame — is an error here: a
  /// client awaiting a response expects one.
  Result<std::string> Receive();

  /// Send + Receive + parse: the common request/response round trip.
  Result<JsonValue> Call(std::string_view request_json);

  void Close();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_CLIENT_H_
