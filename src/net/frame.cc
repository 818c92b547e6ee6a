#include "net/frame.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

namespace sjos {
namespace net {

namespace {

/// Writes the big-endian length prefix of `payload` into `header`.
void PutHeader(std::string_view payload, char header[kFrameHeaderBytes]) {
  SJOS_CHECK(payload.size() <= kFrameAbsoluteMaxPayload,
             "frame payload exceeds the absolute maximum");
  const uint32_t len = static_cast<uint32_t>(payload.size());
  header[0] = static_cast<char>((len >> 24) & 0xFF);
  header[1] = static_cast<char>((len >> 16) & 0xFF);
  header[2] = static_cast<char>((len >> 8) & 0xFF);
  header[3] = static_cast<char>(len & 0xFF);
}

/// The payload length a big-endian header declares.
uint64_t GetHeader(const char* header) {
  uint64_t len = 0;
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    len = (len << 8) | static_cast<unsigned char>(header[i]);
  }
  return len;
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  char header[kFrameHeaderBytes];
  PutHeader(payload, header);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
  return out;
}

FrameDecode DecodeFrame(std::string_view buffer, size_t max_payload,
                        std::string_view* payload, size_t* consumed,
                        uint64_t* declared) {
  if (buffer.size() < kFrameHeaderBytes) return FrameDecode::kNeedMore;
  const uint64_t len = GetHeader(buffer.data());
  if (declared != nullptr) *declared = len;
  if (len > max_payload || len > kFrameAbsoluteMaxPayload) {
    return FrameDecode::kOversize;
  }
  if (buffer.size() < kFrameHeaderBytes + len) return FrameDecode::kNeedMore;
  *payload = buffer.substr(kFrameHeaderBytes, static_cast<size_t>(len));
  *consumed = kFrameHeaderBytes + static_cast<size_t>(len);
  return FrameDecode::kOk;
}

namespace {

/// True for errno values meaning "the peer or path went away" — the
/// retryable transport-loss class, as opposed to local programming or
/// resource errors.
bool IsConnectionLostErrno(int err) {
  return err == ECONNRESET || err == EPIPE || err == ETIMEDOUT ||
         err == ECONNABORTED || err == ENETRESET || err == ESHUTDOWN;
}

/// Reads exactly `len` bytes. *eof_at_start is set (with OK returned,
/// zero bytes read) when the peer closed before the first byte. A close
/// after the first byte is Unavailable carrying `torn_what` ("mid-frame"
/// for a torn header, "mid-payload" for a torn body) so the client layer
/// can tell "peer went away mid-message" (retryable) from a clean EOF.
Status RecvAll(int fd, char* data, size_t len, bool* eof_at_start,
               const char* torn_what) {
  if (eof_at_start != nullptr) *eof_at_start = false;
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO fired: the read stalled. The server's idle/slow-loris
        // reaper keys on this code.
        return Status::DeadlineExceeded(
            std::string("recv timed out (") +
            (got == 0 ? "idle between frames" : torn_what) + ")");
      }
      if (IsConnectionLostErrno(errno)) {
        return Status::Unavailable(std::string("recv failed: ") +
                                   std::strerror(errno));
      }
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::OK();
      }
      return Status::Unavailable("connection closed " +
                                 std::string(torn_what) + " (" +
                                 std::to_string(got) + " of " +
                                 std::to_string(len) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<ListenSocket> Listen(const std::string& host, uint16_t port,
                            int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  // Closes the socket and passes `status` on: every failure below.
  const auto fail = [fd](Status status) {
    ::close(fd);
    return status;
  };
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad listen address '" + host + "'"));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(Status::Internal("bind to " + host + ":" +
                                 std::to_string(port) +
                                 " failed: " + std::strerror(errno)));
  }
  if (::listen(fd, backlog) != 0) {
    return fail(Status::Internal(std::string("listen failed: ") +
                                 std::strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return fail(Status::Internal(std::string("getsockname failed: ") +
                                 std::strerror(errno)));
  }
  return ListenSocket{fd, ntohs(bound.sin_port)};
}

void SetSocketTimeout(int fd, int option, uint64_t timeout_ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

Status SendAll(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsConnectionLostErrno(errno)) {
        return Status::Unavailable(std::string("send failed: ") +
                                   std::strerror(errno));
      }
      return Status::Internal(std::string("send failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) return Status::Internal("send wrote zero bytes");
    size_t written = static_cast<size_t>(n);
    while (count > 0 && written >= iov->iov_len) {
      written -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + written;
      iov->iov_len -= written;
    }
  }
  return Status::OK();
}

Status SendFrame(int fd, std::string_view payload) {
  // The header and the payload go out in one sendmsg, so a multi-MB
  // response is never copied into a concatenated frame.
  char header[kFrameHeaderBytes];
  PutHeader(payload, header);
  iovec iov[2] = {{header, kFrameHeaderBytes},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return SendAll(fd, iov, 2);
}

Status RecvFrame(int fd, size_t max_payload, std::string* payload,
                 bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  payload->clear();
  char header[kFrameHeaderBytes];
  bool eof = false;
  SJOS_RETURN_IF_ERROR(
      RecvAll(fd, header, kFrameHeaderBytes, &eof, "mid-frame"));
  if (eof) {
    if (clean_eof != nullptr) *clean_eof = true;
    return Status::OK();
  }
  const uint64_t len = GetHeader(header);
  if (len > max_payload || len > kFrameAbsoluteMaxPayload) {
    return Status::ResourceExhausted(
        "frame of " + std::to_string(len) + " bytes exceeds the limit of " +
        std::to_string(max_payload));
  }
  payload->resize(static_cast<size_t>(len));
  if (len > 0) {
    SJOS_RETURN_IF_ERROR(RecvAll(fd, payload->data(),
                                 static_cast<size_t>(len), nullptr,
                                 "mid-payload"));
  }
  return Status::OK();
}

}  // namespace net
}  // namespace sjos
