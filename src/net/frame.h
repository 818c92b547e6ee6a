// Wire framing: every message is a 4-byte big-endian payload length
// followed by that many bytes of UTF-8 JSON. SendFrame and RecvFrame loop
// over partial writes/reads and keep EINTR and peer-close conditions as
// clean Statuses. A length prefix above the configured maximum is
// unrecoverable for the stream (the bytes that follow cannot be
// resynchronized), so the server answers once and closes; everything else
// leaves the connection usable.
//
// This file also holds the socket primitives both servers share: Listen
// (the one listener setup), SendAll (the one write loop; the HTTP server
// sends its unframed responses through it) and SetSocketTimeout.

#ifndef SJOS_NET_FRAME_H_
#define SJOS_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include <sys/uio.h>

#include "common/status.h"

namespace sjos {
namespace net {

inline constexpr size_t kFrameHeaderBytes = 4;

/// Hard ceiling any server/client accepts regardless of configuration —
/// a prefix above this is always treated as a framing attack/corruption.
inline constexpr size_t kFrameAbsoluteMaxPayload = 64u << 20;  // 64 MiB

/// A listening TCP socket and the port it is bound to.
struct ListenSocket {
  int fd = -1;
  uint16_t port = 0;
};

/// Creates an IPv4 TCP socket (SO_REUSEADDR), binds it to `host`:`port`
/// and listens with `backlog`. Port 0 binds an ephemeral port; the result
/// carries the port actually bound. Every failure closes the socket and
/// returns a Status naming the failed step.
Result<ListenSocket> Listen(const std::string& host, uint16_t port,
                            int backlog);

/// Sets the socket timeout `option` (SO_RCVTIMEO or SO_SNDTIMEO) on `fd`
/// to `timeout_ms` milliseconds.
void SetSocketTimeout(int fd, int option, uint64_t timeout_ms);

/// Writes every byte of iov[0..count) to `fd`, looping over partial
/// writes; the iovecs are consumed as they are written. SIGPIPE is
/// suppressed (MSG_NOSIGNAL). A lost peer is Unavailable; other errors
/// (a send timeout included) are Internal.
Status SendAll(int fd, iovec* iov, size_t count);

/// Writes one frame to `fd`, looping over partial writes. SIGPIPE is
/// suppressed (MSG_NOSIGNAL); a closed peer surfaces as a Status.
Status SendFrame(int fd, std::string_view payload);

/// Reads one frame from `fd`. A connection closed cleanly between frames
/// sets *clean_eof and returns OK with an empty payload; a close mid-frame
/// or any socket error is a Status. A declared length above `max_payload`
/// returns ResourceExhausted without consuming the (unread) payload bytes.
Status RecvFrame(int fd, size_t max_payload, std::string* payload,
                 bool* clean_eof);

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_FRAME_H_
