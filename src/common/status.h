// Lightweight Status/Result error handling in the style of RocksDB/Arrow.
// Core code paths avoid exceptions; fallible operations return a Status (or
// a Result<T> carrying a value), and callers must check before use.

#ifndef SJOS_COMMON_STATUS_H_
#define SJOS_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace sjos {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kParseError,
  kInternal,
  kUnsupported,
  kDeadlineExceeded,
  kResourceExhausted,
  kCancelled,
  /// A peer or transport went away (connection reset, closed mid-frame,
  /// dial failure). Distinct from kInternal so the network client layer
  /// can classify an error as retryable without string matching.
  kUnavailable,
};

/// Returns a short human-readable name for a StatusCode ("OK",
/// "ParseError"...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the OK case (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value-or-error. Use `ok()` / `status()` to check, `value()` to access.
/// Accessing `value()` on an error Result aborts (programming error).
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : value_(std::move(value)) {}
  /* implicit */ Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      std::fprintf(stderr, "Result constructed from OK status without value\n");
      std::abort();
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return value_;
  }
  T& value() & {
    CheckOk();
    return value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(value_);
  }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::fprintf(stderr, "Result::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  T value_{};
};

/// Aborts with a message when `cond` is false. Used for internal invariants
/// that indicate bugs (not user errors); enabled in all build types.
#define SJOS_CHECK(cond, msg)                                          \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "SJOS_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, (msg));                                   \
      std::abort();                                                    \
    }                                                                  \
  } while (0)

#define SJOS_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::sjos::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace sjos

#endif  // SJOS_COMMON_STATUS_H_
