// Status: lightweight error-reporting type used throughout dblayout.
//
// Follows the Arrow/RocksDB idiom: functions that can fail return a Status
// (or a Result<T>, see result.h) instead of throwing. A Status is cheap to
// copy in the OK case and carries a code plus a human-readable message
// otherwise.

#ifndef DBLAYOUT_COMMON_STATUS_H_
#define DBLAYOUT_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace dblayout {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kCapacityExceeded,
  kUnimplemented,
  kParseError,
  kInternal,
};

/// Returns a short human-readable name for `code`, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// A Status holds the outcome of an operation: OK, or an error code with a
/// message. The OK status carries no allocation.
///
/// [[nodiscard]]: silently dropping a Status hides failures, and a -Werror
/// build rejects it (the status_discard_* ctests pin this). Intentional
/// discards must say so with (void).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<Rep>(Rep{code, std::move(msg)});
    }
  }

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->msg : kEmpty;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<Rep> rep_;  // null == OK
};

/// Propagates a non-OK Status to the caller. Usable only in functions that
/// return Status.
#define DBLAYOUT_RETURN_NOT_OK(expr)         \
  do {                                       \
    ::dblayout::Status _st = (expr);         \
    if (!_st.ok()) return _st;               \
  } while (0)

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_STATUS_H_
