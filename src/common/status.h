// Status and error-code plumbing, modeled on the RocksDB / Arrow convention:
// library code on hot paths reports failure through Status/Result rather than
// exceptions, and callers propagate with RFID_RETURN_NOT_OK.
#ifndef RFID_COMMON_STATUS_H_
#define RFID_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace rfid {

/// Error categories used across the library.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIOError = 4,
  kCorruption = 5,
  kResourceExhausted = 8,
  kInternal = 9,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "Invalid argument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// An OK status carries no allocation; error statuses carry a code and a
/// message. Use the static constructors (`Status::InvalidArgument(...)`) to
/// build errors and `ok()` to test for success.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Propagates a non-OK Status from the enclosing function.
#define RFID_RETURN_NOT_OK(expr)        \
  do {                                  \
    ::rfid::Status _st = (expr);        \
    if (!_st.ok()) return _st;          \
  } while (0)

/// Aborts the process if `expr` is not OK. Reserved for unrecoverable
/// initialization failures in tools, benches, and examples.
#define RFID_CHECK_OK(expr)                                           \
  do {                                                                \
    ::rfid::Status _st = (expr);                                      \
    if (!_st.ok()) {                                                  \
      ::rfid::internal::FatalStatus(__FILE__, __LINE__, _st);         \
    }                                                                 \
  } while (0)

namespace internal {
[[noreturn]] void FatalStatus(const char* file, int line, const Status& st);
}  // namespace internal

}  // namespace rfid

#endif  // RFID_COMMON_STATUS_H_
