// Result<T>: value-or-Status, the return type for fallible constructors and
// parsers (Arrow's arrow::Result idiom).
#ifndef RFID_COMMON_RESULT_H_
#define RFID_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/status.h"

namespace rfid {

/// Holds either a value of type T or a non-OK Status explaining why the value
/// could not be produced.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. Must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : status_;
  }

  /// Precondition: ok().
  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Unwraps a Result into `lhs`, propagating errors.
#define RFID_ASSIGN_OR_RETURN(lhs, rexpr)          \
  auto RFID_CONCAT_(_res_, __LINE__) = (rexpr);    \
  if (!RFID_CONCAT_(_res_, __LINE__).ok())         \
    return RFID_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(RFID_CONCAT_(_res_, __LINE__)).value()

#define RFID_CONCAT_(a, b) RFID_CONCAT_IMPL_(a, b)
#define RFID_CONCAT_IMPL_(a, b) a##b

}  // namespace rfid

#endif  // RFID_COMMON_RESULT_H_
