// Lightweight Status / Result<T> error-handling types.
//
// The compiler pipeline reports recoverable failures (unsupported operator,
// tiling infeasible, memory overflow) through these instead of exceptions so
// that callers — notably the dispatcher, which *probes* whether an
// accelerator can take a pattern — can branch on failure cheaply.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "support/common.hpp"

namespace htvm {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // malformed input (bad shapes, bad attrs)
  kUnsupported,       // operator/pattern not supported by a target
  kResourceExhausted, // memory budget exceeded (L1 tiling, L2 planning)
  kNotFound,          // lookup misses (op table, node ids)
  kInternal,          // invariant violation surfaced as recoverable error
  kUnavailable,       // hardware fault: SoC crash, DMA/accelerator error
};

const char* StatusCodeName(StatusCode code);

// Value-semantic status: either OK, or a code plus a human-readable message.
class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status Unsupported(std::string m) {
    return {StatusCode::kUnsupported, std::move(m)};
  }
  static Status ResourceExhausted(std::string m) {
    return {StatusCode::kResourceExhausted, std::move(m)};
  }
  static Status NotFound(std::string m) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  static Status Internal(std::string m) {
    return {StatusCode::kInternal, std::move(m)};
  }
  static Status Unavailable(std::string m) {
    return {StatusCode::kUnavailable, std::move(m)};
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Result<T>: a T or an error Status. Minimal expected<>-style type; we stay
// on C++20 so std::expected is unavailable.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    HTVM_CHECK_MSG(!status_.ok(), "Result constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const { return status_; }

  T& value() & {
    HTVM_CHECK_MSG(ok(), "Result::value() on error");
    return *value_;
  }
  const T& value() const& {
    HTVM_CHECK_MSG(ok(), "Result::value() on error");
    return *value_;
  }
  T&& value() && {
    HTVM_CHECK_MSG(ok(), "Result::value() on error");
    return std::move(*value_);
  }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_ = Status::Ok();
};

}  // namespace htvm

// Early-return helpers in the style of absl.
#define HTVM_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::htvm::Status status_ = (expr);          \
    if (!status_.ok()) return status_;        \
  } while (0)

#define HTVM_ASSIGN_OR_RETURN(lhs, expr)      \
  auto lhs##_result_ = (expr);                \
  if (!lhs##_result_.ok()) return lhs##_result_.status(); \
  auto& lhs = *lhs##_result_
