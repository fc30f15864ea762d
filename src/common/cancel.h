// CancellationToken: cooperative cancellation + deadline for long closures.
//
// A token is owned by the caller (typically one per in-flight request) and
// passed by const pointer down through the closure entry points. Check() is
// the one probe: one relaxed flag load plus, when a deadline is armed, one
// steady_clock read. It runs at round boundaries and inside the join cursor
// every few thousand candidate rows, so a query stuck inside one enormous
// round still stops within one cursor stride of its deadline instead of at
// the next boundary.
//
// Thread safety: Cancel() may be called from any thread while workers are
// inside Check(); the flag is a single atomic. A token must outlive every
// execution it was handed to.

#pragma once

#include <atomic>
#include <chrono>
#include <optional>

#include "common/status.h"

namespace linrec {

class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;

  /// A token that expires `timeout` from now. A non-positive timeout makes a
  /// token that is already expired — useful for deterministic tests.
  static CancellationToken WithTimeout(std::chrono::milliseconds timeout) {
    CancellationToken t;
    t.deadline_ = Clock::now() + timeout;
    return t;
  }

  CancellationToken(const CancellationToken& other)
      : cancelled_(other.cancelled()), deadline_(other.deadline_) {}
  CancellationToken& operator=(const CancellationToken& other) {
    cancelled_.store(other.cancelled(), std::memory_order_relaxed);
    deadline_ = other.deadline_;
    return *this;
  }

  /// Requests cancellation; every subsequent Check() fails with kCancelled.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// OK while the execution may continue; kCancelled / kDeadlineExceeded
  /// once it must stop. Reads the clock only when a deadline is armed and
  /// allocates only when it fails.
  Status Check() const {
    if (cancelled()) return Status::Cancelled("execution cancelled");
    if (deadline_.has_value() && Clock::now() >= *deadline_) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::optional<Clock::time_point> deadline_;
};

/// Checks a possibly-null token: a null token never cancels.
inline Status CheckCancel(const CancellationToken* cancel) {
  return cancel == nullptr ? Status::OK() : cancel->Check();
}

}  // namespace linrec
