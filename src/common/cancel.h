// CancellationToken: cooperative cancellation + deadline for long closures.
//
// A token is owned by the caller (typically one per in-flight query) and
// passed by const pointer down through the closure entry points. It is
// checked at two granularities:
//   - Check() at round boundaries: one relaxed flag load plus, when a
//     deadline is armed, one steady_clock read.
//   - stop_requested() inside the join cursor every few thousand candidate
//     rows: a single relaxed flag load, no clock. The flag is set either by
//     Cancel() or by a watchdog that notices the deadline passed and calls
//     ForceDeadline() — so a query stuck inside one enormous round still
//     stops within the watchdog interval instead of at the next boundary.
//
// Thread safety: Cancel()/ForceDeadline() may be called from any thread
// while workers are inside Check(); the flags live in a single atomic. A
// token must outlive every execution it was handed to.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
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
      : flags_(other.flags_.load(std::memory_order_relaxed)),
        deadline_(other.deadline_) {}
  CancellationToken& operator=(const CancellationToken& other) {
    flags_.store(other.flags_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    deadline_ = other.deadline_;
    return *this;
  }

  /// Requests cancellation; every subsequent Check() fails with kCancelled.
  void Cancel() { flags_.fetch_or(kCancelledBit, std::memory_order_relaxed); }

  /// Marks the deadline as blown without a clock read on the reader side:
  /// subsequent Check()s fail with kDeadlineExceeded and stop_requested()
  /// turns true. Called by the server watchdog when it observes expiry, so
  /// in-cursor checks stay clock-free.
  void ForceDeadline() {
    flags_.fetch_or(kDeadlineBit, std::memory_order_relaxed);
  }

  /// Arms (or re-arms) an absolute deadline.
  void SetDeadline(Clock::time_point deadline) { deadline_ = deadline; }

  /// True once Cancel() or ForceDeadline() ran: the cheapest possible stop
  /// probe (one relaxed load, no clock), safe to call every few thousand
  /// join candidates.
  bool stop_requested() const {
    return flags_.load(std::memory_order_relaxed) != 0;
  }

  bool cancelled() const {
    return (flags_.load(std::memory_order_relaxed) & kCancelledBit) != 0;
  }
  bool expired() const {
    if ((flags_.load(std::memory_order_relaxed) & kDeadlineBit) != 0) {
      return true;
    }
    return deadline_.has_value() && Clock::now() >= *deadline_;
  }
  bool has_deadline() const { return deadline_.has_value(); }

  /// OK while the execution may continue; kCancelled / kDeadlineExceeded
  /// once it must stop. Called at round boundaries.
  Status Check() const {
    const std::uint8_t flags = flags_.load(std::memory_order_relaxed);
    if ((flags & kDeadlineBit) != 0) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    if ((flags & kCancelledBit) != 0) {
      return Status::Cancelled("execution cancelled");
    }
    if (deadline_.has_value() && Clock::now() >= *deadline_) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::OK();
  }

 private:
  static constexpr std::uint8_t kCancelledBit = 1u << 0;
  static constexpr std::uint8_t kDeadlineBit = 1u << 1;

  std::atomic<std::uint8_t> flags_{0};
  std::optional<Clock::time_point> deadline_;
};

/// Checks a possibly-null token: a null token never cancels.
inline Status CheckCancel(const CancellationToken* cancel) {
  return cancel == nullptr ? Status::OK() : cancel->Check();
}

}  // namespace linrec
