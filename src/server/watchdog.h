// Deadline watchdog: the piece that makes mid-round cancellation real.
//
// Round boundaries call CancellationToken::Check() (which reads the
// clock), but the in-cursor probe inside the join loop is deliberately
// clock-free — one relaxed flag load every few thousand candidates. That
// flag only turns on when someone calls Cancel() or ForceDeadline(). The
// watchdog is that someone: a single lazily-started thread that scans the
// deadline-armed tokens of in-flight queries every `interval_ms` and calls
// ForceDeadline() on any whose deadline has passed, so a query stuck deep
// inside one enormous round still stops within roughly one watchdog
// interval.
//
// Thread safety (statically enforced): the watch table, the handle
// counter, the stop flag AND the scan thread handle are guarded by mu_.
// Watch/Unwatch may be called from any session thread; the scan thread
// holds mu_ while walking the table, so Unwatch returning means no sweep
// is touching the token — tokens must stay alive until Unwatch returns
// (the server keeps them on the evaluation's stack frame and unwatches
// before unwinding). Teardown moves the thread handle out under the lock,
// publishes stop_, and joins *outside* the lock: a destructor racing a
// mid-sweep scan blocks until the sweep's MutexLock releases, never while
// holding the mutex the scan needs to finish.

#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <thread>

#include "common/cancel.h"
#include "common/thread_annotations.h"

namespace linrec {

class Watchdog {
 public:
  explicit Watchdog(int interval_ms = 10) : interval_ms_(interval_ms) {}
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a token for deadline enforcement; returns a handle for
  /// Unwatch. Starts the scan thread on first use. Tokens without a
  /// deadline are accepted but never fire.
  std::size_t Watch(CancellationToken* token) LINREC_EXCLUDES(mu_);

  /// Deregisters; the token may be destroyed once this returns (the scan
  /// thread cannot hold a reference past it — sweeps run under mu_).
  void Unwatch(std::size_t handle) LINREC_EXCLUDES(mu_);

  /// Tokens force-expired by the scan thread since construction.
  std::size_t cancels() const {
    return cancels_.load(std::memory_order_relaxed);
  }

  /// Tokens currently under watch (observability / tests).
  std::size_t watched() const LINREC_EXCLUDES(mu_);

 private:
  void Loop() LINREC_EXCLUDES(mu_);

  const int interval_ms_;
  mutable Mutex mu_;
  CondVar cv_;
  std::map<std::size_t, CancellationToken*> watched_ LINREC_GUARDED_BY(mu_);
  std::size_t next_handle_ LINREC_GUARDED_BY(mu_) = 0;
  bool stop_ LINREC_GUARDED_BY(mu_) = false;
  bool started_ LINREC_GUARDED_BY(mu_) = false;
  /// Lazily started by Watch, moved out (under mu_) and joined by the
  /// destructor. Guarded so a Watch racing teardown is a compile-time
  /// question, not a schedule-dependent one.
  std::thread thread_ LINREC_GUARDED_BY(mu_);
  std::atomic<std::size_t> cancels_{0};
};

}  // namespace linrec
