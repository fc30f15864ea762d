// RealThreads: lifts WorkerPool's hardware-thread cap for one scope, so the
// worker pools a test builds run real helper threads even on a single-core
// host.

#pragma once

#include "common/parallel.h"

namespace linrec {

/// Raises the cap for its scope and restores the hardware cap on exit —
/// also when a failed ASSERT returns early, so later tests in the binary
/// never inherit the raised cap.
struct RealThreads {
  RealThreads() { WorkerPool::OverrideThreadCapForTesting(16); }
  ~RealThreads() { WorkerPool::OverrideThreadCapForTesting(0); }
  RealThreads(const RealThreads&) = delete;
  RealThreads& operator=(const RealThreads&) = delete;
};

}  // namespace linrec
