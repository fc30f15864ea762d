// A minimal work-stealing worker pool for the one thing linrec runs in
// parallel: the slots of Engine::ExecuteBatch. Each slot is a whole,
// independent query — never the inside of a closure or a round — so no
// result depends on which thread ran which chunk.
//
// The pool model is deliberately simple: a Run() call publishes a batch of
// `chunks` independent work items; every participating thread (the caller
// plus the pool's helper threads) repeatedly claims the next unclaimed chunk
// through one shared atomic counter until the batch is drained. Dynamic
// claiming is what balances skewed chunks — a thread that finishes early
// immediately steals the next chunk instead of idling at a static split.
//
// Lock discipline (statically enforced, see common/thread_annotations.h):
// all batch hand-off state — the published function, chunk count,
// generation stamp, helper countdown, stop flag — is guarded by mutex_;
// only the chunk-claim counter is lock-free (an atomic on its own cache
// line, hammered by every lane mid-batch).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace linrec {

/// Resolves a caller-facing worker count: 0 means "one lane per hardware
/// thread" (hardware_concurrency, at least 1); any positive value is taken
/// literally; negative values clamp to 1. Serial execution is workers == 1.
int ResolveWorkers(int workers);

/// A fixed-size pool of helper threads plus the calling thread, draining
/// chunk batches via an atomic work-stealing counter.
///
/// `lanes` is the logical parallelism callers size their per-lane state
/// (index caches) for. The pool never runs more OS threads than the host
/// has hardware threads — oversubscribing a small machine with sleeping
/// helpers would add context-switch cost to every batch without adding
/// parallelism — so on an H-way host at most
/// min(lanes, H) threads participate (helpers are lanes 1..k; the Run()
/// caller is always lane 0 and always participates).
class WorkerPool {
 public:
  explicit WorkerPool(int lanes);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Logical lane count (the value passed to the constructor, >= 1).
  int lanes() const { return lanes_; }

  /// Runs fn(lane, chunk) for every chunk in [0, chunks). Chunks are
  /// claimed dynamically; `lane` identifies the executing thread (0 = the
  /// caller), so fn may use lane-indexed scratch without locking. Blocks
  /// until the batch is drained. Exceptions thrown by fn are caught and
  /// swallowed per chunk — fn must report failures through its own
  /// lane-indexed state (closure code records a Status per lane).
  void Run(std::size_t chunks,
           const std::function<void(int, std::size_t)>& fn)
      LINREC_EXCLUDES(mutex_);

  /// Test hook: overrides the hardware-thread cap on helper threads so a
  /// single-core CI host can still exercise true cross-thread execution.
  /// 0 restores the hardware cap. Affects pools constructed afterwards.
  static void OverrideThreadCapForTesting(int cap);

 private:
  void HelperLoop(int lane) LINREC_EXCLUDES(mutex_);

  int lanes_;
  /// Helper threads; written once in the constructor, joined in the
  /// destructor after stopping_ is published — never touched mid-batch.
  std::vector<std::thread> threads_;

  Mutex mutex_;
  /// Signals helpers that a new batch (generation_ moved) or stop was
  /// published under mutex_.
  CondVar work_ready_;
  /// Signals the Run() caller that active_helpers_ hit zero.
  CondVar batch_done_;
  const std::function<void(int, std::size_t)>* fn_
      LINREC_GUARDED_BY(mutex_) = nullptr;
  std::size_t chunk_count_ LINREC_GUARDED_BY(mutex_) = 0;
  /// Own cache line: every lane hammers this with fetch_add while stealing
  /// chunks; sharing its line with the batch bookkeeping the main thread
  /// reads would false-share the hottest counter in a parallel round.
  alignas(64) std::atomic<std::size_t> next_chunk_{0};  // lint: hot-atomic
  std::uint64_t generation_ LINREC_GUARDED_BY(mutex_) = 0;
  int active_helpers_ LINREC_GUARDED_BY(mutex_) = 0;
  bool stopping_ LINREC_GUARDED_BY(mutex_) = false;
};

}  // namespace linrec
