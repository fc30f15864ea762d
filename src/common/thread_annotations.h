// Clang Thread Safety Analysis: annotation macros and annotated
// synchronization primitives.
//
// The repo's concurrency invariants — which mutex guards the plan cache,
// the shared index tier, the worker-pool batch state — used to live in
// comments and in whatever schedules the TSan job happened to execute.
// These macros move them into the type system: a field tagged
// LINREC_GUARDED_BY(mu_) cannot be touched without holding mu_, a method
// tagged LINREC_REQUIRES(mu_) cannot be called without it, and the CI
// `-Werror=thread-safety` Clang job turns every violation into a compile
// error. Under GCC (and every non-Clang compiler) the macros expand to
// nothing, so the annotations cost exactly zero outside analysis builds.
//
// The analysis only understands capabilities it can see, so std::mutex /
// std::lock_guard / std::condition_variable are replaced at every locking
// site by the wrappers below:
//
//   linrec::Mutex      — std::mutex with the capability attribute.
//   linrec::MutexLock  — scoped lock (std::lock_guard shape) the analyzer
//                        tracks as acquiring/releasing its Mutex.
//   linrec::CondVar    — std::condition_variable bound to a Mutex. Waits
//                        take the Mutex explicitly and are annotated
//                        LINREC_REQUIRES(mu), so a wait outside the lock is
//                        a compile error. There is deliberately NO
//                        predicate-taking Wait: the analysis cannot see
//                        that a predicate lambda runs with the lock held,
//                        so guarded reads inside one would (rightly) fail
//                        the build. Callers write the explicit loop:
//
//                          MutexLock lock(mu_);
//                          while (!ready_) cv_.Wait(mu_);
//
// Annotation conventions used across the repo (see CONTRIBUTING.md):
//   - Every guarded field carries LINREC_GUARDED_BY(mu) (or
//     LINREC_PT_GUARDED_BY for pointees) naming the mutex declared in the
//     same class.
//   - Private methods that assume the lock is held are LINREC_REQUIRES(mu)
//     instead of re-locking.
//   - Public entry points that take the lock themselves are
//     LINREC_EXCLUDES(mu) where re-entry would deadlock.

#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define LINREC_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define LINREC_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

/// Declares a class to be a capability ("mutex") the analysis tracks.
#define LINREC_CAPABILITY(x) LINREC_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define LINREC_SCOPED_CAPABILITY LINREC_THREAD_ANNOTATION__(scoped_lockable)

/// The annotated data member may only be accessed while holding `x`.
#define LINREC_GUARDED_BY(x) LINREC_THREAD_ANNOTATION__(guarded_by(x))

/// The data the annotated pointer points at may only be accessed while
/// holding `x` (the pointer itself is unguarded).
#define LINREC_PT_GUARDED_BY(x) LINREC_THREAD_ANNOTATION__(pt_guarded_by(x))

/// The annotated function may only be called while holding the listed
/// capabilities (callers lock; the function does not).
#define LINREC_REQUIRES(...) \
  LINREC_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The annotated function acquires the listed capabilities and returns
/// holding them.
#define LINREC_ACQUIRE(...) \
  LINREC_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// The annotated function releases the listed capabilities.
#define LINREC_RELEASE(...) \
  LINREC_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The annotated function must NOT be called while holding the listed
/// capabilities (it acquires them itself; re-entry would deadlock).
#define LINREC_EXCLUDES(...) LINREC_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// The annotated function returns a reference to the given capability.
#define LINREC_RETURN_CAPABILITY(x) LINREC_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Used only where
/// the safety argument is external to what the analyzer can see (document
/// it at the use site).
#define LINREC_NO_THREAD_SAFETY_ANALYSIS \
  LINREC_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace linrec {

/// std::mutex carrying the TSA capability attribute. Lock/Unlock exist for
/// the analysis (and for CondVar); almost every use site should be a
/// scoped MutexLock.
class LINREC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LINREC_ACQUIRE() { mu_.lock(); }
  void Unlock() LINREC_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock over a Mutex — the std::lock_guard of the annotated world.
/// The analyzer treats construction as acquiring `mu` and scope exit as
/// releasing it, so every guarded access inside the scope checks out.
class LINREC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LINREC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LINREC_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to a Mutex at each wait. Implemented over
/// std::condition_variable (not _any) by adopting the Mutex's underlying
/// std::mutex for the duration of the wait — same codegen as a plain
/// condition_variable wait, no extra locking layer.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified (or spuriously
  /// woken); reacquires `mu` before returning. Callers loop on their
  /// guarded predicate.
  void Wait(Mutex& mu) LINREC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the Mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace linrec
