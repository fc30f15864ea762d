// Memory budgets: byte accounting for evaluation growth, charged at the
// Relation pool-growth and dedup-rehash sites in src/storage/.
//
// Two layers:
//   MemoryBudget — a global (typically server-wide) atomic ledger of bytes
//     currently held by in-flight queries. Thread-safe; many queries charge
//     it concurrently.
//   QueryBudget  — per-query high-water accounting. Relations never release
//     bytes mid-evaluation (pools only grow until the query finishes), so a
//     QueryBudget only accumulates; its destructor returns the full total to
//     the parent MemoryBudget. The global budget therefore bounds *in-flight
//     evaluation growth*, not retained session memory.
//
// Charging happens deep inside the storage hot path where signatures return
// row ids, not Status — so a denied charge throws ResourceExhaustedError.
// The exception is converted back to a typed Status::ResourceExhausted at
// the evaluation boundaries: GuardAllocFailures wraps the closure entry
// points (it also converts std::bad_alloc, so a genuine allocation failure
// surfaces as the same typed status instead of a crash).
//
// Propagation is via a thread_local current budget (ScopedQueryBudget):
// storage code stays signature-stable, and Engine::Run installs a query's
// budget on whichever thread — the caller or a batch lane — runs it.

#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/fault.h"
#include "common/status.h"

namespace linrec {

/// Thrown (internally, never across public API boundaries) when a charge is
/// denied or injected to fail. Caught at lane/entry boundaries and converted
/// to Status::ResourceExhausted.
class ResourceExhaustedError : public std::runtime_error {
 public:
  explicit ResourceExhaustedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Global byte ledger shared by concurrent queries. limit 0 = unlimited.
class MemoryBudget {
 public:
  explicit MemoryBudget(std::size_t limit_bytes = 0) : limit_(limit_bytes) {}

  /// Attempts to reserve `bytes`; false when it would push used past the
  /// limit (the reservation is rolled back).
  bool TryCharge(std::size_t bytes) {
    if (limit_ == 0) {
      used_.fetch_add(bytes, std::memory_order_relaxed);
      return true;
    }
    std::size_t used = used_.fetch_add(bytes, std::memory_order_relaxed);
    if (used + bytes > limit_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void Release(std::size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  std::size_t limit() const { return limit_; }
  void set_limit(std::size_t limit_bytes) { limit_ = limit_bytes; }

  /// Load-shedding signal: 7/8 of the limit is committed to in-flight
  /// queries. Never under pressure when unlimited.
  bool under_pressure() const {
    return limit_ != 0 && used() >= limit_ - limit_ / 8;
  }

 private:
  /// Own cache line: charged from every governed thread's growth path;
  /// keeps the read-mostly limit_ (and anything placed after the budget)
  /// off the contended line.
  alignas(64) std::atomic<std::size_t> used_{0};  // lint: hot-atomic
  std::size_t limit_;
};

/// Per-query high-water accounting; releases its total from the parent
/// global budget (if any) on destruction. Charge() is thread-safe, so
/// queries on different batch lanes may share one budget.
class QueryBudget {
 public:
  /// limit 0 = unlimited (still counts, still charges the parent).
  explicit QueryBudget(std::size_t limit_bytes = 0,
                       MemoryBudget* parent = nullptr)
      : limit_(limit_bytes), parent_(parent) {}

  ~QueryBudget() {
    if (parent_ != nullptr) parent_->Release(charged());
  }

  QueryBudget(const QueryBudget&) = delete;
  QueryBudget& operator=(const QueryBudget&) = delete;

  /// Reserves `bytes` against this query and the parent; throws
  /// ResourceExhaustedError when either refuses.
  void Charge(std::size_t bytes);

  std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }
  std::size_t limit() const { return limit_; }
  MemoryBudget* parent() const { return parent_; }

 private:
  std::size_t limit_;
  MemoryBudget* parent_;
  /// Own cache line, like MemoryBudget::used_: every batch lane whose
  /// query shares this budget charges through this atomic.
  alignas(64) std::atomic<std::size_t> charged_{0};  // lint: hot-atomic
};

/// The budget charged by storage growth on this thread; null = ungoverned.
QueryBudget* CurrentQueryBudget();

/// Installs `budget` as the thread's current budget for its scope; restores
/// the previous one (supports nesting). Engine::Run installs each query's
/// budget this way, on the thread that runs the query.
class ScopedQueryBudget {
 public:
  explicit ScopedQueryBudget(QueryBudget* budget);
  ~ScopedQueryBudget();
  ScopedQueryBudget(const ScopedQueryBudget&) = delete;
  ScopedQueryBudget& operator=(const ScopedQueryBudget&) = delete;

 private:
  QueryBudget* previous_;
};

/// Charge helper for storage growth sites: checks the fault injector first
/// (an armed allocation fault fires here), then charges the thread's current
/// budget if one is installed. Throws ResourceExhaustedError on either.
void ChargeBytesOrThrow(std::size_t bytes, FaultSite site);

/// Runs `fn` (returning Status or Result<T>), converting an escaped
/// ResourceExhaustedError or std::bad_alloc into Status::ResourceExhausted.
/// Wraps the evaluation entry points so budget denial on any thread
/// surfaces as a typed status.
template <typename Fn>
auto GuardAllocFailures(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ResourceExhaustedError& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("allocation failed (out of memory)");
  }
}

}  // namespace linrec
