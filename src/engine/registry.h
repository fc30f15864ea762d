// DigestRegistry: a digest-keyed, single-flight registry of compiled
// artifacts (prepared programs, in the server's case).
//
// The engine's plan cache deduplicates *queries* by structural digest; the
// registry lifts the same idea one level up, to whole compiled programs:
// GetOrCompile(digest, factory) runs `factory` exactly once per digest,
// however many sessions submit the same program text concurrently, and
// every caller shares one immutable compiled artifact. Because the factory
// funnels all Engine::Prepare calls of a program through one place, N
// sessions loading the same program cost exactly one plan-cache miss per
// distinct query structure — the serving-path guarantee the front door is
// built on.
//
// The registry is a header-only template so src/engine/ never depends on
// the types compiled into it (the server instantiates it with the
// frontend's CompiledProgram).
//
// Everything behind mu_ — the entry table and the hit/miss ledger — is
// annotated LINREC_GUARDED_BY, so an unlocked fast path added later fails
// the thread-safety build instead of the next TSan lottery.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace linrec {

template <typename T>
class DigestRegistry {
 public:
  using Factory = std::function<Result<T>()>;

  /// Returns the artifact registered under `digest`, running `factory` to
  /// compile it on first use. Single-flight: the registry mutex is held
  /// across the factory, so concurrent callers with the same digest block
  /// until the first compile finishes and then share its result — the
  /// factory never runs twice for one digest. A failing factory registers
  /// nothing (the next caller retries). The factory must not call back
  /// into this registry (LINREC_EXCLUDES: re-entry deadlocks).
  Result<std::shared_ptr<const T>> GetOrCompile(const std::string& digest,
                                                const Factory& factory)
      LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    Result<T> compiled = factory();
    if (!compiled.ok()) return compiled.status();
    auto entry = std::make_shared<const T>(std::move(*compiled));
    entries_.emplace(digest, entry);
    return entry;
  }

  std::size_t size() const LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }
  std::size_t hits() const LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return hits_;
  }
  std::size_t misses() const LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return misses_;
  }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const T>> entries_
      LINREC_GUARDED_BY(mu_);
  std::size_t hits_ LINREC_GUARDED_BY(mu_) = 0;
  std::size_t misses_ LINREC_GUARDED_BY(mu_) = 0;
};

}  // namespace linrec
