// Deterministic fault injection: named sites in the hot paths that tests
// and the smoke harness can arm to fail on a precise, reproducible schedule.
//
// Each site calls FaultFires(site) at the moment the real failure would
// happen (an allocation about to grow the pool, a worker lane about to
// start a batch slot, a socket about to be written). Disarmed — the
// default — a site costs one relaxed atomic load; built with
// -DLINREC_FAULT_INJECTION=0 the call compiles to a constant `false` and
// the sites vanish entirely.
//
// Two arming modes, both deterministic:
//   ArmAt(site, nth)        — fire exactly on the nth hit of `site` (1-based).
//   ArmSeeded(seed, period) — fire whenever splitmix64(seed ^ site ^ hit)
//                             lands in 1/period; the same seed replays the
//                             same schedule across Debug/Release/TSan builds
//                             as long as execution is serial (hit counters
//                             are per-site and ordered by program order).
//
// Arming resets every per-site hit/fired counter, so a test's observed
// `last_fired_hit` is comparable across runs. The injector is a process-wide
// singleton: tests that arm it must disarm before returning (ScopedFault
// does this with RAII) and must not run armed sections concurrently.

#pragma once

#include <atomic>
#include <cstdint>

namespace linrec {

enum class FaultSite : int {
  /// Relation value-pool / hash-array growth (storage/relation.cc).
  kPoolGrowth = 0,
  /// Dedup-table rehash growth (storage/relation.cc).
  kRehash,
  /// A worker lane about to run one slot of Engine::ExecuteBatch /
  /// ExecuteBatchEach (engine/engine.cc).
  kWorkerDispatch,
  /// A reply about to be written to a client socket (tools/linrecd.cc).
  kSocketWrite,
  /// An incremental maintenance pass about to commit its in-place delta
  /// (src/ivm/maintain.cc) — in Apply, checked after the view mutation
  /// begins and again after the resume; in Retract, checked just before
  /// the commit. Arming it proves the rollback paths restore the pre-call
  /// bytes.
  kIvmApply,
  kSiteCount,
};

inline constexpr int kFaultSiteCount = static_cast<int>(FaultSite::kSiteCount);

/// Short stable name ("pool_growth", "rehash", ...) for flags and logs.
const char* FaultSiteName(FaultSite site);

/// Parses a FaultSiteName back to its site; returns false on unknown names.
bool ParseFaultSite(const char* name, FaultSite* out);

class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Fire exactly on the nth hit (1-based) of `site`; other sites never fire.
  /// Resets all counters.
  void ArmAt(FaultSite site, std::uint64_t nth);

  /// Fire on every hit h (of any site) where
  /// splitmix64(seed ^ site ^ h) % period == 0. Resets all counters.
  void ArmSeeded(std::uint64_t seed, std::uint64_t period);

  /// Back to pass-through; counters keep their final values for inspection.
  void Disarm();

  /// Counts a hit at `site` and reports whether the fault fires there.
  /// Disarmed, returns false without counting (one relaxed load).
  bool ShouldFire(FaultSite site);

  std::uint64_t hits(FaultSite site) const;
  std::uint64_t fired(FaultSite site) const;
  /// Hit number (1-based) of the most recent firing at `site`; 0 = never.
  std::uint64_t last_fired_hit(FaultSite site) const;

 private:
  FaultInjector() = default;

  enum class Mode : int { kDisarmed = 0, kNth, kSeeded };

  void ResetCounters();

  std::atomic<bool> armed_{false};
  Mode mode_ = Mode::kDisarmed;
  FaultSite target_site_ = FaultSite::kPoolGrowth;
  std::uint64_t nth_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t period_ = 0;
  std::atomic<std::uint64_t> hits_[kFaultSiteCount] = {};
  std::atomic<std::uint64_t> fired_[kFaultSiteCount] = {};
  std::atomic<std::uint64_t> last_fired_hit_[kFaultSiteCount] = {};
};

#ifndef LINREC_FAULT_INJECTION
#define LINREC_FAULT_INJECTION 1
#endif

#if LINREC_FAULT_INJECTION
inline bool FaultFires(FaultSite site) {
  return FaultInjector::Instance().ShouldFire(site);
}
#else
inline bool FaultFires(FaultSite) { return false; }
#endif

/// RAII arm/disarm so a throwing test body cannot leave the process-wide
/// injector armed for the next test.
class ScopedFault {
 public:
  ScopedFault(FaultSite site, std::uint64_t nth) {
    FaultInjector::Instance().ArmAt(site, nth);
  }
  ScopedFault(std::uint64_t seed, std::uint64_t period) {
    FaultInjector::Instance().ArmSeeded(seed, period);
  }
  ~ScopedFault() { FaultInjector::Instance().Disarm(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace linrec
