// Instrumentation for closure computations.
//
// Theorem 3.1 of the paper compares evaluation strategies by the number of
// duplicate tuple derivations (arcs of the derivation graph), so every
// closure routine in linrec reports derivations and duplicates, not just
// wall time.

#pragma once

#include <cstddef>

namespace linrec {

/// Counters filled by ApplyRule / closure routines.
///
/// Each execution produces one per-execution record — returned to callers in
/// QueryResult::stats (engine/prepared.h) — and the engine additionally
/// accumulates every execution into its engine-global record
/// (Engine::stats()).
struct ClosureStats {
  /// Fixpoint rounds executed (semi-naive/naive loops).
  std::size_t iterations = 0;
  /// Individual rule applications (one ApplyRule call each).
  std::size_t rule_applications = 0;
  /// Head tuples produced by body matches, including duplicates. This is
  /// |E| in the derivation graph of Theorem 3.1 (restricted to derived
  /// tuples): each successful body match derives one tuple.
  std::size_t derivations = 0;
  /// Derivations that produced an already-known tuple.
  std::size_t duplicates = 0;
  /// Tuples in the final result (including the initial relation).
  std::size_t result_size = 0;
  /// Rows examined by σ scans and by the join kernel's Δ sweep.
  std::size_t rows_scanned = 0;
  /// Index probes issued by the join kernel (one per HashIndex::Lookup).
  std::size_t probes_issued = 0;
  /// Wall-clock milliseconds.
  double millis = 0.0;

  /// Accumulates another stats record (used by multi-phase strategies and
  /// by the engine-global accumulator). All counters sum except
  /// result_size, which takes the newest record's value: phases of one
  /// execution refine the same result, and across executions the engine-
  /// global record reports the most recent query's size (per-query sizes
  /// live in each QueryResult).
  void Accumulate(const ClosureStats& other) {
    iterations += other.iterations;
    rule_applications += other.rule_applications;
    derivations += other.derivations;
    duplicates += other.duplicates;
    result_size = other.result_size;
    rows_scanned += other.rows_scanned;
    probes_issued += other.probes_issued;
    millis += other.millis;
  }

  /// Zeroes every counter.
  void Reset() { *this = ClosureStats{}; }
};

}  // namespace linrec
