// Fixpoint engines: the transitive closure A* = Σ_k A^k of Theorem 2.1,
// computed naively or semi-naively over a sum of linear operators.
//
// Each engine is the one-member case of the joint round engine
// (eval/joint.h JointRoundEvaluator): the recursive predicate is member 0,
// and every round runs serially on the calling thread, emitting straight
// into its target relation. SemiNaiveClosure copies its seed and continues
// with SemiNaiveExtend, which works in place.
// The rows of a result, and their order, depend only on the inputs — never
// on a worker count or a thread schedule.
//
// Every engine also accepts an optional CancellationToken, checked at round
// boundaries: a cancelled or deadline-expired token stops the fixpoint with
// kCancelled / kDeadlineExceeded after at most one more round.

#pragma once

#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "datalog/rule.h"
#include "eval/apply.h"
#include "eval/joint.h"
#include "eval/stats.h"
#include "storage/database.h"

namespace linrec {

/// `rules` as the rules of a one-member joint closure (eval/joint.h):
/// member 0 is the recursive predicate, both head and recursive atom.
std::vector<JointRule> AsJointRules(const std::vector<LinearRule>& rules);

/// Computes (Σ_i rules[i])* q — the least relation P ⊇ q closed under every
/// rule — by semi-naive evaluation [Bancilhon 85]: each round applies every
/// operator to the newly derived Δ only, so the same derivation arc is never
/// traversed twice (the computation model assumed by Theorem 3.1).
///
/// All rules must share the head predicate and arity of `q`. Parameter
/// relations are read from `db`; the recursive predicate itself is never
/// read from `db`.
Result<Relation> SemiNaiveClosure(const std::vector<LinearRule>& rules,
                                  const Database& db, const Relation& q,
                                  ClosureStats* stats = nullptr,
                                  IndexCache* cache = nullptr,
                                  const CancellationToken* cancel = nullptr);

/// In-place semi-naive continuation — the primitive behind
/// SemiNaiveClosure and DecomposedClosure.
/// `result` holds a closed prefix (rows [0, delta_begin), a fixpoint of
/// the rules) with the new seed tuples already appended as rows
/// [delta_begin, size()); the call extends `result` to the fixpoint of the
/// union by running Δ rounds from exactly that appended range. Only the
/// appended tuples seed the Δ, so the closed prefix is never re-derived —
/// sound because the operators are linear: each derivation consumes
/// exactly one recursive tuple, and derivations from closed tuples land in
/// the closed prefix. Unlike SemiNaiveClosure nothing is copied: the
/// caller owns the relation and — because every mutation is an append —
/// can roll a failure back by truncating to the pre-call size
/// (Relation::TruncateRows). On any error `result` holds a sound partial
/// extension (a subset of the fixpoint), never garbage rows.
Status SemiNaiveExtend(const std::vector<LinearRule>& rules,
                       const Database& db, Relation* result,
                       RowId delta_begin, ClosureStats* stats = nullptr,
                       IndexCache* cache = nullptr,
                       const CancellationToken* cancel = nullptr);

/// Same fixpoint by naive evaluation: each round applies every operator to
/// the full accumulated relation. Baseline for bench_engine (E7); produces
/// identical results with many more duplicate derivations.
Result<Relation> NaiveClosure(const std::vector<LinearRule>& rules,
                              const Database& db, const Relation& q,
                              ClosureStats* stats = nullptr,
                              IndexCache* cache = nullptr,
                              const CancellationToken* cancel = nullptr);

/// Computes the single power sum Σ_{m=0}^{max_power} A^m q where A is the
/// operator sum of `rules` (m = 0 contributes q itself). Used by the
/// redundancy-aware closure of Theorem 4.2.
Result<Relation> PowerSum(const std::vector<LinearRule>& rules,
                          const Database& db, const Relation& q,
                          int max_power, ClosureStats* stats = nullptr,
                          IndexCache* cache = nullptr,
                          const CancellationToken* cancel = nullptr);

}  // namespace linrec
