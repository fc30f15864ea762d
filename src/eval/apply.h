// Single application of a rule: the linear relational operator f(P, {Q_i})
// of Section 2, realized as conjunctive-query evaluation.
//
// Two entry points share one join kernel:
//  * ApplyRule — compile + run in one call (the original API).
//  * CompileRule / CompiledRule::Run — compile once per closure, run once
//    per round. Fixpoint loops execute the same rule hundreds of times;
//    hoisting the join-order choice, step compilation and scratch
//    allocation out of the round loop removes every per-round allocation,
//    and the partition entry point (RunPartition) restricts the first
//    atom's scan to the round's Δ row range.

#pragma once

#include <memory>
#include <unordered_map>

#include "common/cancel.h"
#include "common/status.h"
#include "datalog/rule.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "storage/database.h"

namespace linrec {

/// Options controlling one rule application.
struct ApplyOptions {
  /// Body-atom index → relation that atom reads instead of the database
  /// entry for its predicate (e.g. the recursive atom reads P or ΔP).
  std::unordered_map<int, const Relation*> overrides;
  /// Body-atom index → relation of rows that atom must NOT match: a
  /// candidate row found in it is skipped (an anti-join on the whole row,
  /// probed through the relation's dedup table; arities must agree). The
  /// IVM re-derive pass uses it to keep only derivations whose recursive
  /// tuple lies outside the suspect set.
  std::unordered_map<int, const Relation*> excludes;
  /// If ≥ 0, this body atom is placed first in the join order (semi-naive
  /// evaluation puts Δ first).
  int first_atom = -1;
};

/// A rule compiled against fixed input relations: join order chosen, steps
/// classified, scratch buffers allocated. Reusable across rounds as long as
/// the resolved relations stay alive (their contents may grow — the closure
/// loop's Δ-carrying relation does; indexes are revalidated per Run through
/// the caller's IndexCache).
///
/// Not thread-safe: Run reuses internal scratch. Closures running on
/// different threads compile their own instances (compilation is cheap and
/// per-closure).
class CompiledRule {
 public:
  CompiledRule();
  ~CompiledRule();
  CompiledRule(CompiledRule&&) noexcept;
  CompiledRule& operator=(CompiledRule&&) noexcept;

  /// Evaluates the join over the first step's full relation, inserting each
  /// derived head row into `out`. Equivalent to the original ApplyRule.
  /// A non-null `cancel` is checked every few thousand candidate rows, so
  /// even one enormous join stops soon after its deadline or Cancel().
  Status Run(Relation* out, ClosureStats* stats = nullptr,
             IndexCache* cache = nullptr,
             const CancellationToken* cancel = nullptr);

  /// The Δ cursor entry point: evaluates the join with the first
  /// atom's scan restricted to `delta` — which must view the relation the
  /// first atom was compiled against (asserted). Requires the rule to have
  /// been compiled with options.first_atom >= 0.
  Status RunPartition(PartitionView delta, Relation* out,
                      ClosureStats* stats = nullptr,
                      IndexCache* cache = nullptr,
                      const CancellationToken* cancel = nullptr);

 private:
  friend Result<CompiledRule> CompileRule(const Rule& rule,
                                          const Database& db,
                                          const ApplyOptions& options);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Compiles `rule`'s body into a CompiledRule against `db` plus overrides.
/// Body predicates absent from both `db` and the overrides are treated as
/// empty relations (the compiled rule derives nothing). Head variables not
/// bound by the body yield InvalidArgument.
Result<CompiledRule> CompileRule(const Rule& rule, const Database& db,
                                 const ApplyOptions& options);

/// Evaluates `rule`'s body as a join over `db` (plus overrides) and inserts
/// each derived head tuple into `out` — CompileRule + Run in one call.
///
/// Every produced head tuple counts as one derivation in `stats` (if given),
/// whether or not it was already present in `out`.
Status ApplyRule(const Rule& rule, const Database& db,
                 const ApplyOptions& options, Relation* out,
                 ClosureStats* stats = nullptr, IndexCache* cache = nullptr);

/// `rule` with its head prepended as body atom 0 (body atom i of `rule`
/// becomes atom i + 1). Overriding atom 0 with a relation of candidate
/// heads and forcing it first asks "which candidates does `rule` still
/// derive?" with one bound probe per candidate — the goal-directed check
/// behind the IVM delete path — instead of a pass over the whole body.
Rule PinHead(const Rule& rule);

/// Applies the operator sum Σ_i rules[i] once to `input`: every rule's
/// recursive atom reads `input`, results accumulate in the returned relation.
Result<Relation> ApplySum(const std::vector<LinearRule>& rules,
                          const Database& db, const Relation& input,
                          ClosureStats* stats = nullptr,
                          IndexCache* cache = nullptr);

}  // namespace linrec
