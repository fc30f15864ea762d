// The separable algorithm (Algorithm 4.1) generalized to commuting
// operators (Theorem 4.1). For commuting A and B with a selection σ that
// commutes with A:
//
//   σ(A + B)* = σ A* B* = (A* σ) B* = A*(σ B*) ,
//
// i.e. the B-closure is computed once, filtered by σ, and only then closed
// under A. The selection therefore never sees the (much larger) mixed
// closure; the A-side work shrinks to the selected cone. (Algorithm 4.1's
// first loop composes σ into the B-powers symbolically — the operator-level
// counterpart of this formula.)

#pragma once

#include <vector>

#include "common/status.h"
#include "datalog/rule.h"
#include "eval/fixpoint.h"
#include "eval/selection.h"

namespace linrec {

/// σ commutes with the operator of `rule` iff the selected position's head
/// variable is 1-persistent (the column value passes through unchanged).
Result<bool> SelectionCommutesWith(const LinearRule& rule,
                                   const Selection& sigma);

/// Computes σ(ΣA + ΣB)* q as A*(σ(B*(q))).
///
/// Preconditions (verified; InvalidArgument if violated):
///  * every rule in `a_rules` commutes with every rule in `b_rules`
///    (combined oracle), and
///  * σ commutes with every rule in `a_rules` (the outer closure).
///
/// When `cache` is null a local IndexCache spans both phases; passing the
/// caller's cache shares parameter-relation indexes with other closures.
/// Prefer Engine::Execute (engine/engine.h), which plans this strategy
/// automatically; this entry point remains for direct use.
Result<Relation> SeparableClosure(const std::vector<LinearRule>& a_rules,
                                  const std::vector<LinearRule>& b_rules,
                                  const Selection& sigma, const Database& db,
                                  const Relation& q,
                                  ClosureStats* stats = nullptr,
                                  IndexCache* cache = nullptr,
                                  const CancellationToken* cancel = nullptr);

/// The A*(σ(B* q)) pipeline WITHOUT the precondition checks — the shared
/// executor behind SeparableClosure (which verifies first) and the engine
/// (which verified during planning). `b_rules` may be empty: full
/// pushdown, the seed itself is filtered. Callers are responsible for the
/// Theorem 4.1 preconditions; violating them silently changes the result.
Result<Relation> SeparableClosureUnchecked(
    const std::vector<LinearRule>& a_rules,
    const std::vector<LinearRule>& b_rules, const Selection& sigma,
    const Database& db, const Relation& q, ClosureStats* stats = nullptr,
    IndexCache* cache = nullptr, const CancellationToken* cancel = nullptr);

/// Baseline for comparison: (ΣA + ΣB)* q computed fully, then filtered.
Result<Relation> ClosureThenSelect(const std::vector<LinearRule>& a_rules,
                                   const std::vector<LinearRule>& b_rules,
                                   const Selection& sigma, const Database& db,
                                   const Relation& q,
                                   ClosureStats* stats = nullptr,
                                   IndexCache* cache = nullptr);

}  // namespace linrec
