// Closure strategies over sums of linear operators (Section 3).
//
// The direct closure (Σ_i A_i)* q is SemiNaiveClosure (eval/fixpoint.h).
// DecomposedClosure evaluates an ordered product of group closures
// G_1* G_2* ... G_k* q — licensed when all pairs of operators across
// different groups commute, in which case it equals the direct closure with
// no more (and typically many fewer) duplicate derivations (Theorem 3.1).
//
// Every closure's rounds run serially on the calling thread
// (eval/fixpoint.h), so a result's rows and their order depend only on the
// inputs.

#pragma once

#include <vector>

#include "common/status.h"
#include "datalog/rule.h"
#include "eval/fixpoint.h"

namespace linrec {

/// groups[0]* groups[1]* ... groups[k-1]* q — the rightmost group closure is
/// applied first, matching operator-product order. Callers are responsible
/// for the cross-group commutativity that makes this equal the direct
/// closure (the engine's planner produces such groups for kDecomposed
/// plans). All group closures share `cache` (or a local one when null).
///
/// Evaluated as the sequential product G_1*(G_2*(… q)): each group closure
/// semi-naively extends, in place, the relation the groups to its right
/// produced.
Result<Relation> DecomposedClosure(
    const std::vector<std::vector<LinearRule>>& groups, const Database& db,
    const Relation& q, ClosureStats* stats = nullptr,
    IndexCache* cache = nullptr,
    const CancellationToken* cancel = nullptr);

}  // namespace linrec
