// Redundancy-aware closure (Theorem 4.2):
//
//   A* = Σ_{m=0}^{KL-1} Aᵐ
//      + (Σ_{n=0}^{L-1} Aⁿ)(Σ_{m=K}^{N-1} Aᵐᴸ)(Σ_{i≥0} B^{i(N-K)})
//
// where Aᴸ = BCᴸ, C is torsion with Cᴺ = Cᴷ, and Cᴸ(BCᴸ) = Cᴸ(CᴸB).
// The C-side predicates are touched at most NL−1 times; the unbounded tail
// only applies B.

#pragma once

#include "common/status.h"
#include "eval/fixpoint.h"
#include "redundancy/factorize.h"

namespace linrec {

/// Evaluates A* q using the factorization. Equal to the direct semi-naive
/// closure of A (verified in tests); asymptotically cheaper when the
/// redundant predicates are expensive. All phases share `cache` (or a
/// local one when null).
Result<Relation> RedundantClosure(const RedundantFactorization& f,
                                  const Database& db, const Relation& q,
                                  ClosureStats* stats = nullptr,
                                  IndexCache* cache = nullptr,
                                  const CancellationToken* cancel = nullptr);

}  // namespace linrec
