#include "redundancy/closure.h"

#include <numeric>

#include "cq/compose.h"

namespace linrec {
namespace {

/// General evaluation per the Theorem 4.2 series:
///   A* = Σ_{m<KL} Aᵐ + (Σ_{n<L} Aⁿ)(Σ_{m=K..N-1} Aᵐᴸ)(B^{N-K})*.
/// Valid whenever the swap condition Cᴸ(BCᴸ) = Cᴸ(CᴸB) holds.
Result<Relation> GeneralPath(const RedundantFactorization& f,
                             const Database& db, const Relation& q,
                             ClosureStats* stats, IndexCache* cache,
                             const CancellationToken* cancel) {
  const int l = f.L;
  const int k = f.K;
  const int n = f.N;
  std::vector<LinearRule> a_rules{f.A};

  // Tail seed: (B^{N-K})* q.
  Result<LinearRule> b_power = Power(f.B, n - k);
  if (!b_power.ok()) return b_power.status();
  std::vector<LinearRule> b_rules{std::move(b_power).value()};
  Result<Relation> x =
      SemiNaiveClosure(b_rules, db, q, stats, cache, cancel);
  if (!x.ok()) return x.status();

  // Y = Σ_{m=K}^{N-1} A^{mL} X, collected while iterating A.
  Relation y(q.arity());
  {
    Relation z = std::move(x).value();
    for (int step = 1; step <= (n - 1) * l; ++step) {
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      Result<Relation> next = ApplySum(a_rules, db, z, stats, cache);
      if (!next.ok()) return next.status();
      z = std::move(next).value();
      if (step % l == 0 && step / l >= k) y.UnionWith(z);
    }
  }

  // W = Σ_{n'=0}^{L-1} A^{n'} Y.
  Result<Relation> w =
      PowerSum(a_rules, db, y, l - 1, stats, cache, cancel);
  if (!w.ok()) return w.status();

  // Prefix Σ_{m=0}^{KL-1} A^m q.
  Result<Relation> prefix =
      PowerSum(a_rules, db, q, k * l - 1, stats, cache, cancel);
  if (!prefix.ok()) return prefix.status();

  Relation result = std::move(prefix).value();
  result.UnionWith(*w);
  return result;
}

/// Fast path when B and E = Cᴸ commute. Writing D = Aᴸ = B·E and using the
/// torsion of C (Cᴺ ≡ Cᴷ, so Eᵐ cycles with index k' = ⌈K/L⌉ and period
/// p' = (N−K)/gcd(L, N−K)):
///
///   D* = Σ_{m<k'} Dᵐ + (B^{p'})* Σ_{j=0}^{p'-1} D^{k'+j},
///   A* = (Σ_{n<L} Aⁿ) D*.
///
/// Every application of the redundant predicates happens in the bounded
/// D-power prefix computed from q, never on the unbounded tail.
Result<Relation> CommutingPath(const RedundantFactorization& f,
                               const Database& db, const Relation& q,
                               ClosureStats* stats, IndexCache* cache,
                               const CancellationToken* cancel) {
  const int l = f.L;
  const int k_prime = (f.K + l - 1) / l;
  // Smallest p with L·p ≡ 0 (mod N−K): the cycle period of Cᴸ-powers.
  const int period = (f.N - f.K) / std::gcd(l, f.N - f.K);
  std::vector<LinearRule> d_rules{f.AL};
  std::vector<LinearRule> a_rules{f.A};

  // S1 = Σ_{m=0}^{k'-1} D^m q, keeping the running power D^{k'-1} q.
  Relation s1 = q;
  Relation power = q;
  for (int m = 1; m <= k_prime - 1; ++m) {
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    Result<Relation> next = ApplySum(d_rules, db, power, stats, cache);
    if (!next.ok()) return next.status();
    power = std::move(next).value();
    s1.UnionWith(power);
  }
  // T = Σ_{j=0}^{p'-1} D^{k'+j} q.
  Relation t(q.arity());
  for (int j = 0; j < period; ++j) {
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    Result<Relation> next = ApplySum(d_rules, db, power, stats, cache);
    if (!next.ok()) return next.status();
    power = std::move(next).value();
    t.UnionWith(power);
  }
  // X = (B^{p'})* T.
  Result<LinearRule> b_power = Power(f.B, period);
  if (!b_power.ok()) return b_power.status();
  std::vector<LinearRule> b_rules{std::move(b_power).value()};
  Result<Relation> x =
      SemiNaiveClosure(b_rules, db, t, stats, cache, cancel);
  if (!x.ok()) return x.status();

  Relation d_star = std::move(s1);
  d_star.UnionWith(*x);

  // A* q = Σ_{n<L} A^n (D* q).
  return PowerSum(a_rules, db, d_star, l - 1, stats, cache, cancel);
}

}  // namespace

Result<Relation> RedundantClosure(const RedundantFactorization& f,
                                  const Database& db, const Relation& q,
                                  ClosureStats* stats, IndexCache* cache,
                                  const CancellationToken* cancel) {
  if (!f.product_verified || !f.swap_verified) {
    return Status::InvalidArgument(
        "factorization not verified (product/swap); refusing to use it");
  }
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  Result<Relation> result =
      f.commuting ? CommutingPath(f, db, q, stats, cache, cancel)
                  : GeneralPath(f, db, q, stats, cache, cancel);
  if (result.ok() && stats != nullptr) stats->result_size = result->size();
  return result;
}

}  // namespace linrec
