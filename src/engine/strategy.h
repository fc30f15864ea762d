// Strategy tags for the execution plans compiled by Engine::Prepare.
//
// Each tag names one of the paper's evaluation strategies; the planner
// chooses among them from the rules' cached analysis (engine/engine.h).

#pragma once

namespace linrec {

enum class Strategy {
  /// Naive fixpoint: re-apply every operator to the full relation each
  /// round. Baseline only; never chosen automatically.
  kNaive,
  /// Semi-naive Δ-driven fixpoint [Bancilhon 85] — the default.
  kSemiNaive,
  /// Commuting-group product G_1* G_2* ... G_k* (Theorem 3.1).
  kDecomposed,
  /// Selection pushed through a commuting split: σ(A+B)* = A*(σ(B* q))
  /// (Theorem 4.1 / Algorithm 4.1).
  kSeparable,
  /// Uniformly bounded operator: A* = Σ_{m<N} A^m (Section 4.2).
  kPowerSum,
  /// Joint multi-relation semi-naive fixpoint over one strongly connected
  /// predicate component (stratified linear mutual recursion; eval/joint.h).
  kJointSemiNaive,
};

inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kSemiNaive:
      return "semi-naive";
    case Strategy::kDecomposed:
      return "decomposed";
    case Strategy::kSeparable:
      return "separable";
    case Strategy::kPowerSum:
      return "power-sum";
    case Strategy::kJointSemiNaive:
      return "joint-semi-naive";
  }
  return "unknown";
}

}  // namespace linrec
