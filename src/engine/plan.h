// ExecutionPlan: the compiled, explainable strategy choice for one Query.
//
// A plan describes structure only — the rules, the strategy and every
// parameter the executor needs — and never a seed or a σ constant, which
// bind per execution on the BoundQuery. So one plan can be inspected
// (Explain()), cached, and executed repeatedly against the engine's
// (possibly updated) database.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "datalog/rule.h"
#include "engine/strategy.h"
#include "eval/joint.h"
#include "redundancy/factorize.h"

namespace linrec {

struct ExecutionPlan {
  Strategy strategy = Strategy::kSemiNaive;
  /// The planned rule vector, in query order.
  std::vector<LinearRule> rules;
  /// kDecomposed: groups of indices into `rules`. The product
  /// G_1* G_2* ... G_k* applies the last group first (operator order).
  std::vector<std::vector<int>> groups;
  /// kSeparable: indices of the σ-commuting rules (the outer closure A)
  /// and of the rest (the inner closure B; may be empty for full pushdown).
  std::vector<int> outer;
  std::vector<int> inner;
  /// The query's σ position, if any. Planning never reads the σ value —
  /// Theorem 4.1's preconditions are positional — so the value is a bind
  /// parameter and one plan serves every selection constant.
  std::optional<int> sigma_position;
  /// True when the strategy evaluates the selection internally
  /// (kSeparable); false ⇒ σ filters the final result.
  bool selection_pushed = false;
  /// kPowerSum: A* = Σ_{m=0}^{power_bound} A^m (Section 4.2).
  int power_bound = -1;
  /// Redundancy elision (Theorems 6.3/6.4): when set, execution routes
  /// through RedundantClosure so the elided predicates are applied a
  /// bounded number of times instead of once per iteration.
  std::optional<RedundantFactorization> factorization;
  /// Predicates elided by the factorization (from the bounded bridges).
  std::vector<std::string> elided_predicates;
  /// Resolved worker count (from EngineOptions::parallel_workers via
  /// ResolveWorkers): the lanes of Engine::ExecuteBatch's slots; 1 =
  /// serial. The query itself runs serially at every count, so it never
  /// changes a result.
  int parallel_workers = 1;
  /// Theorem-level reasons for the choice, in planning order.
  std::vector<std::string> justification;
  /// True when this plan was served from the engine's plan cache (same
  /// rule-set digest, σ position and forced strategy as a prior query).
  bool from_plan_cache = false;
  /// kJointSemiNaive: the member predicate names of the strongly connected
  /// component and the joint rules over them (eval/joint.h). Executing a
  /// joint BoundQuery yields a QueryResult with one relation per member.
  std::vector<std::string> members;
  std::vector<JointRule> joint_rules;

  /// Rules at `indices`, in order.
  std::vector<LinearRule> RulesOf(const std::vector<int>& indices) const;

  /// Multi-line human-readable rendering: the strategy, the rules, the
  /// grouping/split, the selection placement, and the justification.
  std::string Explain() const;
};

}  // namespace linrec
