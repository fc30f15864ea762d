// ExecutionPlan: the compiled, explainable strategy choice for one Query.
//
// A plan is self-contained — it carries the rules, the seed, the strategy
// and every parameter the executor needs — so it can be inspected
// (Explain()), cached, or executed repeatedly against the engine's
// (possibly updated) database.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datalog/rule.h"
#include "engine/strategy.h"
#include "eval/joint.h"
#include "eval/selection.h"
#include "redundancy/factorize.h"
#include "storage/relation.h"

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
  /// The query's selection, if any.
  std::optional<Selection> selection;
  /// True while `selection->value` is an unbound placeholder: the plan was
  /// compiled against the σ *position* only (planning never reads the
  /// value — Theorem 4.1's preconditions are positional), so one plan
  /// serves every selection constant. Prepared/cached plans stay in this
  /// state; binding a value (PreparedQuery::Bind, or re-attaching the
  /// query's σ on a plan-cache hit) clears the flag. Executing a plan with
  /// the flag still set is an error — the σ value must flow in at execute
  /// time, never be baked in at plan time.
  bool sigma_parameterized = false;
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
  /// rule-set digest, selection and forced strategy as a prior query).
  bool from_plan_cache = false;
  /// The initial relation q, shared immutably with the originating Query
  /// (planning never copies the relation).
  std::shared_ptr<const Relation> seed;
  /// kJointSemiNaive: the member predicate names of the strongly connected
  /// component, the joint rules over them (eval/joint.h), and the
  /// per-member seeds (shared with the Query like `seed`). Executing a
  /// joint BoundQuery yields a QueryResult with one relation per member.
  std::vector<std::string> members;
  std::vector<JointRule> joint_rules;
  std::shared_ptr<const std::vector<Relation>> joint_seeds;

  /// Rules at `indices`, in order.
  std::vector<LinearRule> RulesOf(const std::vector<int>& indices) const;

  /// Multi-line human-readable rendering: the strategy, the rules, the
  /// grouping/split, the selection placement, and the justification.
  std::string Explain() const;
};

}  // namespace linrec
