// Fluent query description: σ (Σ_i rules_i)* q, by structure only.
//
// A Query says *what* to compute; Engine::Prepare decides *how* from the
// rules' cached analysis. The seed q and the σ constant are inputs of one
// execution, bound on the BoundQuery. Typical use:
//
//   Engine engine(std::move(db));
//   auto prepared = engine.Prepare(
//       Query::Closure({r1, r2}).SelectPosition(0));
//   std::cout << prepared->plan().Explain();
//   auto result = engine.Execute(prepared->Bind(v).BindSeed(q));

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/rule.h"
#include "engine/strategy.h"
#include "eval/joint.h"

namespace linrec {

class Query {
 public:
  /// Starts a query for the closure (Σ_i rules_i)* — the least relation
  /// containing the initial relation and closed under every rule.
  static Query Closure(std::vector<LinearRule> rules);

  /// Starts a joint query: the least relations P_0..P_{M-1} (one per
  /// member predicate of a strongly connected component) jointly closed
  /// under mutually recursive linear rules. Seeds bind per execution with
  /// BoundQuery::BindSeeds. Selections and Force are not supported on
  /// joint queries.
  static Query JointClosure(std::vector<std::string> members,
                            std::vector<JointRule> rules);

  /// Declares σ_{position=value} on the closure with the value as a bind
  /// parameter: the planner reads only the position, and the value binds
  /// per execution via PreparedQuery::Bind — the prepared form of a
  /// σ-sweep (Theorem 4.1's workload) plans once and binds many times.
  /// The planner pushes the selection through the closure when Theorem 4.1
  /// licenses it, and filters the final result otherwise.
  Query& SelectPosition(int position);

  /// Overrides automatic strategy selection (e.g. Strategy::kNaive as an
  /// experiment baseline). Prepare fails if the forced strategy's
  /// preconditions do not hold.
  Query& Force(Strategy strategy);

  const std::vector<LinearRule>& rules() const { return rules_; }
  /// The σ position, if SelectPosition declared one.
  const std::optional<int>& sigma_position() const { return sigma_position_; }
  const std::optional<Strategy>& forced_strategy() const { return forced_; }

  /// True iff this is a joint (multi-predicate) query.
  bool is_joint() const { return !members_.empty(); }
  const std::vector<std::string>& members() const { return members_; }
  const std::vector<JointRule>& joint_rules() const { return joint_rules_; }

  /// Structural checks: at least one rule, all rules over one head
  /// predicate/arity, σ position in range. Joint queries check instead:
  /// distinct members, every rule headed by its member with exactly one
  /// member atom in the body (the recursive atom); selections and forced
  /// strategies are rejected. Seeds are checked per execution by
  /// BoundQuery::Validate.
  Status Validate() const;

 private:
  std::vector<LinearRule> rules_;
  std::optional<int> sigma_position_;
  std::optional<Strategy> forced_;
  // Joint-query state (is_joint() == !members_.empty()).
  std::vector<std::string> members_;
  std::vector<JointRule> joint_rules_;
};

}  // namespace linrec
