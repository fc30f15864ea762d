// One-stop structural analysis of a linear rule: α-graph, variable classes,
// and both bridge decompositions used by the paper.

#pragma once

#include <memory>

#include "analysis/alpha_graph.h"
#include "analysis/bridges.h"
#include "analysis/classify.h"
#include "datalog/traits.h"

namespace linrec {

/// Computes and caches every structural artifact of one rule.
class RuleAnalysis {
 public:
  /// Requires ValidateForAnalysis(rule).
  static Result<RuleAnalysis> Compute(LinearRule rule);

  const LinearRule& rule() const { return rule_; }
  const RuleTraits& traits() const { return traits_; }
  const AlphaGraph& graph() const { return graph_; }
  const Classification& classes() const { return classes_; }

  /// Bridges w.r.t. the subgraph induced by the dynamic self-arcs of the
  /// link 1-persistent variables — the decomposition used by the
  /// commutativity condition (Theorem 5.1 (d)).
  const std::vector<Bridge>& commutativity_bridges() const {
    return commutativity_bridges_;
  }
  /// Index of the commutativity bridge whose nodes include v, or -1.
  /// Unique for any variable outside V′ with at least one incident arc.
  int CommutativityBridgeOf(VarId v) const;

  /// Bridges w.r.t. G_I — the subgraph induced by the dynamic arcs
  /// connecting I = link-persistent ∪ ray variables (Section 6.2,
  /// recursive redundancy).
  const std::vector<Bridge>& redundancy_bridges() const {
    return redundancy_bridges_;
  }

 private:
  LinearRule rule_;
  RuleTraits traits_;
  AlphaGraph graph_;
  Classification classes_;
  std::vector<Bridge> commutativity_bridges_;
  std::vector<Bridge> redundancy_bridges_;

  RuleAnalysis(LinearRule rule, RuleTraits traits, AlphaGraph graph,
               Classification classes)
      : rule_(std::move(rule)),
        traits_(traits),
        graph_(std::move(graph)),
        classes_(std::move(classes)) {}
};

}  // namespace linrec
