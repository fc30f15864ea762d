#include "analysis/rule_analysis.h"

#include <algorithm>

namespace linrec {
namespace {

int FindBridgeByNode(const std::vector<Bridge>& bridges, VarId v) {
  for (std::size_t i = 0; i < bridges.size(); ++i) {
    if (std::binary_search(bridges[i].nodes.begin(), bridges[i].nodes.end(),
                           v)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

Result<RuleAnalysis> RuleAnalysis::Compute(LinearRule rule) {
  Result<AlphaGraph> graph = AlphaGraph::Build(rule);
  if (!graph.ok()) return graph.status();
  Result<Classification> classes = Classification::Compute(rule);
  if (!classes.ok()) return classes.status();

  RuleTraits traits = ComputeTraits(rule.rule());
  RuleAnalysis analysis(std::move(rule), traits, std::move(*graph),
                        std::move(*classes));

  const AlphaGraph& g = analysis.graph_;
  const Classification& c = analysis.classes_;
  const int nvars = g.node_count();

  // Commutativity decomposition: V′ = link 1-persistent variables,
  // E′ = their dynamic self-arcs.
  std::vector<bool> vprime(static_cast<std::size_t>(nvars), false);
  for (VarId v = 0; v < nvars; ++v) {
    vprime[static_cast<std::size_t>(v)] = c.Of(v).IsLink1Persistent();
  }
  std::vector<bool> eprime(g.arcs().size(), false);
  for (std::size_t id = 0; id < g.arcs().size(); ++id) {
    const AlphaArc& arc = g.arcs()[id];
    if (arc.is_dynamic() && arc.u == arc.v &&
        vprime[static_cast<std::size_t>(arc.u)]) {
      eprime[id] = true;
    }
  }
  analysis.commutativity_bridges_ = ComputeBridges(g, vprime, eprime);

  // Redundancy decomposition: V′ = I, E′ = dynamic arcs within I.
  std::vector<bool> iset(static_cast<std::size_t>(nvars), false);
  for (VarId v : c.i_set()) iset[static_cast<std::size_t>(v)] = true;
  std::vector<bool> gi(g.arcs().size(), false);
  for (std::size_t id = 0; id < g.arcs().size(); ++id) {
    const AlphaArc& arc = g.arcs()[id];
    if (arc.is_dynamic() && iset[static_cast<std::size_t>(arc.u)] &&
        iset[static_cast<std::size_t>(arc.v)]) {
      gi[id] = true;
    }
  }
  analysis.redundancy_bridges_ = ComputeBridges(g, iset, gi);

  return analysis;
}

int RuleAnalysis::CommutativityBridgeOf(VarId v) const {
  return FindBridgeByNode(commutativity_bridges_, v);
}

}  // namespace linrec
