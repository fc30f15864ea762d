// Bridges of the α-graph with respect to a subgraph (Section 5.1).
//
// Given a graph G, a node set V′ and an arc set E′ (the subgraph G′), two
// arcs of G − E′ are equivalent when some walk contains both without passing
// through a node of V′ internally. The subgraph induced by an equivalence
// class is a bridge; a bridge plus the part of G′ connected to it is an
// augmented bridge. Identification is O(n + e) by union-find (Lemma 5.3).
//
// One refinement: arcs of the same body atom are kept in one bridge even
// when a middle argument lies in V′, so that every atom belongs to exactly
// one augmented bridge and narrow/wide rules are well defined. On the
// paper's examples this coarsening changes nothing.

#pragma once

#include <vector>

#include "analysis/alpha_graph.h"

namespace linrec {

/// One augmented bridge.
struct Bridge {
  /// Arc ids (into AlphaGraph::arcs) forming the bridge (never E′ arcs).
  std::vector<int> arcs;
  /// Endpoint variables of the bridge arcs, sorted (may include V′ nodes).
  std::vector<VarId> nodes;
  /// Nonrecursive body atoms owning a static arc of the bridge, sorted.
  std::vector<int> atom_indices;
  /// The augmentation: V′ nodes of the G′ components connected to the
  /// bridge, sorted.
  std::vector<VarId> attached;

  /// True if v is a node or an attached node of this bridge.
  bool ContainsVar(VarId v) const;
};

/// Computes the augmented bridges of `graph` with respect to the subgraph
/// given by node set `vprime` and arc set `in_eprime` (both indexed by
/// id). E′ arcs belong to no bridge; they augment the bridges they connect
/// to.
std::vector<Bridge> ComputeBridges(const AlphaGraph& graph,
                                   const std::vector<bool>& vprime,
                                   const std::vector<bool>& in_eprime);

}  // namespace linrec
