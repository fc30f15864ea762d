// Iterative Tarjan strongly-connected-components condensation.
//
// Used by CompileProgram (frontend/lower.h) to order predicate evaluation:
// the predicate dependency graph is condensed into SCCs, singleton
// components run the per-predicate engine path, and non-trivial components
// are closed jointly (eval/joint.h). The implementation is fully
// iterative — an explicit frame stack replaces the DFS call stack — so
// dependency chains of hundreds of thousands of nodes cannot overflow the
// thread stack.

#pragma once

#include <vector>

namespace linrec {

/// Strongly connected components of the directed graph `adjacency`
/// (adjacency[u] lists the successors of node u; out-of-range successor
/// ids are ignored). With the convention that an edge u → v means
/// "u depends on v", components are returned in dependency-first
/// (reverse topological) order: every component a component depends on
/// appears earlier in the result. Node ids inside each component are
/// sorted ascending. Self-loops make a singleton component cyclic but do
/// not change the partition.
std::vector<std::vector<int>> StronglyConnectedComponents(
    const std::vector<std::vector<int>>& adjacency);

}  // namespace linrec
