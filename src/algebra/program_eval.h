// Whole-program evaluation, built on linrec::Engine.
//
// Evaluates a parsed Program: facts load the EDB; the predicate
// dependency graph is condensed into strongly connected components
// (iterative Tarjan, common/scc.h) and the condensation is evaluated in
// topological order. A singleton component runs the paper's
// single-predicate path: nonrecursive rules seed the initial relation
// (the paper's Q in P = AP ∪ Q, eq. 2.3) and the linear recursive rules
// are closed through the engine — with use_decomposition the planner
// chooses the strategy from the rules' analysis (Section 3); otherwise
// plain semi-naive. A non-trivial component (mutual recursion) is closed
// jointly by the multi-relation semi-naive fixpoint (eval/joint.h), one Δ
// row-range per member predicate.
//
// Scope: recursion must be linear — inside a component, every rule may
// read at most one component predicate (its recursive atom). A rule
// reading two or more component predicates (non-linear joint recursion)
// yields InvalidArgument naming the full component.

#pragma once

#include "common/status.h"
#include "datalog/parser.h"
#include "eval/stats.h"
#include "storage/database.h"

namespace linrec {

/// Evaluation options.
struct ProgramEvalOptions {
  /// Let the engine planner choose the strategy per recursive predicate
  /// (decomposition, power sum, redundancy elision, ...). When false, the
  /// closure is forced to plain semi-naive on the rule sum. Joint (mutual
  /// recursion) components always run the multi-relation semi-naive
  /// fixpoint.
  bool use_decomposition = false;
};

/// Result of evaluating a program: the final database (EDB facts plus one
/// relation per derived predicate), aggregate statistics, and one
/// ExecutionPlan::Explain() rendering per recursive predicate or joint
/// component.
struct ProgramResult {
  Database db;
  ClosureStats stats;
  std::vector<std::string> plan_explanations;
};

/// Evaluates `program` bottom-up. Every predicate is materialized into the
/// returned database.
Result<ProgramResult> EvaluateProgram(const Program& program,
                                      const ProgramEvalOptions& options = {});

}  // namespace linrec
