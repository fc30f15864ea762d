// Rule-family generators for scaling benchmarks and property tests.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/rule.h"
#include "eval/joint.h"
#include "storage/database.h"

namespace linrec {

/// Restricted-class commuting pair of arity 2k: positions 0..k-1 are free
/// 1-persistent in r1 and general in r2 (guarded by per-position predicates
/// q_i), and positions k..2k-1 symmetrically. Every position satisfies
/// clause (a) of Theorem 5.1; all predicates are distinct, so Theorem 5.2
/// applies and the test runs in O(a log a).
Result<std::pair<LinearRule, LinearRule>> MakeRestrictedCommutingPair(
    int half_arity);

/// As above but with one pair of positions swapped inconsistently in r2 so
/// that the rules do NOT commute (used to exercise the necessity half).
Result<std::pair<LinearRule, LinearRule>> MakeRestrictedNonCommutingPair(
    int half_arity);

/// A commuting pair outside the restricted class: `bridges` bridges, each a
/// general head variable chained through `chain_len` atoms of the SAME
/// predicate q to a link 1-persistent variable. Repeated predicates defeat
/// the fast equivalence path and make the definitional test's homomorphism
/// search expensive, while the syntactic test only runs small per-bridge
/// equivalences — the regime Theorem 5.3 targets.
Result<std::pair<LinearRule, LinearRule>> MakeRepeatedPredicatePair(
    int bridges, int chain_len);

/// A pseudo-random linear, constant-free rule with distinct head variables:
/// arity `arity`, `extra_atoms` nonrecursive atoms over head + fresh
/// variables, range-restricted. With `distinct_predicates` the rule stays in
/// the restricted class. Deterministic in `seed`.
Result<LinearRule> RandomLinearRule(int arity, int extra_atoms,
                                    std::uint32_t seed,
                                    bool distinct_predicates = true);

/// Per-clause position counts for MakeProfiledPair. The generated pair is in
/// the restricted class and satisfies clause (a)/(b)/(c)/(d) of Theorem 5.1
/// at the corresponding positions; `broken_positions` are general in both
/// rules with *inequivalent* bridges, so any broken position makes the pair
/// non-commuting (Theorem 5.2).
struct ClauseProfile {
  int a_positions = 0;  ///< free 1-persistent in r1, guarded general in r2
  int b_positions = 0;  ///< link 1-persistent in both
  int c_pairs = 0;      ///< free 2-persistent swap pairs in both (2 positions each)
  int d_positions = 0;  ///< general in both with identical bridges
  int broken_positions = 0;  ///< general in both, mismatched bridges

  int arity() const {
    return a_positions + b_positions + 2 * c_pairs + d_positions +
           broken_positions;
  }
};

/// Builds a rule pair realizing `profile`. Requires arity() >= 1.
Result<std::pair<LinearRule, LinearRule>> MakeProfiledPair(
    const ClauseProfile& profile);

/// A mutually recursive workload: member predicates (sorted), the joint
/// rules over them, the parameter database and the per-member seeds —
/// ready for Engine::Prepare(Query::JointClosure(members, rules)) followed
/// by Bind().BindSeeds(seeds) and Execute, or a direct
/// JointSemiNaiveClosure call.
struct JointWorkload {
  std::vector<std::string> members;
  std::vector<JointRule> rules;
  Database db;
  std::vector<Relation> seeds;
};

/// Even/odd parity over the successor chain 0 → 1 → ... → n-1:
///   even(X) :- odd(Y), succ(Y,X).    odd(X) :- even(Y), succ(Y,X).
/// seeded with even = {0}. The joint closure is exactly the parity split
/// of 0..n-1 — a two-member component whose Δs alternate between the
/// members, so every round exercises the joint Δ bookkeeping. Requires
/// n >= 1.
Result<JointWorkload> MakeEvenOddChain(int n);

/// Color-alternating reachability over a random 2-colored graph (`edges`
/// red and `edges` blue edges over `nodes` vertices, deterministic in
/// `seed`):
///   reach_red(X,Z)  :- reach_blue(X,Y), red(Y,Z).
///   reach_blue(X,Z) :- reach_red(X,Y), blue(Y,Z).
/// seeded with reach_red = red, reach_blue = blue: pairs connected by a
/// path of strictly alternating colors, split by the final edge's color.
Result<JointWorkload> MakeAlternatingReachability(int nodes, int edges,
                                                  std::uint32_t seed);

}  // namespace linrec
