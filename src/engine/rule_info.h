// Memoized per-rule and pairwise analysis backing Engine plan selection.
//
// The planner consults the same theorems for every query over a rule —
// variable classes (Section 5.1), the pairwise commutativity verdict
// (Theorems 5.1/5.2), recursively redundant predicates (Theorem 6.3) and
// whole-operator uniform boundedness (Section 4.2). AnalysisCache computes
// each of them at most once per rule (or rule pair), keyed on the rule's
// canonical text form.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "analysis/classify.h"
#include "commutativity/oracle.h"
#include "common/status.h"
#include "datalog/rule.h"
#include "datalog/traits.h"
#include "redundancy/analyze.h"
#include "redundancy/boundedness.h"

namespace linrec {

/// Everything the planner knows about one linear rule, computed once.
struct RuleInfo {
  explicit RuleInfo(LinearRule r) : rule(std::move(r)) {}

  LinearRule rule;
  /// Canonical text form; the memoization key (identical text implies
  /// identical analysis).
  std::string key;
  RuleTraits traits;
  /// ValidateForAnalysis passed, so the α-graph artifacts below exist.
  bool analyzable = false;
  /// First violated precondition when !analyzable.
  std::string analysis_blocked;
  /// Variable classes / h function (only when analyzable).
  std::optional<Classification> classes;
  /// Theorem 6.3 bridge report (only when analyzable).
  std::optional<RedundancyReport> redundancy;
  /// Budgeted whole-operator uniform boundedness (Section 4.2):
  /// found ⇒ A* = Σ_{m<n} A^m.
  ExponentSearch uniform_bound;
  /// The budgeted searches (redundancy, uniform_bound) have run. They are
  /// computed lazily: only single-rule plans can use them.
  bool budgeted_searches_done = false;

  bool HasRedundantPredicates() const {
    return redundancy.has_value() && !redundancy->redundant_predicates.empty();
  }
};

/// Budget of the torsion / uniform-boundedness searches behind kPowerSum
/// and redundancy elision: rule powers up to A^6 are tried.
inline constexpr int kAnalysisMaxPower = 6;

/// Computes and memoizes RuleInfo per rule and the combined-oracle
/// commutativity verdict per unordered rule pair.
class AnalysisCache {
 public:
  /// Cached info for `rule`, computed on first sight. The pointer stays
  /// valid for the cache's lifetime. The budgeted searches (redundancy
  /// bridges, uniform boundedness) run only when `budgeted_searches` is
  /// requested — they cost up to kAnalysisMaxPower symbolic rule powers
  /// each and only single-rule plans consult them.
  Result<const RuleInfo*> Info(const LinearRule& rule,
                               bool budgeted_searches = false);

  /// Memoized combined-oracle verdict (commutativity is symmetric, so the
  /// pair is cached unordered).
  Result<CommutativityReport> Commutes(const LinearRule& r1,
                                       const LinearRule& r2);

  std::size_t rule_entries() const { return rules_.size(); }
  std::size_t pair_entries() const { return pairs_.size(); }

 private:
  std::unordered_map<std::string, std::unique_ptr<RuleInfo>> rules_;
  std::unordered_map<std::string, CommutativityReport> pairs_;
};

}  // namespace linrec
