#include "separability/algorithm.h"

#include "analysis/classify.h"
#include "commutativity/oracle.h"
#include "common/strings.h"
#include "datalog/printer.h"

namespace linrec {

Result<bool> SelectionCommutesWith(const LinearRule& rule,
                                   const Selection& sigma) {
  if (sigma.position < 0 ||
      sigma.position >= static_cast<int>(rule.arity())) {
    return Status::InvalidArgument(
        StrCat("selection position ", sigma.position,
               " out of range for arity ", rule.arity()));
  }
  Result<Classification> classes = Classification::Compute(rule);
  if (!classes.ok()) return classes.status();
  VarId x = classes->HeadVarAt(sigma.position);
  const VarClass& vc = classes->Of(x);
  return vc.persistent && vc.period == 1;
}

Result<Relation> SeparableClosure(const std::vector<LinearRule>& a_rules,
                                  const std::vector<LinearRule>& b_rules,
                                  const Selection& sigma, const Database& db,
                                  const Relation& q, ClosureStats* stats,
                                  IndexCache* cache,
                                  const CancellationToken* cancel) {
  for (const LinearRule& a : a_rules) {
    for (const LinearRule& b : b_rules) {
      Result<bool> commute = Commute(a, b);
      if (!commute.ok()) return commute.status();
      if (!*commute) {
        return Status::InvalidArgument(
            StrCat("operators do not commute: ", ToString(a), " vs ",
                   ToString(b)));
      }
    }
  }
  for (const LinearRule& a : a_rules) {
    Result<bool> sc = SelectionCommutesWith(a, sigma);
    if (!sc.ok()) return sc.status();
    if (!*sc) {
      return Status::InvalidArgument(
          StrCat("selection on position ", sigma.position,
                 " does not commute with ", ToString(a)));
    }
  }

  return SeparableClosureUnchecked(a_rules, b_rules, sigma, db, q, stats,
                                   cache, cancel);
}

Result<Relation> SeparableClosureUnchecked(
    const std::vector<LinearRule>& a_rules,
    const std::vector<LinearRule>& b_rules, const Selection& sigma,
    const Database& db, const Relation& q, ClosureStats* stats,
    IndexCache* cache, const CancellationToken* cancel) {
  // A*( σ( B* q ) ) — see the header derivation. Both phases share one
  // index cache so the parameter-relation indexes are built once.
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;

  Relation filtered;
  if (b_rules.empty()) {
    filtered = ApplySelection(q, sigma, stats);
  } else {
    ClosureStats phase;
    Result<Relation> after_b =
        SemiNaiveClosure(b_rules, db, q, &phase, cache, cancel);
    if (!after_b.ok()) return after_b.status();
    if (stats != nullptr) stats->Accumulate(phase);
    filtered = ApplySelection(*after_b, sigma, stats);
  }

  ClosureStats phase2;
  Result<Relation> after_a =
      SemiNaiveClosure(a_rules, db, filtered, &phase2, cache, cancel);
  if (!after_a.ok()) return after_a.status();
  if (stats != nullptr) stats->Accumulate(phase2);
  return after_a;
}

Result<Relation> ClosureThenSelect(const std::vector<LinearRule>& a_rules,
                                   const std::vector<LinearRule>& b_rules,
                                   const Selection& sigma, const Database& db,
                                   const Relation& q, ClosureStats* stats,
                                   IndexCache* cache) {
  std::vector<LinearRule> all = a_rules;
  all.insert(all.end(), b_rules.begin(), b_rules.end());
  Result<Relation> closure =
      SemiNaiveClosure(all, db, q, stats, cache);
  if (!closure.ok()) return closure.status();
  return ApplySelection(*closure, sigma, stats);
}

}  // namespace linrec
