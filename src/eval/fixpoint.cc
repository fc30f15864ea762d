#include "eval/fixpoint.h"

#include <utility>

#include "common/memory.h"
#include "common/strings.h"
#include "eval/joint.h"
#include "eval/timing.h"

namespace linrec {
namespace {

Status ValidateRules(const std::vector<LinearRule>& rules, const Relation& q) {
  if (rules.empty()) {
    return Status::InvalidArgument("closure requires at least one rule");
  }
  for (const LinearRule& lr : rules) {
    if (lr.arity() != q.arity()) {
      return Status::InvalidArgument(
          StrCat("rule head arity ", lr.arity(),
                 " does not match initial relation arity ", q.arity()));
    }
    if (lr.recursive_predicate() != rules[0].recursive_predicate()) {
      return Status::InvalidArgument(
          StrCat("rules mix recursive predicates '",
                 rules[0].recursive_predicate(), "' and '",
                 lr.recursive_predicate(), "'"));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<JointRule> AsJointRules(const std::vector<LinearRule>& rules) {
  std::vector<JointRule> out;
  out.reserve(rules.size());
  for (const LinearRule& lr : rules) {
    out.push_back(JointRule{lr.rule(), 0, lr.recursive_atom_index(), 0});
  }
  return out;
}

Result<Relation> SemiNaiveClosure(const std::vector<LinearRule>& rules,
                                  const Database& db, const Relation& q,
                                  ClosureStats* stats, IndexCache* cache,
                                  const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
    Relation result = q;
    LINREC_RETURN_IF_ERROR(
        SemiNaiveExtend(rules, db, &result, 0, stats, cache, cancel));
    return result;
  });
}

Status SemiNaiveExtend(const std::vector<LinearRule>& rules,
                       const Database& db, Relation* result,
                       RowId delta_begin, ClosureStats* stats,
                       IndexCache* cache, const CancellationToken* cancel) {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, *result));
  if (delta_begin > result->size()) {
    return Status::InvalidArgument(StrCat(
        "delta_begin ", delta_begin, " past result size ", result->size()));
  }
  return CloseMembers(AsJointRules(rules), db, {result}, {delta_begin},
                      /*naive=*/false, stats, cache, cancel);
}

Result<Relation> NaiveClosure(const std::vector<LinearRule>& rules,
                              const Database& db, const Relation& q,
                              ClosureStats* stats, IndexCache* cache,
                              const CancellationToken* cancel) {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
  return GuardAllocFailures([&]() -> Result<Relation> {
    Relation result = q;
    LINREC_RETURN_IF_ERROR(CloseMembers(AsJointRules(rules), db, {&result},
                                        {0}, /*naive=*/true, stats, cache,
                                        cancel));
    return result;
  });
}

Result<Relation> PowerSum(const std::vector<LinearRule>& rules,
                          const Database& db, const Relation& q,
                          int max_power, ClosureStats* stats,
                          IndexCache* cache, const CancellationToken* cancel) {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
  if (max_power < 0) {
    return Status::InvalidArgument("max_power must be >= 0");
  }
  return GuardAllocFailures([&]() -> Result<Relation> {
    ClosureTimer timer(stats);
    IndexCache local_cache;
    const std::size_t derivations0 = stats != nullptr ? stats->derivations : 0;
    Relation result = q;  // the m = 0 term
    // `current` is the fixed input address the compiled rules read; each
    // power is emitted into `next`, then the two swap.
    Relation current = q;
    Relation next(q.arity());
    JointRoundEvaluator evaluator(db, {&current});
    LINREC_RETURN_IF_ERROR(evaluator.Compile(
        AsJointRules(rules), cache != nullptr ? cache : &local_cache));
    const std::vector<RowId> begin = {0};
    std::vector<RowId> end = {0};
    const std::vector<Relation*> targets = {&next};
    for (int m = 1; m <= max_power; ++m) {
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      if (stats != nullptr) ++stats->iterations;
      next.Clear();
      end[0] = static_cast<RowId>(current.size());
      LINREC_RETURN_IF_ERROR(
          evaluator.Round(begin, end, targets, stats, cancel));
      std::swap(current, next);
      if (current.empty()) break;
      result.UnionWith(current);
    }
    if (stats != nullptr) {
      stats->result_size = result.size();
      stats->duplicates += stats->derivations - derivations0 -
                           (result.size() - q.size());
    }
    return result;
  });
}

}  // namespace linrec
