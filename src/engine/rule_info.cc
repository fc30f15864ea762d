#include "engine/rule_info.h"

#include "datalog/printer.h"

namespace linrec {

namespace {

/// Runs the budgeted semi-decisions once; a failure (budget or
/// precondition) simply leaves the optimization unavailable.
void RunBudgetedSearches(RuleInfo* info) {
  if (info->budgeted_searches_done) return;
  info->budgeted_searches_done = true;
  if (!info->analyzable) return;
  Result<RedundancyReport> redundancy =
      AnalyzeRedundancy(info->rule, kAnalysisMaxPower);
  if (redundancy.ok()) info->redundancy = std::move(redundancy).value();
  Result<ExponentSearch> bound =
      FindUniformBound(info->rule, kAnalysisMaxPower);
  if (bound.ok()) info->uniform_bound = *bound;
}

}  // namespace

Result<const RuleInfo*> AnalysisCache::Info(const LinearRule& rule,
                                            bool budgeted_searches) {
  std::string key = ToString(rule);
  auto it = rules_.find(key);
  if (it != rules_.end()) {
    if (budgeted_searches) RunBudgetedSearches(it->second.get());
    return static_cast<const RuleInfo*>(it->second.get());
  }

  auto info = std::make_unique<RuleInfo>(rule);
  info->key = key;
  info->traits = ComputeTraits(rule.rule());

  Status precondition = ValidateForAnalysis(rule);
  info->analyzable = precondition.ok();
  if (!info->analyzable) {
    info->analysis_blocked = precondition.message();
  } else {
    Result<Classification> classes = Classification::Compute(rule);
    if (classes.ok()) {
      info->classes = std::move(classes).value();
    } else {
      info->analyzable = false;
      info->analysis_blocked = classes.status().message();
    }
  }
  if (budgeted_searches) RunBudgetedSearches(info.get());

  const RuleInfo* result = info.get();
  rules_.emplace(std::move(key), std::move(info));
  return result;
}

Result<CommutativityReport> AnalysisCache::Commutes(const LinearRule& r1,
                                                    const LinearRule& r2) {
  std::string k1 = ToString(r1);
  std::string k2 = ToString(r2);
  // A∘B = B∘A is symmetric: cache the pair unordered.
  std::string key = k1 <= k2 ? k1 + "\x1f" + k2 : k2 + "\x1f" + k1;
  auto it = pairs_.find(key);
  if (it != pairs_.end()) return it->second;

  Result<CommutativityReport> report = CheckCommutativity(r1, r2);
  if (!report.ok()) return report.status();
  pairs_.emplace(std::move(key), *report);
  return *report;
}

}  // namespace linrec
