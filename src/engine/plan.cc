#include "engine/plan.h"

#include <sstream>

#include "datalog/printer.h"

namespace linrec {

std::vector<LinearRule> ExecutionPlan::RulesOf(
    const std::vector<int>& indices) const {
  std::vector<LinearRule> selected;
  selected.reserve(indices.size());
  for (int i : indices) selected.push_back(rules[static_cast<std::size_t>(i)]);
  return selected;
}

std::string ExecutionPlan::Explain() const {
  std::ostringstream os;
  os << "strategy: " << StrategyName(strategy);
  switch (strategy) {
    case Strategy::kNaive:
      os << " — full re-application each round (baseline)";
      break;
    case Strategy::kSemiNaive:
      os << (factorization.has_value()
                 ? " — redundancy-aware closure: bounded C-prefix, "
                   "Δ-driven fixpoint on the B-tail (Theorem 4.2)"
                 : " — Δ-driven fixpoint over the operator sum");
      break;
    case Strategy::kDecomposed:
      os << " — commuting-group product of " << groups.size()
         << " closures (Theorem 3.1)";
      break;
    case Strategy::kSeparable:
      os << " — σ pushed through the commuting split (Theorem 4.1)";
      break;
    case Strategy::kPowerSum:
      os << " — bounded power sum Σ_{m<=" << power_bound
         << "} A^m (Section 4.2)";
      break;
    case Strategy::kJointSemiNaive:
      os << " — joint Δ-driven fixpoint over the strongly connected "
            "component {";
      for (std::size_t i = 0; i < members.size(); ++i) {
        os << (i ? ", " : "") << members[i];
      }
      os << "}";
      break;
  }
  os << "\n";

  os << "rules:\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << "  [" << i << "] " << ToString(rules[i]) << "\n";
  }
  for (std::size_t i = 0; i < joint_rules.size(); ++i) {
    os << "  [" << i << "] " << ToString(joint_rules[i].rule)
       << "  (Δ source: " << members[static_cast<std::size_t>(
                                 joint_rules[i].recursive_member)]
       << ")\n";
  }

  if (strategy == Strategy::kDecomposed) {
    os << "groups (rightmost closure applied first):";
    for (const std::vector<int>& group : groups) {
      os << " {";
      for (std::size_t i = 0; i < group.size(); ++i) {
        os << (i ? "," : "") << group[i];
      }
      os << "}";
    }
    os << "\n";
  }
  if (strategy == Strategy::kSeparable) {
    auto render = [&os](const char* name, const std::vector<int>& indices) {
      os << name << " {";
      for (std::size_t i = 0; i < indices.size(); ++i) {
        os << (i ? "," : "") << indices[i];
      }
      os << "}";
    };
    render("split: outer A =", outer);
    render(", inner B =", inner);
    os << "  (plan A*(σ(B* q)))\n";
  }

  if (parallel_workers <= 1) {
    os << "parallel: serial (1 worker)\n";
  } else {
    os << "parallel: " << parallel_workers
       << " workers — batch slots run concurrently; every query and round "
          "is serial\n";
  }

  if (sigma_position.has_value()) {
    os << "selection: σ_{pos " << *sigma_position << " = <bind parameter>} — "
       << (selection_pushed ? "pushed into the strategy"
                            : "applied to the final result")
       << "\n";
  }
  if (!elided_predicates.empty()) {
    os << "elided predicates (bounded bridge, Theorems 6.3/6.4):";
    for (const std::string& pred : elided_predicates) os << " " << pred;
    os << "\n";
  }

  if (from_plan_cache) {
    os << "plan cache: hit (analysis and planning skipped)\n";
  }
  if (!justification.empty()) {
    os << "why:\n";
    for (const std::string& reason : justification) {
      os << "  - " << reason << "\n";
    }
  }
  return os.str();
}

}  // namespace linrec
