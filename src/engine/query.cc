#include "engine/query.h"

#include "common/strings.h"

namespace linrec {

Query Query::Closure(std::vector<LinearRule> rules) {
  Query query;
  query.rules_ = std::move(rules);
  return query;
}

Query Query::JointClosure(std::vector<std::string> members,
                          std::vector<JointRule> rules) {
  Query query;
  query.members_ = std::move(members);
  query.joint_rules_ = std::move(rules);
  return query;
}

Query& Query::SelectPosition(int position) {
  sigma_position_ = position;
  return *this;
}

Query& Query::Force(Strategy strategy) {
  forced_ = strategy;
  return *this;
}

Status Query::Validate() const {
  if (is_joint()) {
    // Query-level structural checks; the per-rule/member checks are the
    // shared joint boundary validation (eval/joint.h).
    if (sigma_position_.has_value() || forced_.has_value() ||
        !rules_.empty()) {
      return Status::InvalidArgument(
          "joint queries do not support SelectPosition, Force or single-"
          "predicate rules");
    }
    if (joint_rules_.empty()) {
      return Status::InvalidArgument("joint query has no rules");
    }
    return ValidateJointRuleStructure(members_, joint_rules_);
  }
  if (!joint_rules_.empty()) {
    return Status::InvalidArgument(
        "joint rules require the members of a Query::JointClosure");
  }
  if (rules_.empty()) {
    return Status::InvalidArgument("query has no rules");
  }
  const std::string& pred = rules_.front().recursive_predicate();
  const std::size_t arity = rules_.front().arity();
  for (const LinearRule& rule : rules_) {
    if (rule.recursive_predicate() != pred || rule.arity() != arity) {
      return Status::InvalidArgument(
          StrCat("rules mix head predicates: ", pred, "/", arity, " vs ",
                 rule.recursive_predicate(), "/", rule.arity()));
    }
  }
  if (sigma_position_.has_value() &&
      (*sigma_position_ < 0 ||
       *sigma_position_ >= static_cast<int>(arity))) {
    return Status::InvalidArgument(
        StrCat("selection position ", *sigma_position_,
               " out of range for arity ", arity));
  }
  return Status::OK();
}

}  // namespace linrec
