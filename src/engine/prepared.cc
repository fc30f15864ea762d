#include "engine/prepared.h"

#include "common/strings.h"

namespace linrec {

BoundQuery PreparedQuery::Bind(Value value) const {
  BoundQuery bound;
  bound.plan_ = plan_;
  if (!plan_->sigma_position.has_value()) {
    bound.error_ = Status::InvalidArgument(
        "Bind(value): the prepared query has no σ parameter (prepare with "
        "SelectPosition to declare one)");
    return bound;
  }
  bound.selection_ = Selection{*plan_->sigma_position, value};
  return bound;
}

BoundQuery PreparedQuery::Bind() const {
  BoundQuery bound;
  bound.plan_ = plan_;
  if (plan_->sigma_position.has_value()) {
    bound.error_ = Status::InvalidArgument(
        "Bind(): the prepared query has a σ parameter; bind its value with "
        "Bind(value)");
  }
  return bound;
}

BoundQuery& BoundQuery::BindSeed(Relation seed) {
  return BindSeed(std::make_shared<const Relation>(std::move(seed)));
}

BoundQuery& BoundQuery::BindSeed(std::shared_ptr<const Relation> seed) {
  if (plan_ != nullptr && plan_->strategy == Strategy::kJointSemiNaive &&
      error_.ok()) {
    error_ = Status::InvalidArgument(
        "BindSeed on a joint prepared query; use BindSeeds (one relation "
        "per member)");
    return *this;
  }
  seed_ = std::move(seed);
  return *this;
}

BoundQuery& BoundQuery::BindSeeds(std::vector<Relation> seeds) {
  return BindSeeds(
      std::make_shared<const std::vector<Relation>>(std::move(seeds)));
}

BoundQuery& BoundQuery::BindSeeds(
    std::shared_ptr<const std::vector<Relation>> seeds) {
  if (plan_ != nullptr && plan_->strategy != Strategy::kJointSemiNaive &&
      error_.ok()) {
    error_ = Status::InvalidArgument(
        "BindSeeds on a single-predicate prepared query; use BindSeed");
    return *this;
  }
  seeds_ = std::move(seeds);
  return *this;
}

Status BoundQuery::Validate() const {
  if (plan_ == nullptr) {
    return Status::InvalidArgument(
        "bound query has no plan (default-constructed?)");
  }
  if (!error_.ok()) return error_;
  if (plan_->strategy == Strategy::kJointSemiNaive) {
    if (seeds_ == nullptr) {
      return Status::InvalidArgument(
          "joint bound query has no seed relations (BindSeeds)");
    }
    if (seeds_->size() != plan_->members.size()) {
      return Status::InvalidArgument(
          StrCat("joint bound query has ", seeds_->size(), " seeds for ",
                 plan_->members.size(), " members"));
    }
    return Status::OK();
  }
  if (seed_ == nullptr) {
    return Status::InvalidArgument(
        "bound query has no seed relation (BindSeed)");
  }
  const std::size_t arity = plan_->rules.front().arity();
  if (seed_->arity() != arity) {
    return Status::InvalidArgument(StrCat("seed arity ", seed_->arity(),
                                          " does not match rule arity ",
                                          arity));
  }
  return Status::OK();
}

}  // namespace linrec
