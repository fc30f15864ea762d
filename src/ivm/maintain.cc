// The IVM delta engine: Engine::Materialize / Apply / Retract.
//
// Every view is maintained as a joint component: a single-predicate view
// is the one-member component of its head predicate.
//
// Apply is the insert half: the closed view plus freshly appended tuples
// is handed to the in-place semi-naive continuation (JointSemiNaiveExtend),
// which runs Δ rounds from exactly the appended row ranges. The one-step
// consequences of new PARAMETER tuples are produced first by "delta
// rules" — the rule with one body atom pinned to the delta relation and
// the recursive atom pinned to the closed view — so a parameter insert
// seeds the continuation the same way a seed insert does. Every mutation
// on this path is an append; failure rollback is Relation::TruncateRows
// back to the recorded sizes, which restores the exact pre-call bytes (and
// cannot itself fail: same-size rehash never charges the budget).
//
// Retract is the delete half — delete-and-rederive (DRed):
//   1. Over-delete: close the set of DIRECTLY damaged tuples (deleted
//      seed tuples, plus heads of derivations consuming a deleted
//      parameter tuple) under the rules — linearity makes "derivable
//      from a suspect" the same linear closure the view itself uses, so
//      the suspect set D is computed by JointSemiNaiveClosure over the
//      suspects.
//   2. Re-derive, goal-directed: every tuple outside D is sound. A tuple
//      of D survives iff it is still a seed tuple or has a derivation
//      chain whose first D-tuple is one step from a tuple outside D.
//      Each rule therefore runs ONCE with its head pinned to D (a forced
//      first atom over D; the recursive atom reads the uncommitted view,
//      excluding D, as one fully bound dedup probe), and the resulting
//      frontier is closed semi-naively — inside D, because D is closed
//      forward. Linearity is what makes this cheap: each derivation
//      consumes exactly one recursive tuple, so each suspect needs one
//      head-bound probe for an alternative derivation, not a pass over
//      the view.
// The view and its seed change only at commit, by Relation::EraseRows:
// the removed rows leave, the rest keep their order and bytes, and the
// erase cannot fail. The only in-place mutation before commit is the
// parameter erasure, which keeps copies for restore-on-failure.

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "common/status.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "engine/engine.h"
#include "eval/apply.h"
#include "eval/fixpoint.h"
#include "eval/joint.h"
#include "ivm/view.h"
#include "storage/relation.h"

namespace linrec {

namespace {

/// A view's closure as one joint component: a joint plan's members and
/// rules, or the one-member component of a single-predicate plan's head
/// predicate. Apply and Retract maintain every view through this shape.
struct Component {
  std::vector<std::string> members;
  std::vector<JointRule> rules;
};

Component ComponentOf(const ExecutionPlan& plan) {
  if (plan.strategy == Strategy::kJointSemiNaive) {
    return {plan.members, plan.joint_rules};
  }
  return {{plan.rules.front().recursive_predicate()},
          AsJointRules(plan.rules)};
}

/// Uniform shape for the delta runs: every rule as (rule, head member,
/// recursive atom, recursive member), equality atoms statically
/// eliminated (elimination shifts atom indices, so the recursive atom is
/// re-identified afterwards).
struct DeltaRule {
  Rule rule;
  int head_member = 0;
  int recursive_atom = -1;
  int recursive_member = 0;
};

Result<std::vector<DeltaRule>> DeltaRulesOf(const Component& component) {
  const std::vector<std::string>& members = component.members;
  std::vector<DeltaRule> out;
  out.reserve(component.rules.size());
  for (const JointRule& jr : component.rules) {
    Rule rule = jr.rule;
    if (HasEqualities(rule)) {
      Result<std::optional<Rule>> e = EliminateEqualities(rule);
      if (!e.ok()) return e.status();
      if (!e->has_value()) continue;
      rule = std::move(**e);
    }
    int rec_atom = -1;
    int rec_member = -1;
    for (std::size_t i = 0; i < rule.body().size(); ++i) {
      for (std::size_t m = 0; m < members.size(); ++m) {
        if (rule.body()[i].predicate == members[m]) {
          rec_atom = static_cast<int>(i);
          rec_member = static_cast<int>(m);
        }
      }
    }
    // Exactly one member atom per body (ValidateJointRuleStructure held at
    // plan time, LinearRule::Make for a single predicate), and elimination
    // never drops a non-equality atom.
    if (rec_atom < 0) {
      return Status::Internal(StrCat("joint rule lost its member atom"));
    }
    out.push_back({std::move(rule), jr.head_member, rec_atom, rec_member});
  }
  return out;
}

}  // namespace

Result<MaterializedView> Engine::Materialize(const BoundQuery& bound,
                                             std::vector<std::string> names,
                                             ClosureStats* stats) {
  LINREC_RETURN_IF_ERROR(bound.Validate());
  const std::shared_ptr<const ExecutionPlan>& plan = bound.plan();
  if (plan->sigma_position.has_value()) {
    return Status::InvalidArgument(
        "cannot materialize a view over a selected (σ) query: the filtered "
        "relation is not closed under the rules, so it cannot be maintained "
        "incrementally");
  }
  const bool joint = plan->strategy == Strategy::kJointSemiNaive;
  const std::size_t members = joint ? plan->members.size() : 1;
  if (names.size() != members) {
    return Status::InvalidArgument(
        StrCat("Materialize needs one name per member: got ", names.size(),
               " names for ", members, " member(s)"));
  }

  Result<QueryResult> result = Execute(bound);
  if (!result.ok()) return result.status();
  if (stats != nullptr) *stats = result->stats;

  // Arity guard before any installation (GetOrCreate asserts on mismatch).
  for (std::size_t m = 0; m < members; ++m) {
    const Relation* existing = db_.Find(names[m]);
    if (existing != nullptr &&
        existing->arity() != result->relations[m].arity()) {
      return Status::InvalidArgument(
          StrCat("cannot install view member '", names[m], "' of arity ",
                 result->relations[m].arity(), " over existing relation of ",
                 "arity ", existing->arity()));
    }
  }

  MaterializedView view;
  view.plan_ = plan;
  view.names_ = std::move(names);
  if (joint) {
    view.seeds_ = *bound.seeds();
  } else {
    view.seeds_.push_back(*bound.seed());
  }
  for (std::size_t m = 0; m < members; ++m) {
    Relation& slot =
        db_.GetOrCreate(view.names_[m], result->relations[m].arity());
    slot = std::move(result->relations[m]);
  }
  return view;
}

Result<ApplyOutcome> Engine::Apply(MaterializedView& view,
                                   const DeltaInsert& delta,
                                   const CancellationToken* cancel,
                                   QueryBudget* budget) {
  if (view.plan_ == nullptr) {
    return Status::InvalidArgument("Apply on a default-constructed view");
  }
  const std::size_t members = view.member_count();

  // Resolve and validate everything before the first mutation.
  std::vector<Relation*> closed(members, nullptr);
  for (std::size_t m = 0; m < members; ++m) {
    closed[m] = db_.FindMutable(view.names_[m]);
    if (closed[m] == nullptr) {
      return Status::Internal(StrCat("view relation '", view.names_[m],
                                     "' missing from the database"));
    }
  }
  if (!delta.seed_inserts.empty() && delta.seed_inserts.size() != members) {
    return Status::InvalidArgument(
        StrCat("seed_inserts must have one relation per member: got ",
               delta.seed_inserts.size(), " for ", members, " member(s)"));
  }
  for (std::size_t m = 0; m < delta.seed_inserts.size(); ++m) {
    if (delta.seed_inserts[m].arity() != closed[m]->arity()) {
      return Status::InvalidArgument(
          StrCat("seed_inserts[", m, "] arity ", delta.seed_inserts[m].arity(),
                 " != member arity ", closed[m]->arity()));
    }
  }
  for (const auto& [pred, rel] : delta.param_inserts) {
    for (const std::string& name : view.names_) {
      if (pred == name) {
        return Status::InvalidArgument(
            StrCat("cannot insert into '", pred,
                   "': it is a derived member of the view, not an input"));
      }
    }
    const Relation* existing = db_.Find(pred);
    if (existing != nullptr && existing->arity() != rel.arity()) {
      return Status::InvalidArgument(
          StrCat("param_inserts['", pred, "'] arity ", rel.arity(),
                 " != database arity ", existing->arity()));
    }
  }
  const Component component = ComponentOf(view.plan());
  Result<std::vector<DeltaRule>> delta_rules = DeltaRulesOf(component);
  if (!delta_rules.ok()) return delta_rules.status();

  // Checkpoint: every relation this call may touch is append-only, so the
  // sizes are the rollback state.
  std::vector<std::size_t> closed_pre(members), seed_pre(members);
  for (std::size_t m = 0; m < members; ++m) {
    closed_pre[m] = closed[m]->size();
    seed_pre[m] = view.seeds_[m].size();
  }
  std::vector<std::pair<Relation*, std::size_t>> param_pre;

  ApplyOutcome outcome;
  outcome.appended.assign(members, {0, 0});

  ScopedQueryBudget budget_scope(budget != nullptr ? budget
                                                   : CurrentQueryBudget());
  Status status = GuardAllocFailures([&]() -> Status {
    // 1. Union the parameter deltas into the database. The given delta —
    // not the subset that was actually new — seeds the delta rules below:
    // a stale delta row only re-derives heads the closure already holds
    // (deduplicated), and taking it as-given is what lets a cascading
    // caller pre-insert facts and still pass them here.
    for (const auto& [pred, rel] : delta.param_inserts) {
      Relation& target = db_.GetOrCreate(pred, rel.arity());
      param_pre.emplace_back(&target, target.size());
      target.UnionWith(rel);
    }

    // 2. Delta rules: the one-step consequences of exactly the new
    // parameter tuples, with the recursive atom reading the closed view.
    // Other body atoms read the full post-update database, which covers
    // derivations combining several new tuples.
    std::vector<Relation> heads;
    heads.reserve(members);
    for (std::size_t m = 0; m < members; ++m) {
      heads.emplace_back(closed[m]->arity());
    }
    for (const DeltaRule& dr : *delta_rules) {
      for (std::size_t i = 0; i < dr.rule.body().size(); ++i) {
        if (static_cast<int>(i) == dr.recursive_atom) continue;
        auto it = delta.param_inserts.find(dr.rule.body()[i].predicate);
        if (it == delta.param_inserts.end()) continue;
        ApplyOptions options;
        options.overrides[dr.recursive_atom] = closed[dr.recursive_member];
        options.overrides[static_cast<int>(i)] = &it->second;
        options.first_atom = static_cast<int>(i);
        LINREC_RETURN_IF_ERROR(ApplyRule(dr.rule, db_, options,
                                         &heads[dr.head_member],
                                         &outcome.stats, &cache_));
      }
    }

    // 3. Append the new seed tuples (to the maintained seed too) and the
    // delta-rule heads; the appended ranges seed the continuation.
    for (std::size_t m = 0; m < members; ++m) {
      outcome.appended[m].first = static_cast<RowId>(closed[m]->size());
      if (!delta.seed_inserts.empty()) {
        view.seeds_[m].UnionWith(delta.seed_inserts[m]);
        closed[m]->UnionWith(delta.seed_inserts[m]);
      }
      closed[m]->UnionWith(heads[m]);
    }

    if (FaultFires(FaultSite::kIvmApply)) {
      return Status::Internal(
          "injected fault at ivm_apply (before the resume)");
    }

    // 4. Resume the fixpoint in place from the appended rows only. The
    // members are extended where they live, as database entries (safe: the
    // linearity invariant means no rule body reads a member through the
    // database).
    std::vector<RowId> begin(members);
    for (std::size_t m = 0; m < members; ++m) {
      begin[m] = outcome.appended[m].first;
    }
    LINREC_RETURN_IF_ERROR(JointSemiNaiveExtend(
        component.members, component.rules, db_, closed, begin,
        &outcome.stats, &cache_, cancel));

    if (FaultFires(FaultSite::kIvmApply)) {
      return Status::Internal("injected fault at ivm_apply (at commit)");
    }

    for (std::size_t m = 0; m < members; ++m) {
      outcome.appended[m].second = static_cast<RowId>(closed[m]->size());
      outcome.added += outcome.appended[m].second - outcome.appended[m].first;
    }
    return Status::OK();
  });

  if (!status.ok()) {
    // Byte-identical rollback: every mutation above was an append, so
    // truncating to the recorded sizes restores the pre-call state exactly
    // (a parameter relation this call created stays behind empty —
    // indistinguishable from absent to every reader). Truncation never
    // grows capacity, so the rollback itself cannot be denied.
    for (std::size_t m = 0; m < members; ++m) {
      closed[m]->TruncateRows(closed_pre[m]);
      view.seeds_[m].TruncateRows(seed_pre[m]);
    }
    for (auto& [rel, size] : param_pre) rel->TruncateRows(size);
    EvictTemporaryIndexes();
    return status;
  }

  ++view.applies_;
  stats_.Accumulate(outcome.stats);
  EvictTemporaryIndexes();
  return outcome;
}

Result<RetractOutcome> Engine::Retract(MaterializedView& view,
                                       const DeltaDelete& delta,
                                       const CancellationToken* cancel,
                                       QueryBudget* budget) {
  if (view.plan_ == nullptr) {
    return Status::InvalidArgument("Retract on a default-constructed view");
  }
  const std::size_t members = view.member_count();

  std::vector<Relation*> closed(members, nullptr);
  for (std::size_t m = 0; m < members; ++m) {
    closed[m] = db_.FindMutable(view.names_[m]);
    if (closed[m] == nullptr) {
      return Status::Internal(StrCat("view relation '", view.names_[m],
                                     "' missing from the database"));
    }
  }
  if (!delta.seed_deletes.empty() && delta.seed_deletes.size() != members) {
    return Status::InvalidArgument(
        StrCat("seed_deletes must have one relation per member: got ",
               delta.seed_deletes.size(), " for ", members, " member(s)"));
  }
  for (std::size_t m = 0; m < delta.seed_deletes.size(); ++m) {
    if (delta.seed_deletes[m].arity() != closed[m]->arity()) {
      return Status::InvalidArgument(
          StrCat("seed_deletes[", m, "] arity ", delta.seed_deletes[m].arity(),
                 " != member arity ", closed[m]->arity()));
    }
  }
  for (const auto& [pred, rel] : delta.param_deletes) {
    for (const std::string& name : view.names_) {
      if (pred == name) {
        return Status::InvalidArgument(
            StrCat("cannot delete from '", pred,
                   "': it is a derived member of the view, not an input"));
      }
    }
    const Relation* existing = db_.Find(pred);
    if (existing != nullptr && existing->arity() != rel.arity()) {
      return Status::InvalidArgument(
          StrCat("param_deletes['", pred, "'] arity ", rel.arity(),
                 " != database arity ", existing->arity()));
    }
  }
  const Component component = ComponentOf(view.plan());
  Result<std::vector<DeltaRule>> delta_rules = DeltaRulesOf(component);
  if (!delta_rules.ok()) return delta_rules.status();

  // Parameter relations this call erased rows from, with their pre-call
  // copies — the rollback state (the view and its seed change only at
  // commit).
  std::vector<std::pair<Relation*, Relation>> displaced;

  ScopedQueryBudget budget_scope(budget != nullptr ? budget
                                                   : CurrentQueryBudget());
  Result<RetractOutcome> result =
      GuardAllocFailures([&]() -> Result<RetractOutcome> {
        RetractOutcome out;
        for (std::size_t m = 0; m < members; ++m) {
          out.removed.emplace_back(closed[m]->arity());
        }

        // Pre-delete image (current ∪ delta) of a deleted parameter, built
        // on first use: only a rule reading two deleted atoms needs one.
        // The delta is taken as-given, so the over-deletion pass sees the
        // same derivations whether or not a cascading caller already
        // removed the tuples from the database.
        std::map<std::string, Relation> pre;
        auto pre_image = [&](const std::string& pred) -> const Relation* {
          auto it = pre.find(pred);
          if (it == pre.end()) {
            const Relation& rel = delta.param_deletes.at(pred);
            const Relation* current = db_.Find(pred);
            Relation p = current != nullptr ? *current : Relation(rel.arity());
            p.UnionWith(rel);
            it = pre.emplace(pred, std::move(p)).first;
          }
          return &it->second;
        };

        // 1. Directly damaged tuples: deleted seed tuples still in the
        // seed, plus heads of derivations consuming a deleted parameter
        // tuple (delta rules with the deleted atom pinned to the delta,
        // every other deleted-parameter atom pinned to its pre-delete
        // image, and the recursive atom reading the closed view).
        // Intersected with the closure: a never-present "deleted" tuple
        // must not seed suspects.
        std::vector<Relation> suspects0;
        suspects0.reserve(members);
        for (std::size_t m = 0; m < members; ++m) {
          suspects0.emplace_back(closed[m]->arity());
        }
        if (!delta.seed_deletes.empty()) {
          for (std::size_t m = 0; m < members; ++m) {
            for (TupleView t : delta.seed_deletes[m]) {
              if (view.seeds_[m].Contains(t)) suspects0[m].Insert(t);
            }
          }
        }
        for (const DeltaRule& dr : *delta_rules) {
          for (std::size_t i = 0; i < dr.rule.body().size(); ++i) {
            if (static_cast<int>(i) == dr.recursive_atom) continue;
            auto it = delta.param_deletes.find(dr.rule.body()[i].predicate);
            if (it == delta.param_deletes.end()) continue;
            ApplyOptions options;
            options.overrides[dr.recursive_atom] =
                closed[dr.recursive_member];
            for (std::size_t j = 0; j < dr.rule.body().size(); ++j) {
              const std::string& pj = dr.rule.body()[j].predicate;
              if (j != i && static_cast<int>(j) != dr.recursive_atom &&
                  delta.param_deletes.count(pj) > 0) {
                options.overrides[static_cast<int>(j)] = pre_image(pj);
              }
            }
            options.overrides[static_cast<int>(i)] = &it->second;
            options.first_atom = static_cast<int>(i);
            Relation scratch(closed[dr.head_member]->arity());
            LINREC_RETURN_IF_ERROR(ApplyRule(dr.rule, db_, options, &scratch,
                                             &out.stats, &cache_));
            for (TupleView t : scratch) {
              if (closed[dr.head_member]->Contains(t)) {
                suspects0[dr.head_member].Insert(t);
              }
            }
          }
        }

        // 2. Erase the deleted parameter tuples from the database in
        // place, keeping a copy of each touched relation for restore-on-
        // failure. From here on the database is post-delete.
        for (const auto& [pred, rel] : delta.param_deletes) {
          Relation* slot = db_.FindMutable(pred);
          if (slot == nullptr) continue;
          bool any = false;
          for (TupleView t : rel) {
            if (slot->Contains(t)) {
              any = true;
              break;
            }
          }
          if (!any) continue;
          displaced.emplace_back(slot, *slot);
          slot->EraseRows(rel);
        }

        // 3. The suspect set D: everything derivable from a directly
        // damaged tuple (linear rules — one recursive tuple per derivation
        // — so this is the view's own closure seeded with them). Every
        // tuple outside D keeps a derivation that avoids the deleted
        // tuples. D is closed forward over the post-delete database.
        Result<std::vector<Relation>> closed_suspects = JointSemiNaiveClosure(
            component.members, component.rules, db_, suspects0, &out.stats,
            &cache_, cancel);
        if (!closed_suspects.ok()) return closed_suspects.status();
        const std::vector<Relation> suspects = *std::move(closed_suspects);
        bool have_suspects = false;
        for (const Relation& s : suspects) have_suspects |= !s.empty();

        if (have_suspects) {
          // 4. Goal-directed re-derivation frontier: the suspects that are
          // still seed tuples, plus every suspect with a one-step
          // derivation from a tuple OUTSIDE D over the post-delete
          // database. Each rule runs once, head-pinned to D: the head is a
          // forced first atom over D, the recursive atom reads the
          // uncommitted view (a fully bound probe of its dedup table) with
          // D excluded — one probe per suspect, not a pass over the view.
          std::vector<Relation> frontier;
          frontier.reserve(members);
          for (std::size_t m = 0; m < members; ++m) {
            frontier.emplace_back(closed[m]->arity());
            for (TupleView t : suspects[m]) {
              if (view.seeds_[m].Contains(t) &&
                  (delta.seed_deletes.empty() ||
                   !delta.seed_deletes[m].Contains(t))) {
                frontier[m].Insert(t);
              }
            }
          }
          for (const DeltaRule& dr : *delta_rules) {
            const int rec = dr.recursive_atom + 1;
            ApplyOptions options;
            options.overrides[0] = &suspects[dr.head_member];
            options.first_atom = 0;
            options.overrides[rec] = closed[dr.recursive_member];
            options.excludes[rec] = &suspects[dr.recursive_member];
            LINREC_RETURN_IF_ERROR(ApplyRule(PinHead(dr.rule), db_, options,
                                             &frontier[dr.head_member],
                                             &out.stats, &cache_));
          }

          // 5. Close the frontier over the post-delete database. The
          // result R stays inside D (D is closed forward), and the new
          // view is exactly closed \ (D \ R): any tuple of the new closure
          // lying in D has a chain whose first D-tuple is in the frontier.
          Result<std::vector<Relation>> rederived = JointSemiNaiveClosure(
              component.members, component.rules, db_, frontier, &out.stats,
              &cache_, cancel);
          if (!rederived.ok()) return rederived.status();
          for (std::size_t m = 0; m < members; ++m) {
            out.rederived += (*rederived)[m].size();
            for (TupleView t : suspects[m]) {
              if (!(*rederived)[m].Contains(t)) out.removed[m].Insert(t);
            }
            out.removed_count += out.removed[m].size();
          }
        }

        if (FaultFires(FaultSite::kIvmApply)) {
          return Status::Internal(
              "injected fault at ivm_apply (before the retract commit)");
        }

        // 6. Commit: erase in place — the surviving rows keep their order
        // and bytes. EraseRows cannot fail, so the commit is atomic.
        for (std::size_t m = 0; m < members; ++m) {
          closed[m]->EraseRows(out.removed[m]);
          if (!delta.seed_deletes.empty()) {
            view.seeds_[m].EraseRows(delta.seed_deletes[m]);
          }
        }
        ++view.retracts_;
        view.rederived_ += out.rederived;
        return out;
      });

  if (!result.ok()) {
    // The only pre-commit in-place mutation was the parameter erasure:
    // restore the copies and the database is byte-identical.
    for (auto& [slot, original] : displaced) *slot = std::move(original);
    EvictTemporaryIndexes();
    return result.status();
  }
  stats_.Accumulate(result->stats);
  EvictTemporaryIndexes();
  return result;
}

}  // namespace linrec
