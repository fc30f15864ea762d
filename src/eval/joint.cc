#include "eval/joint.h"

#include <map>
#include <optional>
#include <string>

#include "common/memory.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "datalog/printer.h"
#include "eval/timing.h"

namespace linrec {

Status JointRoundEvaluator::Compile(const std::vector<JointRule>& rules,
                                    IndexCache* cache) {
  cache_ = cache;
  for (const JointRule& jr : rules) {
    const Rule* rule = &jr.rule;
    int recursive_atom = jr.recursive_atom;
    std::optional<Rule> eliminated;
    if (HasEqualities(jr.rule)) {
      // EliminateEqualities keeps the relative order of the other atoms,
      // so the recursive atom moves down by the equalities before it.
      for (int i = 0; i < jr.recursive_atom; ++i) {
        if (jr.rule.body()[static_cast<std::size_t>(i)].predicate ==
            kEqualityPredicate) {
          --recursive_atom;
        }
      }
      Result<std::optional<Rule>> e = EliminateEqualities(jr.rule);
      if (!e.ok()) return e.status();
      if (!e->has_value()) continue;  // unsatisfiable: derives nothing
      eliminated = std::move(**e);
      rule = &*eliminated;
    }
    const std::size_t member = static_cast<std::size_t>(jr.recursive_member);
    ApplyOptions options;
    options.overrides[recursive_atom] = members_[member];
    options.first_atom = recursive_atom;
    Result<CompiledRule> compiled = CompileRule(*rule, *db_, options);
    if (!compiled.ok()) return compiled.status();
    by_member_[member].push_back(static_cast<int>(compiled_.size()));
    heads_.push_back(jr.head_member);
    compiled_.push_back(std::move(compiled).value());
  }
  return Status::OK();
}

Status JointRoundEvaluator::Round(const std::vector<RowId>& begin,
                                  const std::vector<RowId>& end,
                                  const std::vector<Relation*>& targets,
                                  ClosureStats* stats,
                                  const CancellationToken* cancel) {
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (begin[m] >= end[m]) continue;
    PartitionView delta = members_[m]->View(begin[m], end[m]);
    for (int k : by_member_[m]) {
      const std::size_t rule = static_cast<std::size_t>(k);
      LINREC_RETURN_IF_ERROR(compiled_[rule].RunPartition(
          delta, targets[static_cast<std::size_t>(heads_[rule])], stats,
          cache_, cancel));
    }
  }
  return Status::OK();
}

Status JointRoundEvaluator::Close(std::vector<RowId> begin, bool naive,
                                  ClosureStats* stats,
                                  const CancellationToken* cancel) {
  std::vector<RowId> end(members_.size());
  for (;;) {
    // A Δ on a member no rule reads cannot drive further derivations.
    bool fed = false;
    for (std::size_t m = 0; m < members_.size(); ++m) {
      end[m] = static_cast<RowId>(members_[m]->size());
      fed |= end[m] > begin[m] && !by_member_[m].empty();
    }
    if (!fed) return Status::OK();
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    if (stats != nullptr) ++stats->iterations;
    LINREC_RETURN_IF_ERROR(Round(begin, end, members_, stats, cancel));
    if (!naive) {
      begin = end;  // next Δ: the rows this round appended
    } else {
      bool grew = false;
      for (std::size_t m = 0; m < members_.size(); ++m) {
        grew |= members_[m]->size() > end[m];
      }
      if (!grew) return Status::OK();
    }
  }
}

namespace {

std::size_t TotalSize(const std::vector<Relation*>& rels) {
  std::size_t total = 0;
  for (const Relation* r : rels) total += r->size();
  return total;
}

}  // namespace

Status CloseMembers(const std::vector<JointRule>& rules, const Database& db,
                    const std::vector<Relation*>& members,
                    std::vector<RowId> begin, bool naive, ClosureStats* stats,
                    IndexCache* cache, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Status {
    ClosureTimer timer(stats);
    IndexCache local_cache;
    JointRoundEvaluator evaluator(db, members);
    LINREC_RETURN_IF_ERROR(
        evaluator.Compile(rules, cache != nullptr ? cache : &local_cache));
    // Duplicates are the derivations made since entry minus the rows they
    // added, so a caller threading one ClosureStats through several calls
    // gets the sum of per-call counts.
    const std::size_t derivations0 = stats != nullptr ? stats->derivations : 0;
    const std::size_t seeded = TotalSize(members);
    LINREC_RETURN_IF_ERROR(
        evaluator.Close(std::move(begin), naive, stats, cancel));
    if (stats != nullptr) {
      const std::size_t size = TotalSize(members);
      stats->result_size = size;
      stats->duplicates += stats->derivations - derivations0 - (size - seeded);
    }
    return Status::OK();
  });
}

namespace {

/// Shared body of ValidateJointRules / ValidateJointRuleStructure over
/// the seed arities: a null `seeds` skips the seed-count and seed-arity
/// checks (prepared queries bind seeds per execution; the closure entry
/// points re-validate fully).
Status ValidateJointImpl(const std::vector<std::string>& members,
                         const std::vector<JointRule>& rules,
                         const std::vector<std::size_t>* seeds) {
  if (members.empty()) {
    return Status::InvalidArgument(
        "joint closure requires at least one member");
  }
  std::map<std::string, int> index_of;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == kEqualityPredicate) {
      return Status::InvalidArgument(
          StrCat("'", kEqualityPredicate,
                 "' is reserved and cannot be a joint member"));
    }
    if (!index_of.emplace(members[i], static_cast<int>(i)).second) {
      return Status::InvalidArgument(
          StrCat("joint member '", members[i], "' is not distinct"));
    }
  }
  if (seeds != nullptr && seeds->size() != members.size()) {
    return Status::InvalidArgument(StrCat("joint closure has ",
                                          seeds->size(), " seeds for ",
                                          members.size(), " members"));
  }
  const int member_count = static_cast<int>(members.size());
  for (const JointRule& jr : rules) {
    LINREC_RETURN_IF_ERROR(jr.rule.Validate());
    if (jr.head_member < 0 || jr.head_member >= member_count ||
        jr.recursive_member < 0 || jr.recursive_member >= member_count) {
      return Status::InvalidArgument(
          StrCat("joint rule member indices (", jr.head_member, ", ",
                 jr.recursive_member, ") out of range for ", member_count,
                 " members"));
    }
    const std::string& head_name =
        members[static_cast<std::size_t>(jr.head_member)];
    if (jr.rule.head().predicate != head_name) {
      return Status::InvalidArgument(
          StrCat("joint rule head '", jr.rule.head().predicate,
                 "' does not match member '", head_name, "'"));
    }
    if (jr.recursive_atom < 0 ||
        jr.recursive_atom >= static_cast<int>(jr.rule.body().size())) {
      return Status::InvalidArgument(
          StrCat("joint rule recursive atom index ", jr.recursive_atom,
                 " out of range for a body of ", jr.rule.body().size(),
                 " atoms"));
    }
    const Atom& rec =
        jr.rule.body()[static_cast<std::size_t>(jr.recursive_atom)];
    if (rec.predicate !=
        members[static_cast<std::size_t>(jr.recursive_member)]) {
      return Status::InvalidArgument(
          StrCat("joint rule recursive atom '", rec.predicate,
                 "' does not match member '",
                 members[static_cast<std::size_t>(jr.recursive_member)],
                 "'"));
    }
    // The linearity invariant: exactly one body atom may read a member.
    // The joint fixpoint overrides only the recursive atom, so a second
    // member atom would resolve against `db` — where members are absent,
    // i.e. as an empty relation — and silently compute a wrong fixpoint.
    int member_atoms = 0;
    for (const Atom& atom : jr.rule.body()) {
      if (index_of.count(atom.predicate) > 0) ++member_atoms;
    }
    if (member_atoms != 1) {
      return Status::InvalidArgument(
          StrCat("joint rule must read exactly one member atom, found ",
                 member_atoms, ": ", ToString(jr.rule)));
    }
    if (seeds != nullptr) {
      const std::size_t head_arity =
          (*seeds)[static_cast<std::size_t>(jr.head_member)];
      if (jr.rule.head().arity() != head_arity) {
        return Status::InvalidArgument(
            StrCat("joint rule head arity ", jr.rule.head().arity(),
                   " does not match seed arity ", head_arity,
                   " of member '", head_name, "'"));
      }
      const std::size_t rec_arity =
          (*seeds)[static_cast<std::size_t>(jr.recursive_member)];
      if (rec.arity() != rec_arity) {
        return Status::InvalidArgument(
            StrCat("joint rule recursive atom arity ", rec.arity(),
                   " does not match seed arity ", rec_arity,
                   " of member '", rec.predicate, "'"));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateJointRules(const std::vector<std::string>& members,
                          const std::vector<JointRule>& rules,
                          const std::vector<Relation>& seeds) {
  std::vector<std::size_t> arities;
  for (const Relation& seed : seeds) arities.push_back(seed.arity());
  return ValidateJointImpl(members, rules, &arities);
}

Status ValidateJointRuleStructure(const std::vector<std::string>& members,
                                  const std::vector<JointRule>& rules) {
  return ValidateJointImpl(members, rules, nullptr);
}

namespace {

/// Shared body of the two copying joint closures: validates, copies the
/// seeds, and closes the copies in place from row 0.
Result<std::vector<Relation>> CloseSeedCopies(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, bool naive, ClosureStats* stats,
    IndexCache* cache, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<std::vector<Relation>> {
    LINREC_RETURN_IF_ERROR(ValidateJointRules(members, rules, seeds));
    std::vector<Relation> rels = seeds;
    std::vector<Relation*> borrowed;
    for (Relation& rel : rels) borrowed.push_back(&rel);
    LINREC_RETURN_IF_ERROR(CloseMembers(rules, db, borrowed,
                                        std::vector<RowId>(rels.size(), 0),
                                        naive, stats, cache, cancel));
    return rels;
  });
}

}  // namespace

Result<std::vector<Relation>> JointSemiNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, const CancellationToken* cancel) {
  return CloseSeedCopies(members, rules, db, seeds, /*naive=*/false, stats,
                         cache, cancel);
}

Result<std::vector<Relation>> JointNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, const CancellationToken* cancel) {
  return CloseSeedCopies(members, rules, db, seeds, /*naive=*/true, stats,
                         cache, cancel);
}

Status JointSemiNaiveExtend(const std::vector<std::string>& members,
                            const std::vector<JointRule>& rules,
                            const Database& db,
                            const std::vector<Relation*>& rels,
                            const std::vector<RowId>& delta_begin,
                            ClosureStats* stats, IndexCache* cache,
                            const CancellationToken* cancel) {
  std::vector<std::size_t> arities;
  for (const Relation* rel : rels) arities.push_back(rel->arity());
  LINREC_RETURN_IF_ERROR(ValidateJointImpl(members, rules, &arities));
  if (delta_begin.size() != rels.size()) {
    return Status::InvalidArgument(
        StrCat("joint extend has ", delta_begin.size(),
               " delta offsets for ", rels.size(), " members"));
  }
  for (std::size_t m = 0; m < rels.size(); ++m) {
    if (delta_begin[m] > rels[m]->size()) {
      return Status::InvalidArgument(
          StrCat("delta_begin ", delta_begin[m], " past member ", m,
                 " size ", rels[m]->size()));
    }
  }
  return CloseMembers(rules, db, rels, delta_begin, /*naive=*/false, stats,
                      cache, cancel);
}

}  // namespace linrec
