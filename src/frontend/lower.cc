#include "frontend/lower.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/scc.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "datalog/printer.h"
#include "eval/apply.h"

namespace linrec {
namespace {

/// Rules grouped per derived predicate. Classification (base vs recursive)
/// happens per strongly connected component, because a rule of a mutually
/// recursive predicate is recursive exactly when its body reads a member of
/// the same component — a property of the condensation, not the rule.
struct PredicateRules {
  std::size_t arity = 0;
  std::vector<Rule> rules;
};

/// `rule` with its equality atoms eliminated; nullopt when they are
/// unsatisfiable (the rule derives nothing).
Result<std::optional<Rule>> WithoutEqualities(const Rule& rule) {
  if (!HasEqualities(rule)) return std::optional<Rule>(rule);
  return EliminateEqualities(rule);
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Groups `rules` per head predicate and records the arity of every
/// predicate they read or derive into `arity_of`. A predicate used at two
/// arities anywhere in the rules, heads and bodies, is rejected naming both.
Result<std::map<std::string, PredicateRules>> GroupRules(
    const std::vector<Rule>& rules,
    std::map<std::string, std::size_t>* arity_of) {
  auto record = [arity_of](const Atom& atom) -> Status {
    auto [it, inserted] = arity_of->emplace(atom.predicate, atom.arity());
    if (!inserted && it->second != atom.arity()) {
      return Status::InvalidArgument(
          StrCat("predicate '", atom.predicate, "' used with arities ",
                 it->second, " and ", atom.arity()));
    }
    return Status::OK();
  };
  std::map<std::string, PredicateRules> grouped;
  for (const Rule& rule : rules) {
    LINREC_RETURN_IF_ERROR(record(rule.head()));
    for (const Atom& atom : rule.body()) LINREC_RETURN_IF_ERROR(record(atom));
    PredicateRules& group = grouped[rule.head().predicate];
    group.arity = rule.head().arity();
    group.rules.push_back(rule);
  }
  return grouped;
}

/// Compiles one singleton component into a CompiledUnit: base rules kept
/// for seeding, linear recursive rules prepared (seedless) through the
/// shared planner.
Status CompileSingleton(const std::string& pred, const PredicateRules& group,
                        Planner& planner, CompiledProgram* out) {
  CompiledUnit unit;
  unit.members = {pred};
  unit.arities = {group.arity};
  unit.base_rules.resize(1);
  for (const Rule& rule : group.rules) {
    int occurrences = 0;
    for (const Atom& atom : rule.body()) {
      if (atom.predicate == pred) ++occurrences;
    }
    if (occurrences == 0) {
      unit.base_rules[0].push_back(rule);
      continue;
    }
    Result<LinearRule> lr = LinearRule::Make(rule);
    if (!lr.ok()) {
      return Status::InvalidArgument(StrCat("rule is not linear: ",
                                            ToString(rule), " (",
                                            lr.status().message(), ")"));
    }
    unit.linear.push_back(std::move(lr).value());
  }
  if (!unit.linear.empty()) {
    Result<PreparedQuery> prepared =
        planner.Prepare(Query::Closure(unit.linear));
    if (!prepared.ok()) return prepared.status();
    out->plan_explanations.push_back(
        StrCat(pred, ":\n", prepared->plan().Explain()));
    unit.closure = std::move(prepared).value();
  }
  out->unit_of[pred] = out->units.size();
  out->member_of[pred] = 0;
  out->units.push_back(std::move(unit));
  return Status::OK();
}

/// Compiles one multi-member component: per member, rules reading no
/// component predicate are base; rules reading exactly one become
/// JointRules; more is non-linear recursion through the component.
Status CompileComponent(const std::vector<std::string>& members,
                        const std::map<std::string, PredicateRules>& rules,
                        Planner& planner, CompiledProgram* out) {
  const std::set<std::string> member_set(members.begin(), members.end());
  std::map<std::string, int> member_index;
  for (std::size_t i = 0; i < members.size(); ++i) {
    member_index[members[i]] = static_cast<int>(i);
  }

  CompiledUnit unit;
  unit.joint = true;
  unit.members = members;
  unit.base_rules.resize(members.size());
  std::vector<JointRule> joint_rules;
  for (std::size_t mi = 0; mi < members.size(); ++mi) {
    const std::string& pred = members[mi];
    const PredicateRules& group = rules.at(pred);
    unit.arities.push_back(group.arity);
    for (const Rule& rule : group.rules) {
      int member_atoms = 0;
      for (const Atom& atom : rule.body()) {
        if (member_set.count(atom.predicate) > 0) ++member_atoms;
      }
      if (member_atoms == 0) {
        unit.base_rules[mi].push_back(rule);
        continue;
      }
      if (member_atoms >= 2) {
        return Status::InvalidArgument(StrCat(
            "recursion through strongly connected component {",
            JoinNames(members), "} is non-linear: rule ", ToString(rule),
            " reads ", member_atoms,
            " component predicates (at most one recursive atom is "
            "supported)"));
      }
      JointRule jr;
      jr.rule = rule;
      jr.head_member = static_cast<int>(mi);
      for (std::size_t a = 0; a < rule.body().size(); ++a) {
        auto it = member_index.find(rule.body()[a].predicate);
        if (it != member_index.end()) {
          jr.recursive_atom = static_cast<int>(a);
          jr.recursive_member = it->second;
          break;
        }
      }
      joint_rules.push_back(std::move(jr));
    }
  }
  if (!joint_rules.empty()) {
    Result<PreparedQuery> prepared =
        planner.Prepare(Query::JointClosure(members, std::move(joint_rules)));
    if (!prepared.ok()) return prepared.status();
    out->plan_explanations.push_back(
        StrCat(JoinNames(members), ":\n", prepared->plan().Explain()));
    unit.closure = std::move(prepared).value();
  }
  for (std::size_t mi = 0; mi < members.size(); ++mi) {
    out->unit_of[members[mi]] = out->units.size();
    out->member_of[members[mi]] = mi;
  }
  out->units.push_back(std::move(unit));
  return Status::OK();
}

/// True if `goal` is a σ selection — exactly one constant and no repeated
/// variable — and fills its position and value. A repeated variable would
/// need refiltering after σ.
bool SelectionGoal(const Atom& goal, int* position, Value* value) {
  int constants = 0;
  std::set<VarId> seen;
  for (std::size_t i = 0; i < goal.terms.size(); ++i) {
    const Term& term = goal.terms[i];
    if (term.is_const()) {
      ++constants;
      *position = static_cast<int>(i);
      *value = term.constant();
    } else if (!seen.insert(term.var()).second) {
      return false;
    }
  }
  return constants == 1;
}

}  // namespace

std::string ProgramDigest(const std::vector<Rule>& rules) {
  std::vector<std::string> texts;
  texts.reserve(rules.size());
  for (const Rule& rule : rules) texts.push_back(ToString(rule));
  std::sort(texts.begin(), texts.end());
  std::string digest;
  for (const std::string& text : texts) {
    digest += text;
    digest += '\n';
  }
  return digest;
}

Result<CompiledProgram> CompileProgram(const std::vector<Rule>& rules,
                                       Planner& planner) {
  CompiledProgram out;
  out.digest = ProgramDigest(rules);
  Result<std::map<std::string, PredicateRules>> grouped =
      GroupRules(rules, &out.arity_of);
  if (!grouped.ok()) return grouped.status();

  // Condense the predicate dependency graph (edge u → v: some rule of u
  // reads derived predicate v). std::map iteration makes predicate ids —
  // and therefore the condensation — deterministic.
  std::vector<std::string> names;
  names.reserve(grouped->size());
  std::map<std::string, int> id_of;
  for (const auto& [pred, group] : *grouped) {
    id_of[pred] = static_cast<int>(names.size());
    names.push_back(pred);
  }
  std::vector<std::vector<int>> adjacency(names.size());
  for (const auto& [pred, group] : *grouped) {
    std::set<int> deps;
    for (const Rule& rule : group.rules) {
      for (const Atom& atom : rule.body()) {
        auto it = id_of.find(atom.predicate);
        if (it != id_of.end()) deps.insert(it->second);
      }
    }
    adjacency[static_cast<std::size_t>(id_of[pred])]
        .assign(deps.begin(), deps.end());
  }

  for (const std::vector<int>& component :
       StronglyConnectedComponents(adjacency)) {
    if (component.size() == 1) {
      const std::string& pred =
          names[static_cast<std::size_t>(component.front())];
      LINREC_RETURN_IF_ERROR(
          CompileSingleton(pred, grouped->at(pred), planner, &out));
    } else {
      std::vector<std::string> members;
      members.reserve(component.size());
      for (int id : component) {
        members.push_back(names[static_cast<std::size_t>(id)]);
      }
      LINREC_RETURN_IF_ERROR(
          CompileComponent(members, *grouped, planner, &out));
    }
  }
  return out;
}

ProgramInstance::ProgramInstance(EngineOptions options)
    : options_(options) {
  RebuildEngine();
}

void ProgramInstance::RebuildEngine() {
  Database db = facts_;  // deep copy: materialization overwrites in place
  engine_ = std::make_unique<Engine>(std::move(db), options_);
  materialized_ = 0;
  views_.clear();  // the views named relations of the dropped engine
}

void ProgramInstance::SetProgram(
    std::shared_ptr<const CompiledProgram> program) {
  program_ = std::move(program);
  RebuildEngine();
}

Status ProgramInstance::ValidateFact(const Atom& fact,
                                     const CompiledProgram* program) const {
  for (const Term& term : fact.terms) {
    if (!term.is_const()) {
      return Status::InvalidArgument(
          StrCat("fact for '", fact.predicate, "' is not ground"));
    }
  }
  if (program != nullptr) {
    if (program->unit_of.count(fact.predicate) > 0) {
      return Status::InvalidArgument(StrCat(
          "predicate '", fact.predicate,
          "' is derived by the loaded program; facts may only name base "
          "relations"));
    }
    auto used = program->arity_of.find(fact.predicate);
    if (used != program->arity_of.end() && used->second != fact.arity()) {
      return Status::InvalidArgument(
          StrCat("fact for '", fact.predicate, "' has arity ", fact.arity(),
                 ", the loaded program uses ", used->second));
    }
  }
  if (const Relation* existing = facts_.Find(fact.predicate)) {
    if (existing->arity() != fact.arity()) {
      return Status::InvalidArgument(
          StrCat("facts for '", fact.predicate, "' have arity ",
                 existing->arity(), ", got ", fact.arity()));
    }
  }
  return Status::OK();
}

Status ProgramInstance::ValidateLoad(const CompiledProgram* program,
                                     const std::vector<Atom>& facts) const {
  if (program != nullptr) {
    for (const auto& [pred, arity] : program->arity_of) {
      const Relation* existing = facts_.Find(pred);
      if (existing != nullptr && existing->arity() != arity) {
        return Status::InvalidArgument(
            StrCat("facts for '", pred, "' have arity ", existing->arity(),
                   ", the loaded program uses ", arity));
      }
    }
    // Facts the session already holds for a derived predicate would seed
    // its closure; AddFact rejects them once the program is loaded, so the
    // LOAD must too. A relation DELETE has emptied holds none.
    for (const auto& [pred, unit] : program->unit_of) {
      const Relation* existing = facts_.Find(pred);
      if (existing != nullptr && !existing->empty()) {
        return Status::InvalidArgument(
            StrCat("predicate '", pred,
                   "' is derived by the loaded program; the session holds "
                   "facts for it"));
      }
    }
  }
  std::map<std::string, std::size_t> arity_in_load;
  for (const Atom& fact : facts) {
    LINREC_RETURN_IF_ERROR(ValidateFact(fact, program));
    auto [it, inserted] =
        arity_in_load.try_emplace(fact.predicate, fact.arity());
    if (!inserted && it->second != fact.arity()) {
      return Status::InvalidArgument(
          StrCat("facts for '", fact.predicate, "' have arity ", it->second,
                 ", got ", fact.arity()));
    }
  }
  return Status::OK();
}

Status ProgramInstance::Load(std::shared_ptr<const CompiledProgram> program,
                             const std::vector<Atom>& facts) {
  LINREC_RETURN_IF_ERROR(ValidateLoad(
      program != nullptr ? program.get() : program_.get(), facts));
  if (program == nullptr && facts.empty()) return Status::OK();
  if (program != nullptr) program_ = std::move(program);
  // Insertions into a set commute, so every fact lands first and the
  // engine is rebuilt once, after the last, instead of after each.
  std::vector<Value> row;
  for (const Atom& fact : facts) {
    row.clear();
    for (const Term& term : fact.terms) row.push_back(term.constant());
    facts_.GetOrCreate(fact.predicate, fact.arity()).InsertRow(row.data());
  }
  // The fixpoints may grow: drop every materialized derived predicate (and
  // the session engine's index cache entries over them) by rebuilding.
  RebuildEngine();
  return Status::OK();
}

Status ProgramInstance::AddFact(const Atom& fact) {
  // Nothing materialized: a rebuild would drop nothing, so append.
  if (materialized_ == 0) return InsertFact(fact).status();
  return Load(nullptr, {fact});
}

Result<std::vector<Relation>> ProgramInstance::SeedDeltas(
    const CompiledUnit& unit, const std::map<std::string, Relation>& delta,
    const CancellationToken* cancel,
    const std::map<std::string, Relation>* images) {
  std::vector<Relation> out;
  out.reserve(unit.members.size());
  for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
    out.emplace_back(unit.arities[mi]);
  }
  ClosureStats stats;
  for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
    for (const Rule& base : unit.base_rules[mi]) {
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      Result<std::optional<Rule>> eliminated = WithoutEqualities(base);
      if (!eliminated.ok()) return eliminated.status();
      if (!eliminated->has_value()) continue;
      const Rule& effective = **eliminated;
      // One run per body atom reading an updated predicate: that atom is
      // pinned to the delta, the rest read the full post-update database
      // (covering derivations that combine several new tuples; duplicate
      // derivations deduplicate on insert).
      for (std::size_t i = 0; i < effective.body().size(); ++i) {
        auto it = delta.find(effective.body()[i].predicate);
        if (it == delta.end()) continue;
        ApplyOptions options;
        if (images != nullptr) {
          for (std::size_t j = 0; j < effective.body().size(); ++j) {
            auto image = images->find(effective.body()[j].predicate);
            if (j != i && image != images->end()) {
              options.overrides[static_cast<int>(j)] = &image->second;
            }
          }
        }
        options.overrides[static_cast<int>(i)] = &it->second;
        options.first_atom = static_cast<int>(i);
        LINREC_RETURN_IF_ERROR(ApplyRule(effective, engine_->db(), options,
                                         &out[mi], &stats,
                                         &engine_->index_cache()));
      }
    }
  }
  totals_.Accumulate(stats);
  return out;
}

Result<std::vector<Relation>> ProgramInstance::SeedLosses(
    const CompiledUnit& unit, const std::map<std::string, Relation>& deleted,
    const std::vector<const Relation*>& seeds,
    const CancellationToken* cancel) {
  // A derivation consuming two deleted tuples is found with one atom
  // pinned to the deletions and the other reading the pre-delete image
  // (post-delete database ∪ deletions), built only for such rules.
  std::map<std::string, Relation> images;
  for (const std::vector<Rule>& rules : unit.base_rules) {
    for (const Rule& rule : rules) {
      int deleted_atoms = 0;
      for (const Atom& atom : rule.body()) {
        deleted_atoms += static_cast<int>(deleted.count(atom.predicate));
      }
      if (deleted_atoms < 2) continue;
      for (const Atom& atom : rule.body()) {
        auto d = deleted.find(atom.predicate);
        if (d == deleted.end() || images.count(atom.predicate) > 0) continue;
        const Relation* current = engine_->db().Find(atom.predicate);
        Relation image = current != nullptr ? *current
                                            : Relation(d->second.arity());
        image.UnionWith(d->second);
        images.emplace(atom.predicate, std::move(image));
      }
    }
  }
  Result<std::vector<Relation>> candidates =
      SeedDeltas(unit, deleted, cancel, &images);
  if (!candidates.ok()) return candidates.status();

  std::vector<Relation> lost;
  lost.reserve(unit.members.size());
  ClosureStats stats;
  for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
    Relation suspects(unit.arities[mi]);
    if (seeds[mi] != nullptr) {
      for (TupleView t : (*candidates)[mi]) {
        if (seeds[mi]->Contains(t)) suspects.Insert(t);
      }
    }
    if (!suspects.empty()) {
      Relation kept(unit.arities[mi]);
      const Relation* facts = facts_.Find(unit.members[mi]);
      if (facts != nullptr && facts->arity() == unit.arities[mi]) {
        for (TupleView t : suspects) {
          if (facts->Contains(t)) kept.Insert(t);
        }
      }
      for (const Rule& base : unit.base_rules[mi]) {
        LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
        Result<std::optional<Rule>> eliminated = WithoutEqualities(base);
        if (!eliminated.ok()) return eliminated.status();
        if (!eliminated->has_value()) continue;
        ApplyOptions options;
        options.overrides[0] = &suspects;
        options.first_atom = 0;
        LINREC_RETURN_IF_ERROR(ApplyRule(PinHead(**eliminated), engine_->db(),
                                         options, &kept, &stats,
                                         &engine_->index_cache()));
      }
      suspects.EraseRows(kept);
    }
    lost.push_back(std::move(suspects));
  }
  totals_.Accumulate(stats);
  return lost;
}

Result<FactUpdateOutcome> ProgramInstance::InsertFact(
    const Atom& fact, const CancellationToken* cancel, QueryBudget* budget) {
  LINREC_RETURN_IF_ERROR(ValidateFact(fact, program_.get()));
  FactUpdateOutcome out;
  std::vector<Value> row;
  row.reserve(fact.arity());
  for (const Term& term : fact.terms) row.push_back(term.constant());

  Relation& frel = facts_.GetOrCreate(fact.predicate, fact.arity());
  const std::size_t facts_pre = frel.size();

  // Every mutation on this path is an append (fact relations, database
  // relations, view closures, view seeds), so recorded sizes are the whole
  // rollback state; a failure anywhere truncates back to pre-call bytes.
  struct Checkpoint {
    Relation* rel;
    std::size_t size;
  };
  std::vector<Checkpoint> checkpoints;
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>>
      seed_checkpoints;

  ScopedQueryBudget budget_scope(budget);
  Status status = GuardAllocFailures([&]() -> Status {
    if (!frel.InsertRow(row.data())) return Status::OK();  // already present
    out.applied = true;
    Relation& dbrel = engine_->db().GetOrCreate(fact.predicate, fact.arity());
    checkpoints.push_back({&dbrel, dbrel.size()});
    dbrel.InsertRow(row.data());
    if (program_ == nullptr || materialized_ == 0) return Status::OK();

    // The running delta: updated predicate → its new tuples. Starts with
    // the fact; each maintained unit's appended rows join it under the
    // member names, cascading into downstream units (dependency order).
    std::map<std::string, Relation> delta;
    {
      Relation d(fact.arity());
      d.InsertRow(row.data());
      delta.emplace(fact.predicate, std::move(d));
    }
    for (std::size_t ui = 0; ui < materialized_; ++ui) {
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      const CompiledUnit& unit = program_->units[ui];
      Result<std::vector<Relation>> seed_new = SeedDeltas(unit, delta, cancel);
      if (!seed_new.ok()) return seed_new.status();

      if (!unit.closure.has_value()) {
        // Fixpoint = seed: maintain the database entries directly.
        for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
          if ((*seed_new)[mi].empty()) continue;
          Relation* rel = engine_->db().FindMutable(unit.members[mi]);
          if (rel == nullptr) continue;
          checkpoints.push_back({rel, rel->size()});
          const RowId begin = static_cast<RowId>(rel->size());
          rel->UnionWith((*seed_new)[mi]);
          if (rel->size() == static_cast<std::size_t>(begin)) continue;
          Relation& d =
              delta.try_emplace(unit.members[mi], Relation(rel->arity()))
                  .first->second;
          for (RowId r = begin; r < static_cast<RowId>(rel->size()); ++r) {
            d.InsertRow(rel->RowData(r));
          }
        }
        continue;
      }

      MaterializedView& view = *views_[ui];
      // Checkpoint before Apply: Apply rolls ITSELF back on failure, but a
      // failure in a LATER unit must unwind this one's successful Apply
      // too.
      for (const std::string& name : view.names()) {
        if (Relation* rel = engine_->db().FindMutable(name)) {
          checkpoints.push_back({rel, rel->size()});
        }
      }
      seed_checkpoints.emplace_back(ui, view.SeedSizes());

      DeltaInsert di;
      bool any_seed = false;
      for (const Relation& s : *seed_new) any_seed |= !s.empty();
      if (any_seed) di.seed_inserts = std::move(*seed_new);
      di.param_inserts = delta;
      Result<ApplyOutcome> applied = engine_->Apply(view, di, cancel, budget);
      if (!applied.ok()) return applied.status();
      totals_.Accumulate(applied->stats);
      if (applied->added > 0) ++out.views_applied;
      out.tuples_added += applied->added;
      for (std::size_t mi = 0; mi < view.member_count(); ++mi) {
        const auto [b, e] = applied->appended[mi];
        if (e == b) continue;
        const Relation* rel = engine_->db().Find(view.names()[mi]);
        Relation& d = delta.try_emplace(view.names()[mi], Relation(rel->arity()))
                          .first->second;
        for (RowId r = b; r < e; ++r) d.InsertRow(rel->RowData(r));
      }
    }
    return Status::OK();
  });

  if (!status.ok()) {
    // Reverse touch order so a relation checkpointed twice restores to its
    // earliest size last; the base fact goes last of all.
    for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
      it->rel->TruncateRows(it->size);
    }
    for (auto& [ui, sizes] : seed_checkpoints) {
      views_[ui]->TruncateSeeds(sizes);
    }
    frel.TruncateRows(facts_pre);
    return status;
  }
  ivm_applies_ += out.views_applied;
  return out;
}

Result<FactUpdateOutcome> ProgramInstance::DeleteFact(
    const Atom& fact, const CancellationToken* cancel, QueryBudget* budget) {
  LINREC_RETURN_IF_ERROR(ValidateFact(fact, program_.get()));
  FactUpdateOutcome out;
  std::vector<Value> row;
  row.reserve(fact.arity());
  for (const Term& term : fact.terms) row.push_back(term.constant());

  Relation* frel = facts_.FindMutable(fact.predicate);
  if (frel == nullptr || !frel->ContainsRow(row.data())) {
    return out;  // absent: idempotent no-op
  }
  out.removed = true;
  Relation drop(fact.arity());
  drop.InsertRow(row.data());
  Relation facts_backup = *frel;

  ScopedQueryBudget budget_scope(budget);
  Status status = GuardAllocFailures([&]() -> Status {
    frel->EraseRows(drop);
    if (Relation* dbrel = engine_->db().FindMutable(fact.predicate)) {
      dbrel->EraseRows(drop);
    }
    if (program_ == nullptr || materialized_ == 0) return Status::OK();

    // The running delete-delta: predicate → net-removed tuples, cascading
    // through the materialized units in dependency order.
    std::map<std::string, Relation> deleted;
    deleted.emplace(fact.predicate, drop);
    for (std::size_t ui = 0; ui < materialized_; ++ui) {
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      const CompiledUnit& unit = program_->units[ui];
      // A closure unit's seed is maintained by its view; a non-recursive
      // unit's fixpoint is its seed, held in the database entry.
      std::vector<const Relation*> seeds;
      for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
        seeds.push_back(unit.closure.has_value()
                            ? &views_[ui]->seed(mi)
                            : engine_->db().Find(unit.members[mi]));
      }
      Result<std::vector<Relation>> lost =
          SeedLosses(unit, deleted, seeds, cancel);
      if (!lost.ok()) return lost.status();

      if (!unit.closure.has_value()) {
        for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
          if ((*lost)[mi].empty()) continue;
          engine_->db().FindMutable(unit.members[mi])->EraseRows((*lost)[mi]);
          deleted.emplace(unit.members[mi], std::move((*lost)[mi]));
        }
        continue;
      }

      MaterializedView& view = *views_[ui];
      DeltaDelete dd;
      dd.param_deletes = deleted;
      dd.seed_deletes = std::move(lost).value();
      Result<RetractOutcome> retracted =
          engine_->Retract(view, dd, cancel, budget);
      if (!retracted.ok()) return retracted.status();
      totals_.Accumulate(retracted->stats);
      if (retracted->removed_count > 0) ++out.views_retracted;
      out.tuples_removed += retracted->removed_count;
      out.rederived += retracted->rederived;
      for (std::size_t mi = 0; mi < view.member_count(); ++mi) {
        if (!retracted->removed[mi].empty()) {
          deleted.emplace(view.names()[mi], std::move(retracted->removed[mi]));
        }
      }
    }
    return Status::OK();
  });

  if (!status.ok()) {
    // Deletion erases rows in place, not by append, so the cheap
    // truncation rollback does not apply: restore the base fact and
    // rebuild the session engine from the restored facts (materialized
    // views recompute lazily on the next query). Correctness over
    // cleverness on this rare path.
    *facts_.FindMutable(fact.predicate) = std::move(facts_backup);
    RebuildEngine();
    return status;
  }
  ivm_retracts_ += out.views_retracted;
  ivm_rederived_ += out.rederived;
  return out;
}

void ProgramInstance::Reset() {
  program_.reset();
  facts_ = Database{};
  RebuildEngine();
}

Result<Relation> ProgramInstance::SeedMember(const CompiledUnit& unit,
                                             std::size_t member,
                                             const CancellationToken* cancel) {
  const std::string& pred = unit.members[member];
  const std::size_t arity = unit.arities[member];
  Relation seed(arity);
  // Read the member's own facts from the base-fact store, not the engine
  // database: for an already-materialized unit the database entry holds
  // the CLOSED relation, and re-seeding (the IVM delete path) must start
  // from the raw facts. For not-yet-materialized units the two coincide.
  if (const Relation* facts = facts_.Find(pred)) {
    if (facts->arity() != arity) {
      return Status::InvalidArgument(
          StrCat("facts for '", pred, "' have arity ", facts->arity(),
                 ", rules use ", arity));
    }
    seed = *facts;
  }
  ClosureStats stats;
  for (const Rule& base : unit.base_rules[member]) {
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    Result<std::optional<Rule>> eliminated = WithoutEqualities(base);
    if (!eliminated.ok()) return eliminated.status();
    if (!eliminated->has_value()) continue;
    LINREC_RETURN_IF_ERROR(ApplyRule(**eliminated, engine_->db(), {}, &seed,
                                     &stats, &engine_->index_cache()));
  }
  totals_.Accumulate(stats);
  return seed;
}

Status ProgramInstance::MaterializeUnit(std::size_t index,
                                        const CancellationToken* cancel) {
  const CompiledUnit& unit = program_->units[index];
  if (views_.size() <= index) views_.resize(index + 1);

  if (unit.closure.has_value()) {
    // Materialize through the IVM surface: the engine runs the closure,
    // installs the result under the member names, and hands back the view
    // handle InsertFact / DeleteFact maintain in place.
    ClosureStats stats;
    Result<MaterializedView> view = [&]() -> Result<MaterializedView> {
      if (!unit.joint) {
        Result<Relation> seed = SeedMember(unit, 0, cancel);
        if (!seed.ok()) return seed.status();
        return engine_->Materialize(unit.closure->Bind()
                                        .BindSeed(std::move(seed).value())
                                        .WithCancellation(cancel),
                                    {unit.members[0]}, &stats);
      }
      std::vector<Relation> seeds;
      seeds.reserve(unit.members.size());
      for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
        Result<Relation> seed = SeedMember(unit, mi, cancel);
        if (!seed.ok()) return seed.status();
        seeds.push_back(std::move(seed).value());
      }
      return engine_->Materialize(unit.closure->Bind()
                                      .BindSeeds(std::move(seeds))
                                      .WithCancellation(cancel),
                                  unit.members, &stats);
    }();
    if (!view.ok()) return view.status();
    totals_.Accumulate(stats);
    views_[index] = std::move(view).value();
    return Status::OK();
  }

  // No recursive rules: the fixpoint IS the seed; no view needed (the
  // cascade maintains the database entry directly).
  for (std::size_t mi = 0; mi < unit.members.size(); ++mi) {
    Result<Relation> seed = SeedMember(unit, mi, cancel);
    if (!seed.ok()) return seed.status();
    engine_->db().GetOrCreate(unit.members[mi], unit.arities[mi]) =
        std::move(seed).value();
  }
  return Status::OK();
}

Status ProgramInstance::MaterializeUpTo(std::size_t limit,
                                        const CancellationToken* cancel) {
  for (std::size_t i = materialized_; i < limit; ++i) {
    LINREC_RETURN_IF_ERROR(MaterializeUnit(i, cancel));
    materialized_ = i + 1;
  }
  return Status::OK();
}

bool ProgramInstance::SigmaFastPath(const Atom& goal, const CompiledUnit& unit,
                                    int* position, Value* value) const {
  if (unit.joint || !unit.closure.has_value() || unit.linear.empty()) {
    return false;
  }
  return SelectionGoal(goal, position, value);
}

Result<QueryResult> ProgramInstance::EvalQuery(const Atom& goal,
                                               Planner& planner,
                                               const CancellationToken* cancel,
                                               QueryBudget* budget,
                                               std::size_t row_limit) {
  const std::vector<QueryBudget*> budgets = {budget};
  std::vector<Result<QueryResult>> results =
      EvalQueries({goal}, planner, cancel, &budgets, row_limit);
  return std::move(results.front());
}

namespace {

/// The first `row_limit` rows of `rows` — the reply-side truncation of a
/// relation that was materialized in full for correctness.
Relation FirstRows(const Relation& rows, std::size_t row_limit) {
  Relation out(rows.arity());
  for (TupleView row : rows) {
    if (out.size() >= row_limit) break;
    out.Insert(row);
  }
  return out;
}

}  // namespace

std::vector<Result<QueryResult>> ProgramInstance::EvalQueries(
    const std::vector<Atom>& goals, Planner& planner,
    const CancellationToken* cancel,
    const std::vector<QueryBudget*>* budgets, std::size_t row_limit) {
  std::vector<Result<QueryResult>> results(
      goals.size(), Result<QueryResult>(Status::Internal("goal not run")));
  auto budget_of = [&](std::size_t i) -> QueryBudget* {
    return budgets != nullptr && i < budgets->size() ? (*budgets)[i] : nullptr;
  };

  // Pass 1: σ-bind fast paths become batch slots; everything else gets
  // evaluated by materializing its dependency cone.
  struct SigmaSlot {
    std::size_t goal_index;
    std::size_t unit_index;
  };
  std::vector<SigmaSlot> sigma_slots;
  std::vector<BoundQuery> batch;
  // One seed per unit, shared across the unit's slots (BindSeed takes a
  // shared_ptr, so N point queries over one predicate copy nothing).
  std::map<std::size_t, std::shared_ptr<const Relation>> unit_seeds;

  for (std::size_t gi = 0; gi < goals.size(); ++gi) {
    const Atom& goal = goals[gi];
    // The goal's budget governs every caller-thread allocation made on its
    // behalf — cone materialization, seeds, reply filtering — and nested
    // Engine executions inherit it through the thread-local scope. A shared
    // cost (a unit materialized once, a seed reused by later goals) is
    // charged to the first goal that needs it. GuardAllocFailures turns an
    // escaped denial into this goal's typed status; neighbours keep running.
    ScopedQueryBudget budget_scope(budget_of(gi));
    Result<bool> queued = GuardAllocFailures([&]() -> Result<bool> {
      if (program_ == nullptr) {
        results[gi] = Status::InvalidArgument("no program loaded");
        return false;
      }
      auto unit_it = program_->unit_of.find(goal.predicate);
      if (unit_it == program_->unit_of.end()) {
        // Base predicate: answer from the session's facts.
        const Relation* facts = facts_.Find(goal.predicate);
        if (facts == nullptr) {
          results[gi] = Status::NotFound(
              StrCat("unknown predicate '", goal.predicate, "/", goal.arity(),
                     "' (not derived by the program, no facts loaded)"));
          return false;
        }
        if (facts->arity() != goal.arity()) {
          results[gi] = Status::InvalidArgument(
              StrCat("goal for '", goal.predicate, "' has arity ", goal.arity(),
                     ", facts have ", facts->arity()));
          return false;
        }
        QueryResult qr;
        qr.relations.push_back(MatchGoal(*facts, goal, row_limit));
        results[gi] = std::move(qr);
        return false;
      }

      const std::size_t ui = unit_it->second;
      const CompiledUnit& unit = program_->units[ui];
      const std::size_t member = program_->member_of.at(goal.predicate);
      if (goal.arity() != unit.arities[member]) {
        results[gi] = Status::InvalidArgument(
            StrCat("goal for '", goal.predicate, "' has arity ", goal.arity(),
                   ", rules use ", unit.arities[member]));
        return false;
      }

      int position = 0;
      Value value = 0;
      if (ui >= materialized_ &&
          SigmaFastPath(goal, unit, &position, &value)) {
        // Materialize the dependencies (not the unit), seed once per unit,
        // and prepare the σ-parameterized closure through the shared planner
        // — its plan-cache digest covers the σ position, so repeated point
        // queries (from any session) plan once.
        Status deps = MaterializeUpTo(ui, cancel);
        if (!deps.ok()) {
          results[gi] = deps;
          return false;
        }
        auto seed_it = unit_seeds.find(ui);
        if (seed_it == unit_seeds.end()) {
          Result<Relation> seed = SeedMember(unit, 0, cancel);
          if (!seed.ok()) {
            results[gi] = seed.status();
            return false;
          }
          seed_it = unit_seeds
                        .emplace(ui, std::make_shared<const Relation>(
                                         std::move(seed).value()))
                        .first;
        }
        Result<PreparedQuery> sigma = planner.Prepare(
            Query::Closure(unit.linear).SelectPosition(position));
        if (!sigma.ok()) {
          results[gi] = sigma.status();
          return false;
        }
        sigma_slots.push_back({gi, ui});
        batch.push_back(sigma->Bind(value)
                            .BindSeed(seed_it->second)
                            .WithCancellation(cancel)
                            .WithBudget(budget_of(gi)));
        return true;
      }

      // Full path: materialize the cone through this unit, filter.
      Status upto = MaterializeUpTo(ui + 1, cancel);
      if (!upto.ok()) {
        results[gi] = upto;
        return false;
      }
      const Relation* rows = engine_->db().Find(goal.predicate);
      QueryResult qr;
      qr.relations.push_back(rows != nullptr
                                 ? MatchGoal(*rows, goal, row_limit)
                                 : Relation(goal.arity()));
      results[gi] = std::move(qr);
      return false;
    });
    if (!queued.ok()) results[gi] = queued.status();
  }

  if (!batch.empty()) {
    std::vector<Result<QueryResult>> outcomes =
        engine_->ExecuteBatchEach(batch);
    for (std::size_t si = 0; si < sigma_slots.size(); ++si) {
      Result<QueryResult>& outcome = outcomes[si];
      if (outcome.ok()) {
        totals_.Accumulate(outcome->stats);
        // The closure ran to fixpoint (correctness); the *reply* still
        // honors the streaming cap.
        Relation& rel = outcome->relation();
        if (rel.size() > row_limit) {
          ScopedQueryBudget budget_scope(
              budget_of(sigma_slots[si].goal_index));
          auto capped = GuardAllocFailures([&]() -> Result<Relation> {
            return FirstRows(rel, row_limit);
          });
          if (capped.ok()) {
            rel = std::move(capped).value();
          } else {
            outcome = capped.status();
          }
        }
      }
      results[sigma_slots[si].goal_index] = std::move(outcome);
    }
  }
  return results;
}

Relation MatchGoal(const Relation& rows, const Atom& goal,
                   std::size_t row_limit) {
  // A σ goal is one column sweep that stops at `row_limit` matches.
  int position = 0;
  Value value = 0;
  if (SelectionGoal(goal, &position, &value)) {
    return rows.WhereEquals(position, value, nullptr, row_limit);
  }
  // Constant positions and repeated-variable position groups.
  std::vector<std::pair<std::size_t, Value>> constants;
  std::map<VarId, std::vector<std::size_t>> var_positions;
  for (std::size_t i = 0; i < goal.terms.size(); ++i) {
    const Term& term = goal.terms[i];
    if (term.is_const()) {
      constants.emplace_back(i, term.constant());
    } else {
      var_positions[term.var()].push_back(i);
    }
  }
  bool trivial = constants.empty();
  for (const auto& [var, positions] : var_positions) {
    if (positions.size() > 1) trivial = false;
  }
  if (trivial) {
    return rows.size() <= row_limit ? rows : FirstRows(rows, row_limit);
  }

  Relation out(rows.arity());
  for (TupleView row : rows) {
    if (out.size() >= row_limit) break;
    bool keep = true;
    for (const auto& [pos, value] : constants) {
      if (row[pos] != value) {
        keep = false;
        break;
      }
    }
    if (keep) {
      for (const auto& [var, positions] : var_positions) {
        for (std::size_t p = 1; p < positions.size(); ++p) {
          if (row[positions[p]] != row[positions[0]]) {
            keep = false;
            break;
          }
        }
        if (!keep) break;
      }
    }
    if (keep) out.Insert(row);
  }
  return out;
}

}  // namespace linrec
