#include "algebra/program_eval.h"

#include <map>
#include <set>
#include <vector>

#include "common/scc.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "datalog/printer.h"
#include "engine/engine.h"
#include "eval/apply.h"
#include "eval/joint.h"

namespace linrec {
namespace {

/// Rules grouped per derived predicate. Classification (base vs recursive)
/// happens per strongly connected component, because a rule of a mutually
/// recursive predicate is "recursive" exactly when its body reads a member
/// of the same component — a property of the condensation, not the rule.
struct PredicateRules {
  std::size_t arity = 0;
  std::vector<Rule> rules;
};

/// "a, b, c" for error messages and plan labels.
std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Seeds `pred`'s initial relation: facts for the predicate itself plus
/// every base rule (equalities eliminated; unsatisfiable rules contribute
/// nothing).
Result<Relation> SeedPredicate(const std::string& pred, std::size_t arity,
                               const std::vector<Rule>& base_rules,
                               Engine& engine, ClosureStats* stats) {
  Relation seed(arity);
  if (const Relation* facts = engine.db().Find(pred)) {
    if (facts->arity() != arity) {
      return Status::InvalidArgument(
          StrCat("facts for '", pred, "' have arity ", facts->arity(),
                 ", rules use ", arity));
    }
    seed = *facts;
  }
  for (const Rule& base : base_rules) {
    Rule effective = base;
    if (HasEqualities(base)) {
      Result<std::optional<Rule>> eliminated = EliminateEqualities(base);
      if (!eliminated.ok()) return eliminated.status();
      if (!eliminated->has_value()) continue;
      effective = std::move(**eliminated);
    }
    LINREC_RETURN_IF_ERROR(ApplyRule(effective, engine.db(), {}, &seed,
                                     stats, &engine.index_cache()));
  }
  return seed;
}

/// The paper's single-predicate path: base rules seed Q, linear recursive
/// rules close through the engine (the planner picks the strategy when
/// use_decomposition is set).
Status EvaluateSingleton(const std::string& pred,
                         const PredicateRules& group,
                         const ProgramEvalOptions& options, Engine& engine,
                         ProgramResult* result) {
  std::vector<Rule> base;
  std::vector<LinearRule> linear;
  for (const Rule& rule : group.rules) {
    int occurrences = 0;
    for (const Atom& atom : rule.body()) {
      if (atom.predicate == pred) ++occurrences;
    }
    if (occurrences == 0) {
      base.push_back(rule);
    } else {
      Result<LinearRule> lr = LinearRule::Make(rule);
      if (!lr.ok()) {
        return Status::InvalidArgument(
            StrCat("rule is not linear: ", ToString(rule), " (",
                   lr.status().message(), ")"));
      }
      linear.push_back(std::move(lr).value());
    }
  }

  Result<Relation> seed =
      SeedPredicate(pred, group.arity, base, engine, &result->stats);
  if (!seed.ok()) return seed.status();
  Relation value = std::move(seed).value();
  if (!linear.empty()) {
    Query query = Query::Closure(std::move(linear));
    if (!options.use_decomposition) query.Force(Strategy::kSemiNaive);
    Result<PreparedQuery> prepared = engine.Prepare(query);
    if (!prepared.ok()) return prepared.status();
    result->plan_explanations.push_back(
        StrCat(pred, ":\n", prepared->plan().Explain()));
    Result<QueryResult> closed =
        engine.Execute(prepared->Bind().BindSeed(std::move(value)));
    if (!closed.ok()) return closed.status();
    value = std::move(closed->relation());
  }
  engine.db().GetOrCreate(pred, group.arity) = std::move(value);
  return Status::OK();
}

/// A non-trivial strongly connected component: classify every member rule
/// against the component (0 member atoms = base, 1 = joint recursive,
/// >= 2 = non-linear → rejected naming the full component), seed each
/// member, and close the component jointly through the engine.
Status EvaluateComponent(const std::vector<std::string>& members,
                         const std::map<std::string, PredicateRules>& rules,
                         Engine& engine, ProgramResult* result) {
  const std::set<std::string> member_set(members.begin(), members.end());
  std::map<std::string, int> member_index;
  for (std::size_t i = 0; i < members.size(); ++i) {
    member_index[members[i]] = static_cast<int>(i);
  }

  std::vector<Relation> seeds;
  seeds.reserve(members.size());
  std::vector<JointRule> joint_rules;
  for (std::size_t mi = 0; mi < members.size(); ++mi) {
    const std::string& pred = members[mi];
    const PredicateRules& group = rules.at(pred);
    std::vector<Rule> base;
    for (const Rule& rule : group.rules) {
      int member_atoms = 0;
      for (const Atom& atom : rule.body()) {
        if (member_set.count(atom.predicate) > 0) ++member_atoms;
      }
      if (member_atoms == 0) {
        base.push_back(rule);
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
      // Locate the single member atom; equality atoms are eliminated by
      // the joint closure itself, which remaps this index.
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

    Result<Relation> seed =
        SeedPredicate(pred, group.arity, base, engine, &result->stats);
    if (!seed.ok()) return seed.status();
    seeds.push_back(std::move(seed).value());
  }

  std::vector<Relation> closed;
  if (joint_rules.empty()) {
    // Unreachable for a genuine multi-member component (its cycles imply
    // member atoms), but harmless: the seeds are already the fixpoint.
    closed = std::move(seeds);
  } else {
    Result<PreparedQuery> prepared =
        engine.Prepare(Query::JointClosure(members, std::move(joint_rules)));
    if (!prepared.ok()) return prepared.status();
    result->plan_explanations.push_back(
        StrCat(JoinNames(members), ":\n", prepared->plan().Explain()));
    Result<QueryResult> out =
        engine.Execute(prepared->Bind().BindSeeds(std::move(seeds)));
    if (!out.ok()) return out.status();
    closed = std::move(out->relations);
  }
  for (std::size_t mi = 0; mi < members.size(); ++mi) {
    engine.db().GetOrCreate(members[mi], rules.at(members[mi]).arity) =
        std::move(closed[mi]);
  }
  return Status::OK();
}

}  // namespace

Result<ProgramResult> EvaluateProgram(const Program& program,
                                      const ProgramEvalOptions& options) {
  ProgramResult result;
  Result<Database> edb = program.FactsToDatabase();
  if (!edb.ok()) return edb.status();
  Engine engine(std::move(edb).value());

  // Group rules by head predicate; arities must be consistent.
  std::map<std::string, PredicateRules> rules;
  for (const Rule& rule : program.rules) {
    const std::string& pred = rule.head().predicate;
    PredicateRules& group = rules[pred];
    if (group.rules.empty()) {
      group.arity = rule.head().arity();
    } else if (group.arity != rule.head().arity()) {
      return Status::InvalidArgument(
          StrCat("predicate '", pred, "' defined with arities ", group.arity,
                 " and ", rule.head().arity()));
    }
    group.rules.push_back(rule);
  }

  // Condense the predicate dependency graph (edge u → v: some rule of u
  // reads derived predicate v) into strongly connected components,
  // returned dependency-first. std::map iteration makes predicate ids —
  // and therefore the condensation — deterministic.
  std::vector<std::string> names;
  names.reserve(rules.size());
  std::map<std::string, int> id_of;
  for (const auto& [pred, group] : rules) {
    id_of[pred] = static_cast<int>(names.size());
    names.push_back(pred);
  }
  std::vector<std::vector<int>> adjacency(names.size());
  for (const auto& [pred, group] : rules) {
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
      LINREC_RETURN_IF_ERROR(EvaluateSingleton(pred, rules.at(pred), options,
                                               engine, &result));
    } else {
      std::vector<std::string> members;
      members.reserve(component.size());
      for (int id : component) {
        members.push_back(names[static_cast<std::size_t>(id)]);
      }
      LINREC_RETURN_IF_ERROR(
          EvaluateComponent(members, rules, engine, &result));
    }
  }
  result.stats.Accumulate(engine.stats());
  result.db = std::move(engine.db());
  result.stats.result_size = 0;
  for (const std::string& name : result.db.Names()) {
    result.stats.result_size += result.db.Find(name)->size();
  }
  return result;
}

}  // namespace linrec
