#include "engine/engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_set>

#include "algebra/closure.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "datalog/printer.h"
#include "eval/fixpoint.h"
#include "redundancy/closure.h"
#include "redundancy/factorize.h"
#include "separability/algorithm.h"

namespace linrec {
namespace {

/// Plan-cache key: the query's structure — the printed rules (text
/// determines semantics), the σ position, and any forced strategy. A query
/// carries no σ value and no seed (planning is positional: Theorem 4.1's
/// preconditions read the selected column, never the constant), so one
/// cached plan serves a whole σ-sweep and every seed. Joint queries key on
/// the member list plus the rule texts (validation pins each rule's
/// recursive atom to its unique member atom, so the text determines the
/// joint structure).
std::string QueryDigest(const Query& query) {
  std::string digest;
  if (query.is_joint()) {
    digest += "joint:";
    for (const std::string& member : query.members()) {
      digest += member;
      digest += ',';
    }
    digest += '\n';
    for (const JointRule& jr : query.joint_rules()) {
      digest += ToString(jr.rule);
      digest += '\n';
    }
    return digest;
  }
  for (const LinearRule& rule : query.rules()) {
    digest += ToString(rule);
    digest += '\n';
  }
  if (query.sigma_position().has_value()) {
    digest += StrCat("|sigma_pos:", *query.sigma_position());
  }
  if (query.forced_strategy().has_value()) {
    digest += StrCat("|force:", StrategyName(*query.forced_strategy()));
  }
  return digest;
}

/// Short provenance tag for a positive commutativity verdict.
std::string CommuteProvenance(const CommutativityReport& report) {
  if (report.syntactic_holds) return "syntactic condition, Theorem 5.1";
  if (report.definitional_used) return "definition-based test";
  return "combined oracle";
}

/// Short provenance tag for a negative verdict.
std::string NonCommuteProvenance(const CommutativityReport& report) {
  if (report.restricted_class) {
    return "syntactic condition fails in the restricted class, Theorem 5.2";
  }
  if (report.definitional_used) return "definition-based test";
  return "combined oracle";
}

}  // namespace

Result<const RuleInfo*> Engine::Analyze(const LinearRule& rule) {
  return analysis_.Info(rule, /*budgeted_searches=*/true);
}

Result<CommutativityReport> Engine::Commutes(const LinearRule& r1,
                                             const LinearRule& r2) {
  return analysis_.Commutes(r1, r2);
}

Status Engine::ComputeGroups(ExecutionPlan* plan) {
  const int n = static_cast<int>(plan->rules.size());
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      Result<CommutativityReport> report =
          analysis_.Commutes(plan->rules[static_cast<std::size_t>(i)],
                             plan->rules[static_cast<std::size_t>(j)]);
      bool commute = report.ok() && report->commute;
      if (!report.ok()) {
        plan->justification.push_back(
            StrCat("rules ", i, " and ", j, ": commutativity test failed (",
                   report.status().message(), ") — conservatively grouped"));
      } else if (commute) {
        plan->justification.push_back(StrCat("rules ", i, " and ", j,
                                             " commute (",
                                             CommuteProvenance(*report), ")"));
      } else {
        plan->justification.push_back(
            StrCat("rules ", i, " and ", j, " do not commute (",
                   NonCommuteProvenance(*report), ")"));
      }
      if (!commute) {
        parent[static_cast<std::size_t>(find(i))] = find(j);
      }
    }
  }
  std::map<int, std::vector<int>> by_root;
  for (int i = 0; i < n; ++i) by_root[find(i)].push_back(i);
  plan->groups.clear();
  for (auto& [root, group] : by_root) plan->groups.push_back(group);
  return Status::OK();
}

Result<bool> Engine::TrySeparable(ExecutionPlan* plan) {
  const int position = *plan->sigma_position;
  std::vector<int> outer;
  std::vector<int> inner;
  std::vector<std::string> notes;
  for (std::size_t i = 0; i < plan->rules.size(); ++i) {
    Result<const RuleInfo*> info = analysis_.Info(plan->rules[i]);
    if (!info.ok()) return info.status();
    bool commutes = false;
    if ((*info)->classes.has_value()) {
      const Classification& classes = *(*info)->classes;
      VarId x = classes.HeadVarAt(position);
      const VarClass& vc = classes.Of(x);
      // σ commutes with the operator iff the selected column's head
      // variable is 1-persistent: its value passes through unchanged.
      commutes = vc.persistent && vc.period == 1;
      notes.push_back(StrCat("σ on position ", position,
                             (commutes ? " commutes with rule "
                                       : " does not commute with rule "),
                             i, ": head variable is ", vc.Describe()));
    } else {
      notes.push_back(StrCat("rule ", i, " not analyzable (",
                             (*info)->analysis_blocked,
                             "): σ-commutation unknown"));
    }
    (commutes ? outer : inner).push_back(static_cast<int>(i));
  }
  if (outer.empty()) {
    plan->justification.push_back(
        StrCat("separable rejected: σ on position ", position,
               " commutes with no rule (needs a 1-persistent column, "
               "Theorem 4.1)"));
    return false;
  }
  for (int a : outer) {
    for (int b : inner) {
      Result<CommutativityReport> report =
          analysis_.Commutes(plan->rules[static_cast<std::size_t>(a)],
                             plan->rules[static_cast<std::size_t>(b)]);
      if (!report.ok() || !report->commute) {
        plan->justification.push_back(StrCat(
            "separable rejected: rules ", a, " and ", b,
            report.ok() ? StrCat(" do not commute (",
                                 NonCommuteProvenance(*report), ")")
                        : StrCat(" — commutativity test failed (",
                                 report.status().message(), ")")));
        return false;
      }
      notes.push_back(StrCat("rules ", a, " and ", b, " commute (",
                             CommuteProvenance(*report), ")"));
    }
  }
  plan->strategy = Strategy::kSeparable;
  plan->outer = std::move(outer);
  plan->inner = std::move(inner);
  plan->selection_pushed = true;
  for (std::string& note : notes) {
    plan->justification.push_back(std::move(note));
  }
  if (plan->inner.empty()) {
    plan->justification.push_back(
        "σ commutes with every rule: full pushdown σ(ΣA)* = (ΣA)*(σ q)");
  }
  return true;
}

Status Engine::PlanSingleRule(ExecutionPlan* plan) {
  const LinearRule& rule = plan->rules.front();
  Result<const RuleInfo*> info_result =
      analysis_.Info(rule, /*budgeted_searches=*/true);
  if (!info_result.ok()) return info_result.status();
  const RuleInfo* info = *info_result;

  if (info->uniform_bound.found) {
    plan->strategy = Strategy::kPowerSum;
    plan->power_bound = info->uniform_bound.n - 1;
    plan->justification.push_back(StrCat(
        "operator uniformly bounded: A^", info->uniform_bound.n, " ≤ A^",
        info->uniform_bound.k, " — closure is the power sum Σ_{m<",
        info->uniform_bound.n, "} A^m (Section 4.2)"));
    return Status::OK();
  }

  if (info->HasRedundantPredicates()) {
    Result<RedundantFactorization> factorization =
        FactorFirstRedundant(rule, kAnalysisMaxPower);
    if (factorization.ok() && factorization->product_verified &&
        factorization->swap_verified) {
      plan->strategy = Strategy::kSemiNaive;
      // FactorFirstRedundant factors only the FIRST uniformly bounded
      // bridge; the plan must claim exactly that elision, no more.
      bool factored = false;
      for (const RedundancyEntry& entry : info->redundancy->entries) {
        if (!entry.uniformly_bounded) continue;
        std::string preds;
        for (const std::string& pred : entry.predicates) {
          preds += (preds.empty() ? "" : ",") + pred;
        }
        if (!factored) {
          factored = true;
          plan->elided_predicates = entry.predicates;
          plan->justification.push_back(StrCat(
              "bridge ", entry.bridge_index, " {", preds,
              "} uniformly bounded: C^", entry.bound.n, " ≤ C^",
              entry.bound.k,
              " — its predicates are recursively redundant (Theorem 6.3)"));
        } else {
          plan->justification.push_back(StrCat(
              "bridge ", entry.bridge_index, " {", preds,
              "} also uniformly bounded but NOT elided (single-bridge "
              "factorization)"));
        }
      }
      plan->justification.push_back(StrCat(
          "factorization A^", factorization->L,
          " = B·C^", factorization->L,
          " verified — the elided predicates are applied a bounded number "
          "of times (Theorems 6.4/4.2)"));
      plan->factorization = std::move(factorization).value();
      return Status::OK();
    }
    plan->justification.push_back(StrCat(
        "redundant predicates found but the factorization is unavailable (",
        factorization.ok() ? "verification failed"
                           : factorization.status().message(),
        "); falling back to semi-naive"));
  }

  plan->strategy = Strategy::kSemiNaive;
  plan->justification.push_back("single operator; semi-naive Δ fixpoint");
  return Status::OK();
}

Status Engine::ChooseClosureStrategy(ExecutionPlan* plan) {
  if (plan->rules.size() == 1) return PlanSingleRule(plan);
  LINREC_RETURN_IF_ERROR(ComputeGroups(plan));
  if (plan->groups.size() > 1) {
    plan->strategy = Strategy::kDecomposed;
    plan->justification.push_back(StrCat(
        plan->groups.size(),
        " commuting groups: (ΣA)* = G_1*·...·G_k* with no more duplicate "
        "derivations (Theorem 3.1)"));
  } else {
    plan->strategy = Strategy::kSemiNaive;
    plan->groups.clear();
    plan->justification.push_back(
        "all rules linked by non-commuting chains — one group, no "
        "decomposition; semi-naive over the sum");
  }
  return Status::OK();
}

Status Engine::PlanForced(Strategy forced, ExecutionPlan* plan) {
  plan->justification.push_back(
      StrCat("strategy forced by caller: ", StrategyName(forced)));
  switch (forced) {
    case Strategy::kNaive:
    case Strategy::kSemiNaive:
      plan->strategy = forced;
      return Status::OK();
    case Strategy::kDecomposed:
      LINREC_RETURN_IF_ERROR(ComputeGroups(plan));
      plan->strategy = Strategy::kDecomposed;
      return Status::OK();
    case Strategy::kSeparable: {
      if (!plan->sigma_position.has_value()) {
        return Status::InvalidArgument(
            "forced separable strategy requires a selection");
      }
      Result<bool> separable = TrySeparable(plan);
      if (!separable.ok()) return separable.status();
      if (!*separable) {
        return Status::InvalidArgument(
            "forced separable strategy: preconditions of Theorem 4.1 do "
            "not hold for this query");
      }
      return Status::OK();
    }
    case Strategy::kPowerSum: {
      if (plan->rules.size() != 1) {
        return Status::InvalidArgument(
            "forced power-sum strategy requires a single rule");
      }
      Result<const RuleInfo*> info =
          analysis_.Info(plan->rules.front(), /*budgeted_searches=*/true);
      if (!info.ok()) return info.status();
      if (!(*info)->uniform_bound.found) {
        return Status::InvalidArgument(
            "forced power-sum strategy: no uniform bound found within the "
            "analysis budget");
      }
      plan->strategy = Strategy::kPowerSum;
      plan->power_bound = (*info)->uniform_bound.n - 1;
      return Status::OK();
    }
    case Strategy::kJointSemiNaive:
      return Status::InvalidArgument(
          "the joint strategy cannot be forced on a single-predicate "
          "query; use Query::JointClosure");
  }
  return Status::Internal("unhandled forced strategy");
}

Result<PreparedQuery> Engine::Prepare(const Query& query) {
  LINREC_RETURN_IF_ERROR(query.Validate());
  std::string digest;
  const bool cache_on = options_.plan_cache_capacity > 0;
  if (cache_on) {
    digest = QueryDigest(query);
    auto it = plan_cache_.find(digest);
    if (it != plan_cache_.end()) {
      ++plan_cache_hits_;
      ExecutionPlan plan = it->second;
      plan.from_plan_cache = true;
      return PreparedQuery(
          std::make_shared<const ExecutionPlan>(std::move(plan)));
    }
    ++plan_cache_misses_;
  }

  ExecutionPlan plan;
  plan.parallel_workers = ResolveWorkers(options_.parallel_workers);
  if (query.is_joint()) {
    plan.strategy = Strategy::kJointSemiNaive;
    plan.members = query.members();
    plan.joint_rules = query.joint_rules();
    plan.justification.push_back(StrCat(
        plan.members.size(),
        " mutually recursive predicates form one strongly connected "
        "component; closed jointly by multi-relation semi-naive rounds "
        "(one Δ row-range per member)"));
  } else {
    plan.rules = query.rules();
    // Planning reads only the position (every σ-commutation test is
    // positional); the value binds per execution.
    plan.sigma_position = query.sigma_position();

    if (query.forced_strategy().has_value()) {
      LINREC_RETURN_IF_ERROR(PlanForced(*query.forced_strategy(), &plan));
    } else {
      bool planned_separable = false;
      if (plan.sigma_position.has_value()) {
        Result<bool> separable = TrySeparable(&plan);
        if (!separable.ok()) return separable.status();
        planned_separable = *separable;
      }
      if (!planned_separable) {
        LINREC_RETURN_IF_ERROR(ChooseClosureStrategy(&plan));
        if (plan.sigma_position.has_value() && !plan.selection_pushed) {
          plan.justification.push_back(
              "selection does not push through the closure; filtering the "
              "final result");
        }
      }
    }
  }

  if (cache_on) {
    // FIFO eviction of single entries: the oldest plan makes room, so a
    // diverse query stream at capacity no longer cold-starts every other
    // hot plan the way a full clear() did.
    while (plan_cache_.size() >= options_.plan_cache_capacity &&
           !plan_cache_order_.empty()) {
      plan_cache_.erase(plan_cache_order_.front());
      plan_cache_order_.pop_front();
    }
    plan_cache_order_.push_back(digest);
    plan_cache_.emplace(std::move(digest), plan);
  }
  return PreparedQuery(std::make_shared<const ExecutionPlan>(std::move(plan)));
}

Result<QueryResult> Engine::Run(const BoundQuery& bound,
                                IndexCache* cache) const {
  // Install this execution's budget: storage growth below charges the
  // thread-local current budget. Without a binding budget, any budget
  // already in effect on this thread (e.g. installed by the serving layer
  // around a whole goal) stays active. The guard converts a denial into a
  // typed ResourceExhausted.
  ScopedQueryBudget budget_scope(
      bound.budget() != nullptr ? bound.budget() : CurrentQueryBudget());
  return GuardAllocFailures([&]() -> Result<QueryResult> {
    return RunImpl(bound, cache);
  });
}

Result<QueryResult> Engine::RunImpl(const BoundQuery& bound,
                                    IndexCache* cache) const {
  const ExecutionPlan& plan = *bound.plan();
  const CancellationToken* cancel = bound.cancel();

  if (plan.strategy == Strategy::kJointSemiNaive) {
    QueryResult result;
    result.joint = true;
    Result<std::vector<Relation>> out =
        JointSemiNaiveClosure(plan.members, plan.joint_rules, db_,
                              *bound.seeds(), &result.stats, cache, cancel);
    if (!out.ok()) return out.status();
    result.relations = std::move(out).value();
    return result;
  }

  // The binding's σ, engaged iff the plan has a σ position.
  const std::optional<Selection>& selection = bound.selection();
  const Relation& seed = *bound.seed();
  QueryResult result;
  ClosureStats& s = result.stats;
  Result<Relation> out = Status::Internal("strategy not executed");
  switch (plan.strategy) {
    case Strategy::kNaive:
      out = NaiveClosure(plan.rules, db_, seed, &s, cache, cancel);
      break;
    case Strategy::kSemiNaive:
      out = plan.factorization.has_value()
                ? RedundantClosure(*plan.factorization, db_, seed, &s,
                                   cache, cancel)
                : SemiNaiveClosure(plan.rules, db_, seed, &s, cache, cancel);
      break;
    case Strategy::kDecomposed: {
      if (plan.groups.empty()) {
        return Status::InvalidArgument("decomposed plan has no groups");
      }
      std::vector<std::vector<LinearRule>> groups;
      groups.reserve(plan.groups.size());
      for (const std::vector<int>& group : plan.groups) {
        groups.push_back(plan.RulesOf(group));
      }
      out = DecomposedClosure(groups, db_, seed, &s, cache, cancel);
      break;
    }
    case Strategy::kSeparable: {
      if (plan.outer.empty()) {
        return Status::InvalidArgument(
            "separable plan requires a nonempty outer group");
      }
      // A*( σ( B* q ) ) — Theorem 4.1. Preconditions were verified by
      // TrySeparable during planning; the σ value flows in here, at
      // execute time (the plan itself is value-free).
      out = SeparableClosureUnchecked(plan.RulesOf(plan.outer),
                                      plan.RulesOf(plan.inner),
                                      *selection, db_, seed, &s, cache,
                                      cancel);
      break;
    }
    case Strategy::kPowerSum:
      out = PowerSum(plan.rules, db_, seed, plan.power_bound, &s, cache,
                     cancel);
      break;
    case Strategy::kJointSemiNaive:
      return Status::Internal("joint strategy handled above");
  }
  if (!out.ok()) return out.status();
  Relation relation = std::move(out).value();
  if (selection.has_value() && !plan.selection_pushed) {
    relation = ApplySelection(relation, *selection, &s);
    s.result_size = relation.size();
  }
  result.relations.push_back(std::move(relation));
  return result;
}

void Engine::EvictTemporaryIndexes() {
  std::unordered_set<const Relation*> keep;
  for (const std::string& name : db_.Names()) keep.insert(db_.Find(name));
  cache_.RetainOnly(keep);
}

Result<QueryResult> Engine::Execute(const BoundQuery& bound) {
  LINREC_RETURN_IF_ERROR(bound.Validate());
  // The shared plan is used in place: the seed, σ value and cancellation
  // token flow through the binding, so executing never copies the plan.
  Result<QueryResult> result = Run(bound, &cache_);
  // Evict on the failure path too: an aborted execution (cancelled, budget
  // denied) may have left indexes over its already-destroyed temporaries in
  // the cache, and the next query would read dangling addresses.
  EvictTemporaryIndexes();
  if (!result.ok()) return result;
  stats_.Accumulate(result->stats);
  return result;
}

std::vector<Result<QueryResult>> Engine::ExecuteBatchEach(
    const std::vector<BoundQuery>& batch) {
  std::vector<Result<QueryResult>> slots;
  slots.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    slots.emplace_back(Status::Internal("batch query not executed"));
  }
  if (batch.empty()) return slots;

  // Validate serially up front; an invalid slot fails alone, its
  // neighbours still run. Each slot runs its BoundQuery in place — the
  // shared prepared plan too, so N slots over one PreparedQuery share a
  // single plan object (no per-slot deep copy, no per-slot digest hashing).
  std::vector<char> runnable(batch.size(), 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Status valid = batch[i].Validate();
    if (!valid.ok()) {
      slots[i] = std::move(valid);
      continue;
    }
    runnable[i] = 1;
  }

  // The batch's shared read side: the engine's parameter relations are
  // quiescent for the whole batch, so their indexes live in the engine's
  // SharedIndexCache — internally locked, built (or caught up) by whichever
  // query needs one first, reused by every other. Everything else a query
  // indexes is a private temporary.
  std::unordered_set<const Relation*> shared_relations;
  for (const std::string& name : db_.Names()) {
    shared_relations.insert(db_.Find(name));
  }

  auto run_one = [&](std::size_t i) {
    if (!runnable[i]) return;  // failed validation above
    if (FaultFires(FaultSite::kWorkerDispatch)) {
      slots[i] = Status::Internal(
          StrCat("injected worker fault dispatching batch slot ", i));
      return;
    }
    // The per-query temporary tier dies right here, at the end of the
    // query; the shared tier is swept once, below.
    TieredIndexCache cache(&cache_, &shared_relations);
    slots[i] = Run(batch[i], &cache);
  };

  const int lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(ResolveWorkers(
                                options_.parallel_workers)),
                            batch.size()));
  if (lanes <= 1) {
    for (std::size_t i = 0; i < batch.size(); ++i) run_one(i);
  } else {
    WorkerPool pool(lanes);
    pool.Run(batch.size(), [&](int, std::size_t i) { run_one(i); });
  }

  // Accumulate in batch order, so the engine-global record is identical
  // to having executed the successful slots sequentially.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (slots[i].ok()) stats_.Accumulate(slots[i]->stats);
  }
  // Deferred to batch end: one sweep drops whatever the batch pinned into
  // the shared tier beyond the parameter relations (today: nothing — the
  // tiering keeps temporaries private — but the sweep keeps the invariant
  // explicit and cheap).
  EvictTemporaryIndexes();
  return slots;
}

Result<std::vector<QueryResult>> Engine::ExecuteBatch(
    const std::vector<BoundQuery>& batch) {
  // Fail fast on validation, before any work starts (the per-slot path
  // lets valid neighbours run; the all-or-nothing contract here does not).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Status valid = batch[i].Validate();
    if (!valid.ok()) {
      return Status(valid.code(),
                    StrCat("batch query ", i, ": ", valid.message()));
    }
  }
  std::vector<Result<QueryResult>> slots = ExecuteBatchEach(batch);
  std::vector<QueryResult> results;
  results.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].ok()) {
      const Status& st = slots[i].status();
      return Status(st.code(),
                    StrCat("batch query ", i, ": ", st.message()));
    }
    results.push_back(std::move(*slots[i]));
  }
  return results;
}

}  // namespace linrec
