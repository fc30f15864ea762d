// linrec::Engine — the unified entry point for closure evaluation.
//
// The engine owns a Database, memoizes per-rule analysis (variable
// classes, pairwise commutativity, redundancy bridges, boundedness) in an
// AnalysisCache, and compiles Query descriptions into explainable
// ExecutionPlans. *Analysis chooses the strategy*: commutativity licenses
// the decomposed product (Theorem 3.1), selection-commutativity licenses
// the separable algorithm (Theorem 4.1), uniform boundedness licenses the
// power-sum short-circuit (Section 4.2), and a bounded redundancy bridge
// licenses eliding the redundant predicate (Theorems 6.3/6.4). Callers
// state the query; the planner applies the theorems.
//
// The execution API is built around *prepared* queries — compile once,
// bind and run many times (engine/prepared.h):
//
//   Engine engine(std::move(db));
//   auto prepared = engine.Prepare(
//       Query::Closure({r1, r2}).SelectPosition(0));  // σ is a parameter
//   std::cout << prepared->plan().Explain();  // strategy + theorem citations
//   auto result = engine.Execute(prepared->Bind(v).BindSeed(q));
//   // result->relation(), result->stats — and N bindings can run
//   // concurrently on the worker pool:
//   //   engine.ExecuteBatch({prepared->Bind(v1).BindSeed(q),
//   //                        prepared->Bind(v2).BindSeed(q)});
//
// A Query, its PreparedQuery and its ExecutionPlan describe structure
// only; the seed(s), the σ value, the cancellation token and the budget of
// one execution live on the BoundQuery alone. Plans are cached on that
// structure (rules, σ position, forced strategy), so sweeping selection
// constants over one prepared query plans exactly once.
//
// Execution dispatches each plan to one free strategy function:
// NaiveClosure, SemiNaiveClosure and PowerSum (eval/fixpoint.h),
// DecomposedClosure (algebra/closure.h), SeparableClosureUnchecked
// (separability/algorithm.h), RedundantClosure (redundancy/closure.h) and
// JointSemiNaiveClosure (eval/joint.h). They stay public because the tests
// call them directly (SeparableClosure is the checked twin of
// SeparableClosureUnchecked) as the reference a plan's result is checked
// against. The IVM delta engine (src/ivm) extends every view in place with
// JointSemiNaiveExtend, a single-predicate view as a one-member component.

#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/plan.h"
#include "engine/prepared.h"
#include "engine/query.h"
#include "engine/rule_info.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "ivm/view.h"
#include "storage/database.h"

namespace linrec {

/// The planner always applies every theorem its analysis licenses;
/// Query::Force is the one way to pick a strategy by hand.
struct EngineOptions {
  /// Lanes for the one parallel path, the slots of ExecuteBatch /
  /// ExecuteBatchEach (common/parallel.h rule: 0 = one lane per hardware
  /// thread, 1 = serial). Each query in a slot, and every round of its
  /// closure, runs serially, so no result — rows or their order — depends
  /// on this count.
  int parallel_workers = 0;
  /// Entry bound for the plan cache, which memoizes compiled plans keyed
  /// on (rule-set digest, σ position, forced strategy) so repeated queries
  /// skip analysis and planning. At capacity the oldest entry is evicted
  /// (FIFO) before the next insert, so a long-lived engine serving
  /// unboundedly diverse queries stays bounded while hot plans survive.
  /// 0 disables caching entirely.
  std::size_t plan_cache_capacity = 1024;
};

class Engine {
 public:
  Engine() : Engine(Database{}, EngineOptions{}) {}
  explicit Engine(Database db, EngineOptions options = {})
      : db_(std::move(db)), options_(options) {}

  Database& db() { return db_; }
  const Database& db() const { return db_; }
  const EngineOptions& options() const { return options_; }

  /// Memoized structural analysis of one rule (pointer valid while the
  /// engine lives).
  Result<const RuleInfo*> Analyze(const LinearRule& rule);
  /// Memoized combined-oracle commutativity verdict.
  Result<CommutativityReport> Commutes(const LinearRule& r1,
                                       const LinearRule& r2);

  /// Compiles `query` into a reusable PreparedQuery, choosing the
  /// strategy from the cached analysis (or honoring Query::Force after
  /// checking its preconditions); prepared->plan() is the plan to inspect
  /// or Explain(). The plan cache is keyed on the query's structure —
  /// rules, σ position and forced strategy — so a repeated Prepare of one
  /// structure is a hit. Bind(value)/BindSeed(s) stamp out per-execution
  /// BoundQuery handles; one Prepare followed by N binds performs exactly
  /// one planning pass.
  Result<PreparedQuery> Prepare(const Query& query);

  /// Runs one bound query, returning its relations (one, or one per joint
  /// member) and this execution's own ClosureStats. Also accumulates into
  /// stats(); indexes over parameter relations are shared across calls.
  Result<QueryResult> Execute(const BoundQuery& bound);

  /// Runs independent bound queries concurrently on a worker pool
  /// (EngineOptions::parallel_workers lanes, capped at the batch size;
  /// each query runs whole on one lane). All queries share
  /// one read-side IndexCache, so an index over a parameter relation is
  /// built once for the whole batch; per-query temporaries (Δs, seeds) use
  /// isolated private caches, and temporary-index eviction is deferred to
  /// batch end. Results are positionally aligned with `batch` and
  /// identical to executing each bound query sequentially, for every
  /// worker count. Stats accumulate into stats() in batch order. The
  /// first failing query fails the whole batch (Validate failures fail it
  /// before any work starts); callers needing per-slot outcomes use
  /// ExecuteBatchEach.
  Result<std::vector<QueryResult>> ExecuteBatch(
      const std::vector<BoundQuery>& batch);

  /// ExecuteBatch with per-slot outcomes: every slot runs to its own
  /// Result, so one failing (or deadline-expired) query never voids its
  /// neighbours' work. Scheduling, caching and determinism are identical
  /// to ExecuteBatch; stats accumulate into stats() for the successful
  /// slots, in batch order. This is the serving path: a batch of client
  /// queries with per-query cancellation tokens
  /// (BoundQuery::WithCancellation) degrades per query, not per batch.
  std::vector<Result<QueryResult>> ExecuteBatchEach(
      const std::vector<BoundQuery>& batch);

  /// Runs `bound` once and installs its result relations into the
  /// engine's database under `names` (one per member; a single-predicate
  /// query takes exactly one name), returning the MaterializedView
  /// handle that Apply/Retract maintain in place. Plans carrying a
  /// selection are rejected — a σ-filtered view is not closed under the
  /// rules, so it cannot be extended tuple-at-a-time. A non-null `stats`
  /// receives the materializing execution's own ClosureStats. Defined in
  /// ivm/maintain.cc with the rest of the delta engine.
  Result<MaterializedView> Materialize(const BoundQuery& bound,
                                       std::vector<std::string> names,
                                       ClosureStats* stats = nullptr);

  /// Extends `view` with new input tuples: unions the parameter deltas
  /// into the database, derives the one-step consequences of exactly the
  /// new tuples (delta rules: one body atom reads the delta, the
  /// recursive atom reads the closed view), appends them together with
  /// the new seed tuples, and resumes the semi-naive fixpoint from the
  /// appended rows only. On any failure (budget denial, cancellation,
  /// injected fault at FaultSite::kIvmApply) every touched relation is
  /// truncated back to its pre-call size — byte-identical rollback.
  Result<ApplyOutcome> Apply(MaterializedView& view, const DeltaInsert& delta,
                             const CancellationToken* cancel = nullptr,
                             QueryBudget* budget = nullptr);

  /// Removes input tuples from `view` by delete-and-rederive (DRed):
  /// over-approximates the suspect set D (the closure of the directly
  /// deleted derivations), then re-derives goal-directed: each rule runs
  /// once with its head pinned to D, keeping heads whose recursive tuple
  /// lies outside D, and that frontier is closed inside D. Work follows
  /// the suspects, not the view. The commit erases the removed rows in
  /// place (the rest keep their order); a failure before it restores the
  /// erased parameter relations and leaves the view and seed untouched.
  Result<RetractOutcome> Retract(MaterializedView& view,
                                 const DeltaDelete& delta,
                                 const CancellationToken* cancel = nullptr,
                                 QueryBudget* budget = nullptr);

  /// Aggregated ClosureStats over every Execute call since ResetStats.
  /// Per-execution stats are returned in each QueryResult.
  const ClosureStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Resets every observability counter coherently: the ClosureStats
  /// accumulator (as ResetStats) plus the plan-cache hit/miss counters.
  /// Cache *contents* (plans, indexes, analysis) are untouched — so after
  /// ResetCounters a repeated query counts as a hit against an empty
  /// hit/miss ledger.
  void ResetCounters() {
    ResetStats();
    plan_cache_hits_ = 0;
    plan_cache_misses_ = 0;
  }

  /// The engine's long-lived index tier (SharedIndexCache: internally
  /// locked, so batch lanes and the post-execution eviction sweep share it
  /// without a side-channel mutex).
  IndexCache& index_cache() { return cache_; }
  const AnalysisCache& analysis_cache() const { return analysis_; }

  /// Plan-cache observability: queries answered from the cache vs planned
  /// from scratch (hits + misses == Prepare() calls while the cache is on).
  std::size_t plan_cache_hits() const { return plan_cache_hits_; }
  std::size_t plan_cache_misses() const { return plan_cache_misses_; }
  std::size_t plan_cache_size() const { return plan_cache_.size(); }

 private:
  /// The single execution path behind every public entry point: runs
  /// `bound` (already validated by BoundQuery::Validate) against db_
  /// through `cache`, filling one QueryResult with this execution's stats.
  /// Const — it mutates no engine state, so batch lanes may call it
  /// concurrently with distinct caches. Installs the binding's budget for
  /// its duration and converts an escaped budget denial / bad_alloc into
  /// Status::ResourceExhausted (RunImpl is the unguarded body).
  Result<QueryResult> Run(const BoundQuery& bound, IndexCache* cache) const;
  Result<QueryResult> RunImpl(const BoundQuery& bound,
                              IndexCache* cache) const;
  /// Fills groups via union-find over the memoized non-commuting pairs,
  /// appending per-pair verdicts to the plan's justification.
  Status ComputeGroups(ExecutionPlan* plan);
  /// Attempts the Theorem 4.1 split; true iff the plan was made separable.
  Result<bool> TrySeparable(ExecutionPlan* plan);
  /// Picks kPowerSum / redundancy elision / kSemiNaive for the rule sum.
  Status ChooseClosureStrategy(ExecutionPlan* plan);
  Status PlanSingleRule(ExecutionPlan* plan);
  Status PlanForced(Strategy forced, ExecutionPlan* plan);
  /// Drops cached indexes over an execution's temporaries (Δs, seeds):
  /// only the engine's own parameter relations are worth keeping across
  /// queries, and dead addresses would otherwise accumulate for the
  /// engine's lifetime.
  void EvictTemporaryIndexes();

  Database db_;
  EngineOptions options_;
  AnalysisCache analysis_;
  /// Self-locking: every Get / RetainOnly runs under its internal mutex,
  /// which is what lets ExecuteBatchEach's lanes and EvictTemporaryIndexes
  /// touch one tier with a statically checkable discipline.
  SharedIndexCache cache_;
  ClosureStats stats_;
  /// Compiled plans keyed on the query digest (plans hold no seed, so
  /// caching never pins a caller's relation).
  std::unordered_map<std::string, ExecutionPlan> plan_cache_;
  /// Digests in insertion order; at capacity the front (oldest entry) is
  /// evicted, one entry per insert.
  std::deque<std::string> plan_cache_order_;
  std::size_t plan_cache_hits_ = 0;
  std::size_t plan_cache_misses_ = 0;
};

}  // namespace linrec
