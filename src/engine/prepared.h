// Prepared queries: compile once, bind and run many times.
//
// Engine::Prepare compiles a Query's *structure* — rules, σ position,
// forced strategy — into an ExecutionPlan with no seed and no σ value,
// and hands back a PreparedQuery owning it. Bind calls stamp out
// lightweight BoundQuery handles: the shared plan plus the inputs of one
// execution — the σ value, the seed relation(s), the cancellation token
// and the memory budget. The BoundQuery is the only carrier of those
// inputs. Engine::Execute(BoundQuery) runs one, Engine::ExecuteBatch runs
// many concurrently on the shared worker pool. Planning happens exactly
// once however many values are swept:
//
//   auto prepared = engine.Prepare(
//       Query::Closure({r1, r2}).SelectPosition(0));
//   std::vector<BoundQuery> batch;
//   for (Value v : constants)
//     batch.push_back(prepared->Bind(v).BindSeed(seed));
//   auto results = engine.ExecuteBatch(batch);   // one QueryResult each
//
// Every execution path reports through one result type, QueryResult: the
// closed relation(s) plus that execution's own ClosureStats.

#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/memory.h"
#include "common/status.h"
#include "engine/plan.h"
#include "eval/selection.h"
#include "eval/stats.h"
#include "storage/relation.h"

namespace linrec {

/// The unified result of one query execution.
///
/// Single-predicate plans produce exactly one relation; joint plans
/// (Strategy::kJointSemiNaive) produce one per member, in member order.
/// `stats` is this execution's own record — the engine-global accumulator
/// (Engine::stats()) still aggregates across executions, but callers no
/// longer need to Reset/diff it to attribute work to a query.
struct QueryResult {
  /// The closed relation(s): size 1 unless `joint`.
  std::vector<Relation> relations;
  /// Per-execution counters (derivations, duplicates, rounds, wall time).
  ClosureStats stats;
  /// True iff this result came from a joint plan (member-ordered
  /// relations).
  bool joint = false;

  /// The single result relation. Requires a single-predicate result
  /// (asserted); joint results are read through `relations`.
  Relation& relation() {
    assert(!joint && relations.size() == 1);
    return relations.front();
  }
  const Relation& relation() const {
    assert(!joint && relations.size() == 1);
    return relations.front();
  }
};

class BoundQuery;

/// A compiled, reusable query: the plan plus the binding surface.
/// Immutable and cheaply copyable (the plan is shared); safe to Bind from
/// concurrently.
class PreparedQuery {
 public:
  /// The underlying plan (no seed, no σ value). Explain() works as usual.
  const ExecutionPlan& plan() const { return *plan_; }
  bool is_joint() const {
    return plan_->strategy == Strategy::kJointSemiNaive;
  }
  /// True iff the plan carries a σ whose value is bound per execution.
  bool has_sigma_param() const { return plan_->sigma_position.has_value(); }

  /// Binds the σ parameter to `value`. Requires has_sigma_param();
  /// misuse is deferred to BoundQuery::Validate / Engine::Execute (fluent
  /// chains cannot return a Status).
  BoundQuery Bind(Value value) const;

  /// Binds nothing: valid only when the prepared query has no σ.
  BoundQuery Bind() const;

 private:
  friend class Engine;
  explicit PreparedQuery(std::shared_ptr<const ExecutionPlan> plan)
      : plan_(std::move(plan)) {}

  std::shared_ptr<const ExecutionPlan> plan_;
};

/// One executable instance of a PreparedQuery: the shared plan plus this
/// execution's σ value, seed relation(s), cancellation token and budget.
/// Lightweight — copying a BoundQuery copies shared pointers and a
/// Selection, never a relation.
class BoundQuery {
 public:
  /// Sets the initial relation q of a single-predicate execution. The
  /// relation is shared immutably, so N bindings can share one seed.
  BoundQuery& BindSeed(Relation seed);
  BoundQuery& BindSeed(std::shared_ptr<const Relation> seed);

  /// Sets the per-member initial relations of a joint execution (member
  /// order).
  BoundQuery& BindSeeds(std::vector<Relation> seeds);
  BoundQuery& BindSeeds(std::shared_ptr<const std::vector<Relation>> seeds);

  /// Attaches a cancellation token checked at round boundaries of this
  /// execution. Not owned: the token must outlive the execution. A null
  /// token (the default) never cancels. The token never reaches the plan
  /// cache — cancellation is a property of the binding, not the plan.
  BoundQuery& WithCancellation(const CancellationToken* cancel) {
    cancel_ = cancel;
    return *this;
  }

  /// Attaches a memory budget charged by this execution's relation growth
  /// (pool growth + dedup rehash). Not owned: the budget must outlive the
  /// execution. A null budget (the default) means ungoverned. Like the
  /// cancellation token, the budget is a property of the binding and never
  /// reaches the plan cache.
  BoundQuery& WithBudget(QueryBudget* budget) {
    budget_ = budget;
    return *this;
  }

  const std::shared_ptr<const ExecutionPlan>& plan() const { return plan_; }
  /// The fully bound selection: engaged iff the prepared query has a σ
  /// parameter (Validate fails otherwise).
  const std::optional<Selection>& selection() const { return selection_; }
  const std::shared_ptr<const Relation>& seed() const { return seed_; }
  const std::shared_ptr<const std::vector<Relation>>& seeds() const {
    return seeds_;
  }
  const CancellationToken* cancel() const { return cancel_; }
  QueryBudget* budget() const { return budget_; }

  /// Checks the binding is complete and coherent: a plan is attached, any
  /// deferred Bind misuse (a σ value bound or missing against the plan's
  /// σ parameter, the wrong seed shape) surfaces here, and the seed(s)
  /// match the plan's arity or member count. Engine::Execute/ExecuteBatch
  /// call this first; execution re-checks none of it.
  Status Validate() const;

 private:
  friend class PreparedQuery;
  std::shared_ptr<const ExecutionPlan> plan_;
  std::optional<Selection> selection_;
  std::shared_ptr<const Relation> seed_;
  std::shared_ptr<const std::vector<Relation>> seeds_;
  const CancellationToken* cancel_ = nullptr;
  QueryBudget* budget_ = nullptr;
  /// First misuse of the fluent surface (Bind(v) without a σ parameter,
  /// Bind() with one, BindSeed on a joint plan, ...), reported by
  /// Validate.
  Status error_ = Status::OK();
};

}  // namespace linrec
