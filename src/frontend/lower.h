// Frontend lowering: from parsed Datalog text to prepared engine plans.
//
// The parser (datalog/parser.h) produces rules, facts and "?-" query
// goals; this pass turns the *rules* into a CompiledProgram — the
// predicate dependency graph condensed into strongly connected components
// (common/scc.h), each recursive component compiled through
// Engine::Prepare into a seedless plan (singleton components through
// Query::Closure, mutual-recursion components through Query::JointClosure)
// — and turns *facts* and *goals* into per-session state and executions
// over it.
//
// The split mirrors the serving architecture:
//
//  * CompileProgram runs against a shared, planning-only Engine (the
//    "planner"), whose plan cache digests query structure. All sessions
//    funnel their Prepare calls through one Planner, so N sessions loading
//    the same program text cost exactly one plan-cache miss per distinct
//    closure structure. Compiled programs are immutable and shared
//    (engine/registry.h keys them on ProgramDigest).
//
//  * ProgramInstance is one session's evaluation state over a shared
//    CompiledProgram: a session-private Engine whose database holds that
//    session's named base relations plus whatever derived predicates its
//    queries have materialized so far. Goals evaluate lazily — a goal
//    materializes its dependency cone once and caches it; adding facts
//    invalidates the cache. A goal with exactly one constant over a
//    recursive singleton predicate takes the σ-bind fast path: the
//    constant becomes a PreparedQuery::Bind parameter, so the planner's
//    separable pushdown (Theorem 4.1) applies and the closure is computed
//    on the selected cone only.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/memory.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "datalog/ast.h"
#include "datalog/rule.h"
#include "engine/engine.h"
#include "ivm/view.h"

namespace linrec {

/// A shared planning front: one Engine (no data, only plan/analysis
/// caches) behind one mutex. Engines are not internally synchronized;
/// every cross-session Prepare goes through here — engine_ is
/// LINREC_GUARDED_BY(mu_), so a future accessor that reaches into the
/// planning engine without the lock fails the thread-safety build.
class Planner {
 public:
  explicit Planner(EngineOptions options = {}) : engine_(Database{}, options) {}

  Result<PreparedQuery> Prepare(const Query& query) LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return engine_.Prepare(query);
  }

  std::size_t plan_cache_hits() const LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return engine_.plan_cache_hits();
  }
  std::size_t plan_cache_misses() const LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return engine_.plan_cache_misses();
  }

 private:
  mutable Mutex mu_;
  Engine engine_ LINREC_GUARDED_BY(mu_);
};

/// One strongly connected component of the compiled program, in
/// dependency-first order. Singleton units have one member; joint units
/// (mutual recursion) one per component predicate.
struct CompiledUnit {
  std::vector<std::string> members;
  std::vector<std::size_t> arities;
  /// Per member: rules whose body reads no component predicate. They run
  /// once, into the seed.
  std::vector<std::vector<Rule>> base_rules;
  /// Singleton only: the linear recursive rules (kept so σ-bind variants
  /// can be prepared on demand for point queries).
  std::vector<LinearRule> linear;
  /// The seedless prepared closure; absent when the unit has no recursive
  /// rules (the seed is already the fixpoint).
  std::optional<PreparedQuery> closure;
  bool joint = false;
};

/// An immutable compiled program, shared across sessions.
struct CompiledProgram {
  /// ProgramDigest of the source rules — the registry key.
  std::string digest;
  /// Units in dependency-first (topological) order.
  std::vector<CompiledUnit> units;
  /// Derived predicate → index into `units` / member index within it.
  std::map<std::string, std::size_t> unit_of;
  std::map<std::string, std::size_t> member_of;
  /// Every predicate the rules read or derive → its one arity.
  std::map<std::string, std::size_t> arity_of;
  /// Engine plan explanation per recursive unit, for EXPLAIN.
  std::vector<std::string> plan_explanations;
};

/// Canonical structural digest of a rule set: the printed rule texts,
/// sorted — rule order never changes Datalog semantics, so permuted
/// submissions of one program share a digest (and therefore a registry
/// entry and its prepared plans).
std::string ProgramDigest(const std::vector<Rule>& rules);

/// Lowers `rules` into a CompiledProgram through `planner`. Fails on a
/// predicate used at two arities anywhere in the rules (heads and bodies),
/// non-linear recursion (self- or through a component), and anything
/// Engine::Prepare rejects.
Result<CompiledProgram> CompileProgram(const std::vector<Rule>& rules,
                                       Planner& planner);

/// What one incremental fact update did across the session's materialized
/// views — the counters the server surfaces per INSERT / DELETE reply and
/// aggregates into STATS / METRICS.
struct FactUpdateOutcome {
  /// Insert: the fact was new (false = already present, nothing changed).
  bool applied = false;
  /// Delete: the fact was present (false = absent, nothing changed).
  bool removed = false;
  /// Views whose closure actually changed.
  std::size_t views_applied = 0;
  std::size_t views_retracted = 0;
  /// Derived tuples appended / removed across every maintained view.
  std::size_t tuples_added = 0;
  std::size_t tuples_removed = 0;
  /// Suspects that survived deletion via an alternative derivation.
  std::size_t rederived = 0;
};

/// One session's evaluation state over a shared CompiledProgram.
/// Not internally synchronized: a session is single-threaded by design
/// (the server serializes each session's requests; concurrency is across
/// sessions, which share nothing but the Planner and the registry).
class ProgramInstance {
 public:
  explicit ProgramInstance(EngineOptions options = {});

  /// The session's private engine (database = base facts + materialized
  /// derived predicates). The engine's IndexCache is the session's tier.
  Engine& engine() { return *engine_; }

  /// Installs a compiled program. Previously materialized derived
  /// predicates are dropped; the session's base facts persist.
  void SetProgram(std::shared_ptr<const CompiledProgram> program);
  const std::shared_ptr<const CompiledProgram>& program() const {
    return program_;
  }

  /// Installs one LOAD as a whole: `program` is the LOAD's compiled rules
  /// (null when it brings none and the installed program stays), `facts`
  /// its ground facts. The whole LOAD is checked first (ValidateLoad), so a
  /// rejected one changes nothing. Then the program is installed, every
  /// fact lands in the session's base relations, and the engine is rebuilt
  /// once, dropping every materialized derived predicate (the fixpoints may
  /// grow). A LOAD with neither rules nor facts keeps the engine as it is.
  Status Load(std::shared_ptr<const CompiledProgram> program,
              const std::vector<Atom>& facts);

  /// Load of one fact under the installed program. Rejects facts for
  /// predicates the program derives, and facts whose arity differs from
  /// the loaded program's or the existing facts'. While nothing is
  /// materialized the fact is appended in place (the engine database
  /// equals the base facts); otherwise the engine is rebuilt once, dropping
  /// the materialized derived predicates as a LOAD does.
  Status AddFact(const Atom& fact);

  /// Adds one ground fact and maintains every materialized view
  /// incrementally (Engine::Apply): the new tuple's one-step consequences
  /// seed a semi-naive continuation per affected view, in dependency
  /// order, with each view's appended rows cascading into the next
  /// view's delta. Nothing is recomputed from scratch and goal caches
  /// stay warm. Atomic: on any failure (budget denial, cancellation,
  /// injected fault) every touched relation is truncated back to its
  /// pre-call bytes and the fact is not applied. Validation (groundness,
  /// derived-predicate rejection, arity) happens before any mutation.
  Result<FactUpdateOutcome> InsertFact(const Atom& fact,
                                       const CancellationToken* cancel =
                                           nullptr,
                                       QueryBudget* budget = nullptr);

  /// Removes one ground fact, maintaining every materialized view by
  /// delete-and-rederive (Engine::Retract), cascading net removals into
  /// downstream views; each unit re-seeds only the seed tuples the
  /// removals could have derived (SeedLosses). Absent facts are a no-op
  /// (removed = false).
  /// Atomic: a failure restores the base fact and rebuilds the session
  /// engine from the (restored) facts, dropping materializations.
  Result<FactUpdateOutcome> DeleteFact(const Atom& fact,
                                       const CancellationToken* cancel =
                                           nullptr,
                                       QueryBudget* budget = nullptr);

  /// Drops program and facts both.
  void Reset();

  /// Evaluates one query goal: materializes the goal's dependency cone
  /// (cached until facts change), takes the σ-bind fast path for a
  /// single-constant goal over a recursive singleton predicate, and
  /// filters rows against the goal's constants and repeated variables.
  /// `cancel` is checked at round boundaries (and inside the join cursor)
  /// of every closure run. A non-null `budget` is charged by every relation
  /// grown on the goal's behalf — including materializing its dependency
  /// cone — and denial surfaces as Status::ResourceExhausted.
  /// `row_limit` caps the rows copied into the reply relation (the closure
  /// itself always runs to fixpoint — correctness — but a reply is never
  /// materialized past the cap; pass cap+1 to keep truncation detectable).
  Result<QueryResult> EvalQuery(const Atom& goal, Planner& planner,
                                const CancellationToken* cancel = nullptr,
                                QueryBudget* budget = nullptr,
                                std::size_t row_limit = SIZE_MAX);

  /// Batch EvalQuery: σ-fast-path goals over one unit run concurrently
  /// through Engine::ExecuteBatchEach (per-slot budgets, aligned with
  /// `budgets` when non-null), the rest sequentially. `cancel` is the
  /// request's one token, shared by every goal. Replies align with `goals`;
  /// a failing goal fails alone.
  std::vector<Result<QueryResult>> EvalQueries(
      const std::vector<Atom>& goals, Planner& planner,
      const CancellationToken* cancel = nullptr,
      const std::vector<QueryBudget*>* budgets = nullptr,
      std::size_t row_limit = SIZE_MAX);

  /// Total derivations across every closure this session has run.
  std::size_t derivations() const { return totals_.derivations; }

  /// Accumulated execution counters across every closure this session has
  /// run — derivations plus the kernel-level set (rows scanned, probes
  /// issued). Exported via linrecd STATS.
  const ClosureStats& totals() const { return totals_; }

  /// Lifetime IVM counters across InsertFact / DeleteFact calls.
  std::uint64_t ivm_applies() const { return ivm_applies_; }
  std::uint64_t ivm_retracts() const { return ivm_retracts_; }
  std::uint64_t ivm_rederived() const { return ivm_rederived_; }

 private:
  /// Shared validation of a ground fact (groundness, derived-predicate
  /// rejection, arity against `program` — null when none is loaded — and
  /// the existing facts) — runs before any mutation.
  Status ValidateFact(const Atom& fact, const CompiledProgram* program) const;
  /// Checks a LOAD before it changes anything: `program` is the program
  /// the LOAD leaves installed. Each of `facts` is checked as ValidateFact
  /// does against `program`, and against the other `facts`; the session's
  /// existing facts are checked against `program`'s arities, and none may
  /// name a predicate `program` derives.
  Status ValidateLoad(const CompiledProgram* program,
                      const std::vector<Atom>& facts) const;
  /// Per-member one-step heads of the unit's BASE rules restricted to the
  /// updated predicates in `delta` (each run pins one body atom to its
  /// delta relation; the rest read the full session database, or the
  /// `images` entry for their predicate when there is one) — the seed
  /// delta the cascade feeds into Engine::Apply.
  Result<std::vector<Relation>> SeedDeltas(
      const CompiledUnit& unit, const std::map<std::string, Relation>& delta,
      const CancellationToken* cancel,
      const std::map<std::string, Relation>* images = nullptr);
  /// Per-member seed tuples that the `deleted` tuples took away, out of
  /// `seeds[m]` (member m's current seed; null = empty). Only heads of
  /// base-rule derivations consuming a deleted tuple are candidates; a
  /// candidate stays if it is still a fact of the member or a head-pinned
  /// base rule re-derives it over the post-delete database. Work follows
  /// the deleted tuples, not the size of the seed.
  Result<std::vector<Relation>> SeedLosses(
      const CompiledUnit& unit, const std::map<std::string, Relation>& deleted,
      const std::vector<const Relation*>& seeds,
      const CancellationToken* cancel);
  /// True if `goal` qualifies for the σ-bind fast path; fills position
  /// and value.
  bool SigmaFastPath(const Atom& goal, const CompiledUnit& unit,
                     int* position, Value* value) const;
  /// Ensures units [0, limit) are materialized into the session database.
  Status MaterializeUpTo(std::size_t limit, const CancellationToken* cancel);
  Status MaterializeUnit(std::size_t index, const CancellationToken* cancel);
  /// Seed of one unit member: session facts plus base rules.
  Result<Relation> SeedMember(const CompiledUnit& unit, std::size_t member,
                              const CancellationToken* cancel);
  /// Recreates the session engine from the base facts (invalidation path:
  /// a fresh engine drops materializations and every cached index).
  void RebuildEngine();

  EngineOptions options_;
  /// Base facts, kept apart from the engine database so invalidation can
  /// rebuild it (materialization overwrites derived entries in place).
  Database facts_;
  std::unique_ptr<Engine> engine_;
  std::shared_ptr<const CompiledProgram> program_;
  /// Units fully materialized into the engine database (prefix lengths:
  /// units materialize in dependency order).
  std::size_t materialized_ = 0;
  /// Per-unit IVM handles, aligned with program_->units for the
  /// materialized prefix. Engaged for units with a prepared closure
  /// (recursive); units whose fixpoint IS the seed are maintained
  /// directly. Cleared by RebuildEngine (views name relations of the
  /// dropped engine).
  std::vector<std::optional<MaterializedView>> views_;
  ClosureStats totals_;
  std::uint64_t ivm_applies_ = 0;
  std::uint64_t ivm_retracts_ = 0;
  std::uint64_t ivm_rederived_ = 0;
};

/// Filters `rows` against `goal`: constants must match their column,
/// repeated variables must agree across their columns. Distinct variables
/// match anything. At most `row_limit` matching rows are copied into the
/// result, in row order — the streaming cap: a reply over a huge closure
/// materializes O(row_limit) rows, not a second full copy. A σ goal (one
/// constant, no repeated variable) runs as Relation::WhereEquals, a single
/// sweep of the constant's column.
Relation MatchGoal(const Relation& rows, const Atom& goal,
                   std::size_t row_limit = SIZE_MAX);

}  // namespace linrec
