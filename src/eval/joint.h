// Joint multi-relation semi-naive fixpoint for mutually recursive
// predicates — one strongly connected component of the predicate
// dependency graph closed as a unit — and the round engine every closure
// in linrec runs on.
//
// The paper's processing class is single-predicate linear recursion; the
// joint fixpoint lifts the same computation model to *stratified linear
// mutual recursion*: every rule consumes exactly one tuple of exactly one
// member predicate (its "recursive atom") and derives into its head
// member, so the component closes by the familiar Δ-driven rounds — one Δ
// row-range per member relation instead of one. A single-predicate closure
// (eval/fixpoint.h) is the one-member case of the same engine. Rules
// compile once per closure (eval/apply.h CompiledRule), and every round
// runs serially on the calling thread, emitting straight into its target
// relations: a closure yields the same rows in the same order on every run
// and at every worker count. Parallelism lives above the closure, where
// queries are independent: the batch slots of Engine::ExecuteBatch.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "datalog/rule.h"
#include "eval/apply.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "storage/database.h"

namespace linrec {

/// One rule of a joint closure over member predicates 0..M-1. The rule's
/// head predicate is member `head_member`; body atom `recursive_atom` is
/// the single atom reading a member relation (`recursive_member`, which
/// may equal `head_member` — plain self-recursion inside the component).
/// Every other body atom must resolve outside the component (EDB or an
/// already-materialized lower stratum): the joint fixpoint overrides only
/// the recursive atom, so a second member atom in the body would silently
/// read stale data. ValidateJointRules rejects such rules as non-linear.
struct JointRule {
  Rule rule;
  int head_member = -1;
  int recursive_atom = -1;
  int recursive_member = -1;
};

/// The joint boundary validation of the closure entry points below:
/// members distinct (and not the reserved equality predicate), one seed
/// per member, every rule structurally valid and headed by its member
/// with its recursive atom reading `members[recursive_member]`,
/// head/recursive arities matching the seeds, and — the linearity
/// invariant — exactly one body atom naming any member (a second member
/// atom would resolve against `db`, where members are absent, and
/// silently compute a wrong fixpoint).
Status ValidateJointRules(const std::vector<std::string>& members,
                          const std::vector<JointRule>& rules,
                          const std::vector<Relation>& seeds);

/// Structure-only variant: everything ValidateJointRules checks except the
/// seed count and seed-arity consistency. Query::Validate runs it, since
/// seeds arrive per execution via BoundQuery::BindSeeds — the closure
/// entry points re-run the full validation against the actual seeds.
Status ValidateJointRuleStructure(const std::vector<std::string>& members,
                                  const std::vector<JointRule>& rules);

/// The round engine behind every closure: a joint rule set compiled
/// against borrowed member relations. `members[m]` is the relation the
/// recursive atoms of member m read; the rules are compiled against that
/// address, so the relations must stay put (they may grow). A round
/// applies every rule to a row range of its recursive member and appends
/// the derived rows straight into caller-given targets — the members
/// themselves for semi-naive and naive rounds, separate relations for
/// power sums. Appending to a member while its rows are being read is
/// safe: each Δ scan is bounded by its fixed row range, the recursive atom
/// is the only step reading a member (the rules are linear), and the join
/// kernel re-resolves row pointers per candidate, so an append that moves
/// the pool never invalidates a live read. The compiled rules and their
/// scratch persist across rounds: steady-state rounds allocate nothing.
class JointRoundEvaluator {
 public:
  JointRoundEvaluator(const Database& db, std::vector<Relation*> members)
      : db_(&db), members_(std::move(members)), by_member_(members_.size()) {}

  /// Eliminates equality atoms from `rules` (a rule left unsatisfiable
  /// derives nothing and is dropped) and compiles the rest. Every round
  /// probes parameter-relation indexes through `cache`.
  Status Compile(const std::vector<JointRule>& rules, IndexCache* cache);

  /// Applies every rule to its recursive member's rows [begin[m], end[m])
  /// and appends each derived row missing from targets[head member] to
  /// it. A non-null `cancel` is also probed inside the join cursor, so one
  /// runaway round stops in milliseconds.
  Status Round(const std::vector<RowId>& begin, const std::vector<RowId>& end,
               const std::vector<Relation*>& targets, ClosureStats* stats,
               const CancellationToken* cancel);

  /// Extends the members in place to their joint fixpoint, checking
  /// `cancel` at every round boundary. Semi-naive: the first round's Δ is
  /// rows [begin[m], size) of each member, and every later Δ is the rows
  /// the round before appended. Naive (`naive`): `begin` stays put, so
  /// every round re-reads all rows from it — all of them for a zero begin —
  /// until a round adds nothing.
  Status Close(std::vector<RowId> begin, bool naive, ClosureStats* stats,
               const CancellationToken* cancel);

 private:
  const Database* db_;
  std::vector<Relation*> members_;
  IndexCache* cache_ = nullptr;
  std::vector<CompiledRule> compiled_;
  std::vector<int> heads_;                   // compiled rule → head member
  std::vector<std::vector<int>> by_member_;  // member → consuming rules
};

/// Closes `members` in place under already validated `rules`
/// (JointRoundEvaluator::Close over a fresh evaluator) and records the
/// call in `stats`: its rounds, derivations and wall time, the result
/// size, and as duplicates every derivation that added no row. The shared
/// body of every semi-naive and naive entry point, single-predicate ones
/// included. A null `cache` means a call-local one.
Status CloseMembers(const std::vector<JointRule>& rules, const Database& db,
                    const std::vector<Relation*>& members,
                    std::vector<RowId> begin, bool naive, ClosureStats* stats,
                    IndexCache* cache, const CancellationToken* cancel);

/// Computes the least relations P_0..P_{M-1} with P_i ⊇ seeds[i] jointly
/// closed under every rule, by multi-relation semi-naive evaluation: each
/// round applies every rule to the Δ row-range of its recursive member
/// only. members[i] names P_i (used for validation); member arities are
/// the seed arities.
///
/// Equality atoms in rule bodies are statically eliminated up front
/// (rules left unsatisfiable contribute nothing). Parameter relations are
/// read from `db`; member relations are never read from `db` — the
/// recursive atom reads the evolving member relation via its override.
Result<std::vector<Relation>> JointSemiNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats = nullptr,
    IndexCache* cache = nullptr, const CancellationToken* cancel = nullptr);

/// In-place joint continuation — the multi-member counterpart of
/// SemiNaiveExtend (eval/fixpoint.h), with which the IVM delta engine
/// extends every view (a single-predicate view as one member).
/// `rels` borrows one relation per member whose rows [0, delta_begin[m])
/// form a jointly closed prefix (a fixpoint of the rules) and whose rows
/// [delta_begin[m], size) are freshly appended seed/delta tuples; the call
/// extends every member to the joint fixpoint of the union, running Δ
/// rounds from exactly the appended ranges. Nothing is copied: every
/// mutation is an append, so the caller rolls a failure back by truncating
/// each member to its pre-call size (Relation::TruncateRows).
Status JointSemiNaiveExtend(const std::vector<std::string>& members,
                            const std::vector<JointRule>& rules,
                            const Database& db,
                            const std::vector<Relation*>& rels,
                            const std::vector<RowId>& delta_begin,
                            ClosureStats* stats = nullptr,
                            IndexCache* cache = nullptr,
                            const CancellationToken* cancel = nullptr);

/// The same fixpoint by naive evaluation: each round re-applies every rule
/// to its recursive member's FULL relation. Reference/baseline only —
/// identical results with many more duplicate derivations.
Result<std::vector<Relation>> JointNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats = nullptr,
    IndexCache* cache = nullptr, const CancellationToken* cancel = nullptr);

}  // namespace linrec
