// Incremental view maintenance: the handle and delta types of the IVM
// subsystem (the delta engine lives in ivm/maintain.cc as the
// Engine::Materialize / Apply / Retract methods).
//
// A MaterializedView names one closed relation — or one per member of a
// joint component — living inside the engine's Database, together with
// the plan that produced it and the seed it was closed from. Updates
// arrive as deltas against the view's INPUTS:
//
//   * DeltaInsert — new seed tuples and/or new parameter tuples. Apply
//     extends the closure semi-naively from exactly the new tuples
//     (eval/joint.h JointSemiNaiveExtend): the closed part is never
//     re-derived, and every mutation is an append, so a failed Apply
//     rolls back by truncation to the exact pre-call bytes.
//
//   * DeltaDelete — seed tuples and/or parameter tuples to remove.
//     Retract runs delete-and-rederive (DRed): over-approximate the
//     affected tuples (everything derivable from a deleted tuple), then
//     re-derive the survivors of that suspect set from the untouched
//     remainder. Linearity makes both halves cheap: each derivation
//     consumes one recursive tuple, so "derivable from" is itself a
//     linear closure over the same rules, and a suspect's alternative
//     derivation is one head-bound probe. The removed rows are erased in
//     place; every other row keeps its position.
//
// The delta API reuses everything the from-scratch path uses: the
// compiled ExecutionPlan (strategy analysis is not repeated), the
// engine's shared index tier, the thread-current QueryBudget, and
// round-boundary cancellation.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "eval/stats.h"
#include "storage/relation.h"

namespace linrec {

class Engine;

/// New input tuples for one Apply call. Either part may be empty.
struct DeltaInsert {
  /// New seed tuples, one relation per view member (empty vector = no
  /// seed delta; otherwise must match the view's member count and
  /// arities). Tuples already in the closure are ignored (deduplicated).
  std::vector<Relation> seed_inserts;
  /// New tuples per parameter predicate, keyed by predicate name. Apply
  /// unions them into the engine database (creating missing relations)
  /// and seeds the delta rounds from them. Tuples already present are
  /// sound to pass — the union deduplicates and a stale delta row only
  /// re-derives heads the closure already contains — which is what lets
  /// a cascading caller insert facts up front and still hand the same
  /// tuples to every affected view.
  std::map<std::string, Relation> param_inserts;
};

/// Input tuples to remove for one Retract call. Same shape as
/// DeltaInsert; tuples that were never present are ignored.
struct DeltaDelete {
  std::vector<Relation> seed_deletes;
  /// Tuples to remove per parameter predicate. Retract filters them out
  /// of the engine database; the over-deletion pass reconstructs the
  /// pre-delete parameter (current ∪ delta) internally, so the call is
  /// correct whether or not a cascading caller already removed the
  /// tuples from the database.
  std::map<std::string, Relation> param_deletes;
};

/// What one Apply did. `appended[m]` is the half-open row range of
/// member m's relation holding every tuple this call added (new seed
/// rows first, then derived rows, in derivation order) — a cascading
/// caller reads the ranges to build the delta for downstream views.
struct ApplyOutcome {
  std::vector<std::pair<RowId, RowId>> appended;
  /// Total rows appended across members.
  std::size_t added = 0;
  ClosureStats stats;
};

/// What one Retract did. `removed[m]` holds the tuples that left member
/// m's relation (net of re-derivation) — the downstream delta for a
/// cascading caller. `rederived` counts suspects that survived because
/// an alternative derivation re-established them.
struct RetractOutcome {
  std::vector<Relation> removed;
  std::size_t removed_count = 0;
  std::size_t rederived = 0;
  ClosureStats stats;
};

/// Handle to a materialized closure maintained in place. Created by
/// Engine::Materialize; meaningful only with that engine (the closed
/// relations live in the engine's Database under names()). The view
/// owns the seed the closure was built from — Apply and Retract keep it
/// current, and it is what makes deletion well-defined (a deleted seed
/// tuple may still be re-derivable from the survivors).
class MaterializedView {
 public:
  MaterializedView() = default;

  /// Database names of the closed relations, one per member (a single
  /// non-joint view has exactly one).
  const std::vector<std::string>& names() const { return names_; }
  std::size_t member_count() const { return names_.size(); }
  bool joint() const {
    return plan_ != nullptr && plan_->strategy == Strategy::kJointSemiNaive;
  }

  /// The maintained seed of member `m` (what a from-scratch evaluation
  /// of the plan would be given today).
  const Relation& seed(std::size_t m = 0) const { return seeds_[m]; }

  /// The plan the view was materialized from (shared, never mutated).
  const ExecutionPlan& plan() const { return *plan_; }

  /// Lifetime counters for observability.
  std::uint64_t applies() const { return applies_; }
  std::uint64_t retracts() const { return retracts_; }
  std::uint64_t rederived() const { return rederived_; }

  /// Rollback surface for callers composing several Apply calls into one
  /// atomic cascade: Apply only ever APPENDS to the seeds, so recording
  /// SeedSizes() before the cascade and truncating back restores them
  /// byte-identically (pair with Relation::TruncateRows on the closed
  /// relations themselves).
  std::vector<std::size_t> SeedSizes() const {
    std::vector<std::size_t> sizes;
    sizes.reserve(seeds_.size());
    for (const Relation& s : seeds_) sizes.push_back(s.size());
    return sizes;
  }
  void TruncateSeeds(const std::vector<std::size_t>& sizes) {
    for (std::size_t m = 0; m < seeds_.size() && m < sizes.size(); ++m) {
      seeds_[m].TruncateRows(sizes[m]);
    }
  }

 private:
  friend class Engine;

  std::shared_ptr<const ExecutionPlan> plan_;
  std::vector<std::string> names_;
  std::vector<Relation> seeds_;
  std::uint64_t applies_ = 0;
  std::uint64_t retracts_ = 0;
  std::uint64_t rederived_ = 0;
};

}  // namespace linrec
