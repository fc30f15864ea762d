#include "eval/joint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "common/fault.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "datalog/printer.h"
#include "eval/apply.h"
#include "eval/chunking.h"
#include "eval/timing.h"

namespace linrec {
namespace {

/// Eliminates equality atoms up front, remapping the recursive atom index
/// (EliminateEqualities preserves the relative order of non-equality
/// atoms). Rules with unsatisfiable equalities are dropped.
Result<std::vector<JointRule>> PrepareJointRules(
    const std::vector<JointRule>& rules) {
  std::vector<JointRule> out;
  out.reserve(rules.size());
  for (const JointRule& jr : rules) {
    if (!HasEqualities(jr.rule)) {
      out.push_back(jr);
      continue;
    }
    int eq_before = 0;
    for (int i = 0; i < jr.recursive_atom; ++i) {
      if (jr.rule.body()[static_cast<std::size_t>(i)].predicate ==
          kEqualityPredicate) {
        ++eq_before;
      }
    }
    Result<std::optional<Rule>> eliminated = EliminateEqualities(jr.rule);
    if (!eliminated.ok()) return eliminated.status();
    if (!eliminated->has_value()) continue;
    JointRule prepared = jr;
    prepared.rule = std::move(**eliminated);
    prepared.recursive_atom = jr.recursive_atom - eq_before;
    out.push_back(std::move(prepared));
  }
  return out;
}

/// The multi-relation analogue of fixpoint.cc's RoundEvaluator: one Δ
/// row-range per member relation, rules compiled once per lane against
/// their recursive member's (fixed-address) relation, rounds either run
/// serially or fan every member's Δ chunks to one work-stealing pool and
/// fold per-member thread-local pools through the sharded merger.
class JointRoundEvaluator {
 public:
  JointRoundEvaluator(const std::vector<JointRule>& rules, const Database& db,
                      std::vector<Relation>* rels, int workers)
      : rules_(&rules),
        db_(&db),
        rels_(rels),
        workers_(std::max(workers, 1)) {
    by_member_.resize(rels->size());
    for (std::size_t k = 0; k < rules.size(); ++k) {
      by_member_[static_cast<std::size_t>(rules[k].recursive_member)]
          .push_back(static_cast<int>(k));
    }
  }

  /// True iff some rule consumes member `m` — a Δ on a member no rule
  /// reads cannot drive further derivations.
  bool Feeds(std::size_t m) const { return !by_member_[m].empty(); }

  Status Compile(IndexCache* caller_cache) {
    lanes_.resize(static_cast<std::size_t>(workers_));
    for (Lane& lane : lanes_) {
      lane.out.clear();
      lane.out.reserve(rels_->size());
      for (const Relation& r : *rels_) lane.out.emplace_back(r.arity());
      lane.compiled.clear();
      lane.compiled.reserve(rules_->size());
      for (const JointRule& jr : *rules_) {
        ApplyOptions options;
        options.overrides[jr.recursive_atom] =
            &(*rels_)[static_cast<std::size_t>(jr.recursive_member)];
        options.first_atom = jr.recursive_atom;
        Result<CompiledRule> compiled = CompileRule(jr.rule, *db_, options);
        if (!compiled.ok()) return compiled.status();
        lane.compiled.push_back(std::move(compiled).value());
      }
    }
    caller_cache_ = caller_cache;
    if (workers_ > 1) pool_.emplace(workers_);
    return Status::OK();
  }

  /// Applies every rule to its recursive member's rows
  /// [begin[m], end[m]) and appends the derived rows missing from the
  /// head member relations. The resulting family of relations is
  /// identical for every worker count (only insertion order varies).
  Status Round(const std::vector<RowId>& begin, const std::vector<RowId>& end,
               ClosureStats* stats, const CancellationToken* cancel) {
    std::size_t total_rows = 0;
    for (std::size_t m = 0; m < rels_->size(); ++m) {
      if (Feeds(m)) total_rows += end[m] - begin[m];
    }
    if (total_rows == 0) return Status::OK();
    if (workers_ == 1 || total_rows < kSerialRowThreshold ||
        pool_->participants() == 1) {
      return SerialRound(begin, end, stats, cancel);
    }

    const std::size_t chunk = std::max(
        kMinChunkRows,
        total_rows / (static_cast<std::size_t>(workers_) * kChunksPerLane));
    items_.clear();
    for (std::size_t m = 0; m < rels_->size(); ++m) {
      if (!Feeds(m)) continue;
      for (RowId b = begin[m]; b < end[m];
           b = static_cast<RowId>(
               std::min<std::size_t>(end[m], b + chunk))) {
        items_.push_back(Item{static_cast<int>(m), b,
                              static_cast<RowId>(std::min<std::size_t>(
                                  end[m], b + chunk))});
      }
    }
    for (Lane& lane : lanes_) {
      for (Relation& out : lane.out) out.Clear();
      lane.stats = ClosureStats{};
      lane.status = Status::OK();
    }
    // Same Δ-chunk-boundary cancellation, fault site and budget TLS
    // re-install as the single-relation Round (fixpoint.cc).
    QueryBudget* budget = CurrentQueryBudget();
    pool_->Run(items_.size(), [&, budget](int lane_id, std::size_t i) {
      Lane& lane = lanes_[static_cast<std::size_t>(lane_id)];
      if (!lane.status.ok()) return;
      if (cancel != nullptr && cancel->stop_requested()) {
        lane.status = cancel->Check();
        return;
      }
      if (FaultFires(FaultSite::kWorkerDispatch)) {
        lane.status = Status::Internal(
            StrCat("injected worker fault dispatching joint chunk ", i));
        return;
      }
      ScopedQueryBudget budget_scope(budget);
      const Item& item = items_[i];
      PartitionView slice =
          (*rels_)[static_cast<std::size_t>(item.member)].View(item.begin,
                                                               item.end);
      for (int k : by_member_[static_cast<std::size_t>(item.member)]) {
        Relation* out = &lane.out[static_cast<std::size_t>(
            (*rules_)[static_cast<std::size_t>(k)].head_member)];
        Status s = lane.RunOne(&lane.compiled[static_cast<std::size_t>(k)],
                               slice, out, LaneCache(lane_id), cancel);
        if (!s.ok()) {
          lane.status = std::move(s);
          return;
        }
      }
    });
    for (Lane& lane : lanes_) {
      if (!lane.status.ok()) return lane.status;
      if (stats != nullptr) stats->Accumulate(lane.stats);
    }
    std::vector<const Relation*> pools;
    pools.reserve(lanes_.size());
    for (std::size_t m = 0; m < rels_->size(); ++m) {
      pools.clear();
      for (Lane& lane : lanes_) pools.push_back(&lane.out[m]);
      try {
        merger_.Merge(pools.data(), pools.size(), &(*rels_)[m], &*pool_);
      } catch (const ResourceExhaustedError& e) {
        return Status::ResourceExhausted(e.what());
      } catch (const std::exception& e) {
        return Status::Internal(StrCat("parallel merge threw: ", e.what()));
      } catch (...) {
        return Status::Internal("parallel merge threw");
      }
    }
    return Status::OK();
  }

 private:
  struct Item {
    int member;
    RowId begin;
    RowId end;
  };

  // Cache-line aligned for the same reason as RoundEvaluator::Lane
  // (fixpoint.cc): per-lane hot state must not share lines across lanes.
  struct alignas(64) Lane {
    std::vector<CompiledRule> compiled;  // one per joint rule
    std::vector<Relation> out;           // one output pool per member
    IndexCache cache;
    ClosureStats stats;
    Status status;

    Status RunOne(CompiledRule* rule, PartitionView slice, Relation* out,
                  IndexCache* cache_ptr, const CancellationToken* cancel) {
      try {
        return rule->RunPartition(slice, out, &stats, cache_ptr, cancel);
      } catch (const ResourceExhaustedError& e) {
        return Status::ResourceExhausted(e.what());
      } catch (const std::bad_alloc&) {
        return Status::ResourceExhausted(
            "allocation failed in parallel round (out of memory)");
      } catch (const std::exception& e) {
        return Status::Internal(StrCat("parallel round threw: ", e.what()));
      } catch (...) {
        return Status::Internal("parallel round threw");
      }
    }
  };

  IndexCache* LaneCache(int lane_id) {
    if (lane_id == 0 && caller_cache_ != nullptr) return caller_cache_;
    return &lanes_[static_cast<std::size_t>(lane_id)].cache;
  }

  Status SerialRound(const std::vector<RowId>& begin,
                     const std::vector<RowId>& end, ClosureStats* stats,
                     const CancellationToken* cancel) {
    // Emit straight into the member relations. Safe for the same reason
    // the single-relation serial round is: each RunPartition's Δ scan is
    // bounded by a fixed row range, the recursive atom is the only step
    // reading a member relation, and the join kernel re-resolves row
    // pointers per candidate, so appends to any member — including the
    // one being scanned — never invalidate a live read.
    Lane& lane = lanes_.front();
    for (std::size_t m = 0; m < rels_->size(); ++m) {
      if (begin[m] >= end[m]) continue;
      PartitionView slice = (*rels_)[m].View(begin[m], end[m]);
      for (int k : by_member_[m]) {
        Relation* out = &(*rels_)[static_cast<std::size_t>(
            (*rules_)[static_cast<std::size_t>(k)].head_member)];
        LINREC_RETURN_IF_ERROR(
            lane.compiled[static_cast<std::size_t>(k)].RunPartition(
                slice, out, stats, LaneCache(0), cancel));
      }
    }
    return Status::OK();
  }

  const std::vector<JointRule>* rules_;
  const Database* db_;
  std::vector<Relation>* rels_;
  int workers_;
  IndexCache* caller_cache_ = nullptr;
  std::vector<std::vector<int>> by_member_;  // member → consuming rules
  std::vector<Lane> lanes_;
  std::vector<Item> items_;
  std::optional<WorkerPool> pool_;
  PoolMerger merger_;
};

std::size_t TotalSize(const std::vector<Relation>& rels) {
  std::size_t total = 0;
  for (const Relation& r : rels) total += r.size();
  return total;
}

/// Shared scaffolding of both closure entry points: validation, equality
/// elimination, the compiled evaluator, and the stats epilogue. Only the
/// round-driving loop differs — semi-naive feeds each round the rows the
/// previous one appended; naive re-feeds everything from row 0.
Result<std::vector<Relation>> CloseJoint(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, int workers, bool naive,
    const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<std::vector<Relation>> {
  LINREC_RETURN_IF_ERROR(ValidateJointRules(members, rules, seeds));
  Result<std::vector<JointRule>> prepared = PrepareJointRules(rules);
  if (!prepared.ok()) return prepared.status();
  ClosureTimer timer(stats);
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const std::size_t derivations0 = stats != nullptr ? stats->derivations : 0;

  std::vector<Relation> rels = seeds;
  const std::size_t seeded = TotalSize(rels);
  if (!prepared->empty()) {
    JointRoundEvaluator evaluator(*prepared, db, &rels, workers);
    LINREC_RETURN_IF_ERROR(evaluator.Compile(cache));
    const std::size_t member_count = rels.size();
    std::vector<RowId> begin(member_count, 0);
    std::vector<RowId> end(member_count, 0);
    for (;;) {
      std::size_t total_before = 0;
      std::size_t delta_rows = 0;
      for (std::size_t m = 0; m < member_count; ++m) {
        end[m] = static_cast<RowId>(rels[m].size());
        total_before += end[m];
        if (evaluator.Feeds(m)) delta_rows += end[m] - begin[m];
      }
      if (delta_rows == 0) break;
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      if (stats != nullptr) ++stats->iterations;
      LINREC_RETURN_IF_ERROR(evaluator.Round(begin, end, stats, cancel));
      if (naive) {
        // Re-feed everything each round; stop once a full re-application
        // adds nothing.
        if (TotalSize(rels) == total_before) break;
      } else {
        begin = end;  // next Δ: the rows this round appended
      }
    }
  }
  if (stats != nullptr) {
    stats->result_size = TotalSize(rels);
    stats->duplicates +=
        stats->derivations - derivations0 - (TotalSize(rels) - seeded);
  }
  return rels;
  });
}

}  // namespace

namespace {

/// Shared body of ValidateJointRules / ValidateJointRuleStructure: a null
/// `seeds` skips the seed-count and seed-arity checks (prepared queries
/// bind seeds per execution; the closure entry points re-validate fully).
Status ValidateJointImpl(const std::vector<std::string>& members,
                         const std::vector<JointRule>& rules,
                         const std::vector<Relation>* seeds) {
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
          (*seeds)[static_cast<std::size_t>(jr.head_member)].arity();
      if (jr.rule.head().arity() != head_arity) {
        return Status::InvalidArgument(
            StrCat("joint rule head arity ", jr.rule.head().arity(),
                   " does not match seed arity ", head_arity,
                   " of member '", head_name, "'"));
      }
      const std::size_t rec_arity =
          (*seeds)[static_cast<std::size_t>(jr.recursive_member)].arity();
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
  return ValidateJointImpl(members, rules, &seeds);
}

Status ValidateJointRuleStructure(const std::vector<std::string>& members,
                                  const std::vector<JointRule>& rules) {
  return ValidateJointImpl(members, rules, nullptr);
}

Result<std::vector<Relation>> JointSemiNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, int workers, const CancellationToken* cancel) {
  return CloseJoint(members, rules, db, seeds, stats, cache, workers,
                    /*naive=*/false, cancel);
}

Result<std::vector<Relation>> JointNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, int workers, const CancellationToken* cancel) {
  return CloseJoint(members, rules, db, seeds, stats, cache, workers,
                    /*naive=*/true, cancel);
}

Status JointSemiNaiveExtend(const std::vector<std::string>& members,
                            const std::vector<JointRule>& rules,
                            const Database& db, std::vector<Relation>* rels,
                            const std::vector<RowId>& delta_begin,
                            ClosureStats* stats, IndexCache* cache,
                            int workers, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Status {
    LINREC_RETURN_IF_ERROR(ValidateJointRules(members, rules, *rels));
    if (delta_begin.size() != rels->size()) {
      return Status::InvalidArgument(
          StrCat("joint extend has ", delta_begin.size(),
                 " delta offsets for ", rels->size(), " members"));
    }
    for (std::size_t m = 0; m < rels->size(); ++m) {
      if (delta_begin[m] > (*rels)[m].size()) {
        return Status::InvalidArgument(
            StrCat("delta_begin ", delta_begin[m], " past member ", m,
                   " size ", (*rels)[m].size()));
      }
    }
    Result<std::vector<JointRule>> prepared = PrepareJointRules(rules);
    if (!prepared.ok()) return prepared.status();
    ClosureTimer timer(stats);
    IndexCache local_cache;
    if (cache == nullptr) cache = &local_cache;
    if (prepared->empty()) return Status::OK();
    const std::size_t derivations0 = stats != nullptr ? stats->derivations : 0;
    const std::size_t seeded = TotalSize(*rels);

    JointRoundEvaluator evaluator(*prepared, db, rels, workers);
    LINREC_RETURN_IF_ERROR(evaluator.Compile(cache));
    const std::size_t member_count = rels->size();
    std::vector<RowId> begin = delta_begin;
    std::vector<RowId> end(member_count, 0);
    for (;;) {
      std::size_t delta_rows = 0;
      for (std::size_t m = 0; m < member_count; ++m) {
        end[m] = static_cast<RowId>((*rels)[m].size());
        if (evaluator.Feeds(m)) delta_rows += end[m] - begin[m];
      }
      if (delta_rows == 0) break;
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      if (stats != nullptr) ++stats->iterations;
      LINREC_RETURN_IF_ERROR(evaluator.Round(begin, end, stats, cancel));
      begin = end;
    }
    if (stats != nullptr) {
      stats->result_size = TotalSize(*rels);
      stats->duplicates +=
          stats->derivations - derivations0 - (TotalSize(*rels) - seeded);
    }
    return Status::OK();
  });
}

}  // namespace linrec
