#include "eval/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/fault.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "eval/chunking.h"
#include "eval/timing.h"

namespace linrec {
namespace {

/// Eliminates equality atoms up front; rules with unsatisfiable equalities
/// contribute nothing and are dropped.
Result<std::vector<LinearRule>> PrepareRules(
    const std::vector<LinearRule>& rules) {
  std::vector<LinearRule> out;
  out.reserve(rules.size());
  for (const LinearRule& lr : rules) {
    if (!HasEqualities(lr.rule())) {
      out.push_back(lr);
      continue;
    }
    Result<std::optional<LinearRule>> eliminated =
        EliminateEqualitiesLinear(lr);
    if (!eliminated.ok()) return eliminated.status();
    if (eliminated->has_value()) out.push_back(std::move(**eliminated));
  }
  return out;
}

/// Derivations recorded in `stats` so far (0 without stats). Closures
/// take it on entry and count their duplicates as the derivations made
/// since then minus the rows they added, so a caller threading one
/// ClosureStats through several calls gets the sum of per-call counts.
std::size_t DerivationsSoFar(const ClosureStats* stats) {
  return stats != nullptr ? stats->derivations : 0;
}

Status ValidateRules(const std::vector<LinearRule>& rules, const Relation& q) {
  if (rules.empty()) {
    return Status::InvalidArgument("closure requires at least one rule");
  }
  for (const LinearRule& lr : rules) {
    if (lr.arity() != q.arity()) {
      return Status::InvalidArgument(
          StrCat("rule head arity ", lr.arity(),
                 " does not match initial relation arity ", q.arity()));
    }
    if (lr.recursive_predicate() != rules[0].recursive_predicate()) {
      return Status::InvalidArgument(
          StrCat("rules mix recursive predicates '",
                 rules[0].recursive_predicate(), "' and '",
                 lr.recursive_predicate(), "'"));
    }
  }
  return Status::OK();
}

/// Applies one prepared rule set to row ranges of a fixed input relation —
/// the engine of every round below. Compiles each rule once per worker lane
/// (the join plan and its scratch are lane-private); each Round() then
/// either runs lane 0 serially or fans cache-sized Δ chunks out to the
/// work-stealing pool and folds the thread-local output pools into the
/// target through the sharded merger. Lanes, their index caches, output
/// pools, the pool's threads and the merger's scratch all persist across
/// rounds: the steady state does no locking and no allocation on the hot
/// path.
class RoundEvaluator {
 public:
  /// `input` is the relation every rule's recursive atom reads; row ranges
  /// passed to Round() index into it. It may be (and for semi-naive is) the
  /// same relation rounds merge into: Round() only mutates it after all
  /// reads of the batch have completed.
  RoundEvaluator(const std::vector<LinearRule>& rules, const Database& db,
                 const Relation* input, int workers)
      : rules_(&rules),
        db_(&db),
        input_(input),
        workers_(std::max(workers, 1)) {}

  /// Compiles every rule for every lane. Lane 0 borrows `caller_cache` (so
  /// the caller's parameter-relation indexes are shared, exactly like the
  /// serial path always has); other lanes own private caches that live
  /// across rounds.
  Status Compile(IndexCache* caller_cache) {
    lanes_.resize(static_cast<std::size_t>(workers_));
    for (Lane& lane : lanes_) {
      lane.out = Relation(input_->arity());
      lane.compiled.clear();
      lane.compiled.reserve(rules_->size());
      for (const LinearRule& lr : *rules_) {
        ApplyOptions options;
        options.overrides[lr.recursive_atom_index()] = input_;
        options.first_atom = lr.recursive_atom_index();
        Result<CompiledRule> compiled =
            CompileRule(lr.rule(), *db_, options);
        if (!compiled.ok()) return compiled.status();
        lane.compiled.push_back(std::move(compiled).value());
      }
    }
    caller_cache_ = caller_cache;
    if (workers_ > 1) pool_.emplace(workers_);
    return Status::OK();
  }

  /// Applies every rule to input rows [begin, end) and appends the derived
  /// rows missing from `*target` to `*target`. The resulting relation is
  /// identical for every worker count; only the insertion order of the new
  /// rows varies with the chunking. A non-null `cancel` is checked at every
  /// Δ-chunk boundary (and inside the join cursor), so one runaway round
  /// stops in milliseconds instead of running to completion.
  Status Round(RowId begin, RowId end, Relation* target, ClosureStats* stats,
               const CancellationToken* cancel) {
    const std::size_t rows = end - begin;
    if (rows == 0) return Status::OK();
    // The chunked path only pays for itself with real threads: when the
    // host gives the pool no helpers (single hardware thread), thread-local
    // pools and the sharded merge are pure overhead over direct emission.
    if (workers_ == 1 || rows < kSerialRowThreshold ||
        pool_->participants() == 1) {
      return SerialRound(begin, end, target, stats, cancel);
    }

    const std::size_t chunk = std::max(
        kMinChunkRows,
        rows / (static_cast<std::size_t>(workers_) * kChunksPerLane));
    const std::size_t chunks = (rows + chunk - 1) / chunk;
    for (Lane& lane : lanes_) {
      lane.out.Clear();
      lane.stats = ClosureStats{};
      lane.status = Status::OK();
    }
    // Pool threads have their own (empty) budget TLS: re-install the calling
    // thread's budget inside every lane so their output-pool growth is
    // charged to the query being evaluated.
    QueryBudget* budget = CurrentQueryBudget();
    pool_->Run(chunks, [&, budget](int lane_id, std::size_t c) {
      Lane& lane = lanes_[static_cast<std::size_t>(lane_id)];
      if (!lane.status.ok()) return;
      if (cancel != nullptr && cancel->stop_requested()) {
        lane.status = cancel->Check();
        return;
      }
      if (FaultFires(FaultSite::kWorkerDispatch)) {
        lane.status = Status::Internal(
            StrCat("injected worker fault dispatching chunk ", c));
        return;
      }
      ScopedQueryBudget budget_scope(budget);
      const RowId chunk_begin = begin + static_cast<RowId>(c * chunk);
      const RowId chunk_end = static_cast<RowId>(
          std::min<std::size_t>(end, chunk_begin + chunk));
      PartitionView slice = input_->View(chunk_begin, chunk_end);
      for (CompiledRule& rule : lane.compiled) {
        Status s = lane.RunOne(&rule, slice, LaneCache(lane_id), cancel);
        if (!s.ok()) {
          lane.status = std::move(s);
          return;
        }
      }
    });
    std::vector<const Relation*> pools;
    pools.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      if (!lane.status.ok()) return lane.status;
      if (stats != nullptr) stats->Accumulate(lane.stats);
      pools.push_back(&lane.out);
    }
    try {
      merger_.Merge(pools.data(), pools.size(), target, &*pool_);
    } catch (const ResourceExhaustedError& e) {
      return Status::ResourceExhausted(e.what());
    } catch (const std::exception& e) {
      return Status::Internal(StrCat("parallel merge threw: ", e.what()));
    } catch (...) {
      return Status::Internal("parallel merge threw");
    }
    return Status::OK();
  }

 private:
  // Cache-line aligned: each worker lane mutates its own entry (stats
  // counters, output pool headers) on every candidate row; without the
  // alignment two lanes' hot fields can share one line and ping-pong it.
  struct alignas(64) Lane {
    std::vector<CompiledRule> compiled;
    IndexCache cache;
    Relation out;
    ClosureStats stats;
    Status status;

    /// Wrapped so an exception escaping the join (a denied budget charge,
    /// bad_alloc, a throwing assertion) becomes a Status instead of
    /// terminating a pool thread.
    Status RunOne(CompiledRule* rule, PartitionView slice,
                  IndexCache* cache_ptr, const CancellationToken* cancel) {
      try {
        return rule->RunPartition(slice, &out, &stats, cache_ptr, cancel);
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

  Status SerialRound(RowId begin, RowId end, Relation* target,
                     ClosureStats* stats, const CancellationToken* cancel) {
    // Emit straight into the target — no intermediate pool, one dedup probe
    // per derivation. Safe even when target == input (the semi-naive case):
    // the cursor's Δ scan is bounded by `end`, the recursive atom is the
    // only step reading `input` (the rules are linear), and the join kernel
    // re-resolves row pointers per candidate, so appends — which may move
    // the pool — never invalidate a live read.
    PartitionView slice = input_->View(begin, end);
    for (CompiledRule& rule : lanes_.front().compiled) {
      LINREC_RETURN_IF_ERROR(
          rule.RunPartition(slice, target, stats, LaneCache(0), cancel));
    }
    return Status::OK();
  }

  const std::vector<LinearRule>* rules_;
  const Database* db_;
  const Relation* input_;
  int workers_;
  IndexCache* caller_cache_ = nullptr;
  std::vector<Lane> lanes_;
  std::optional<WorkerPool> pool_;
  PoolMerger merger_;
};

/// The Δ-driven loop shared by SemiNaiveClosure and SemiNaiveResume. The Δ
/// of each round is the row range of `result` appended by the previous one
/// — rows [delta_begin, size) — so no tuple is ever copied into a separate
/// Δ relation and the next Δ materializes as a side effect of the merge.
Status RunSemiNaive(const std::vector<LinearRule>& rules, const Database& db,
                    Relation* result, RowId delta_begin, ClosureStats* stats,
                    IndexCache* cache, int workers,
                    const CancellationToken* cancel) {
  if (rules.empty() || delta_begin >= result->size()) return Status::OK();
  RoundEvaluator evaluator(rules, db, result, workers);
  LINREC_RETURN_IF_ERROR(evaluator.Compile(cache));
  RowId begin = delta_begin;
  while (begin < result->size()) {
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    if (stats != nullptr) ++stats->iterations;
    RowId end = static_cast<RowId>(result->size());
    LINREC_RETURN_IF_ERROR(evaluator.Round(begin, end, result, stats, cancel));
    begin = end;
  }
  return Status::OK();
}

}  // namespace

// Every public closure entry point runs under GuardAllocFailures: a denied
// budget charge (or injected allocation fault) on the calling thread throws
// ResourceExhaustedError out of the storage layer, and the guard converts it
// — like a genuine bad_alloc — into Status::ResourceExhausted. Worker-lane
// threads convert theirs in Lane::RunOne, so both paths produce the same
// typed status.
Result<Relation> SemiNaiveClosure(const std::vector<LinearRule>& rules,
                                  const Database& db, const Relation& q,
                                  ClosureStats* stats, IndexCache* cache,
                                  int workers,
                                  const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
  Result<std::vector<LinearRule>> prepared = PrepareRules(rules);
  if (!prepared.ok()) return prepared.status();
  ClosureTimer timer(stats);
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const std::size_t derivations0 = DerivationsSoFar(stats);

  Relation result = q;
  LINREC_RETURN_IF_ERROR(
      RunSemiNaive(*prepared, db, &result, 0, stats, cache, workers,
                   cancel));
  if (stats != nullptr) {
    stats->result_size = result.size();
    stats->duplicates += stats->derivations - derivations0 -
                         (result.size() - q.size());
  }
  return result;
  });
}

Result<Relation> SemiNaiveResume(const std::vector<LinearRule>& rules,
                                 const Database& db, const Relation& closed,
                                 const Relation& extra, ClosureStats* stats,
                                 IndexCache* cache, int workers,
                                 const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, closed));
  if (extra.arity() != closed.arity()) {
    return Status::InvalidArgument(
        StrCat("extra arity ", extra.arity(), " != closed arity ",
               closed.arity()));
  }
  Result<std::vector<LinearRule>> prepared = PrepareRules(rules);
  if (!prepared.ok()) return prepared.status();
  ClosureTimer timer(stats);
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const std::size_t derivations0 = DerivationsSoFar(stats);

  // Seed the Δ with the genuinely new tuples only. Because every rule is
  // linear — each derivation consumes exactly one recursive tuple — and
  // `closed` is a fixpoint of the rules, derivations whose recursive input
  // lies in `closed` can only reproduce `closed`; they need not be re-run.
  // The new tuples are appended to `result`, so the initial Δ is exactly
  // the row range past the closed prefix.
  Relation result = closed;
  RowId delta_begin = static_cast<RowId>(result.size());
  result.Reserve(result.size() + extra.size());
  for (TupleView t : extra) result.Insert(t);
  std::size_t seeded = result.size();

  LINREC_RETURN_IF_ERROR(RunSemiNaive(*prepared, db, &result, delta_begin,
                                      stats, cache, workers, cancel));
  if (stats != nullptr) {
    stats->result_size = result.size();
    stats->duplicates +=
        stats->derivations - derivations0 - (result.size() - seeded);
  }
  return result;
  });
}

Status SemiNaiveExtend(const std::vector<LinearRule>& rules,
                       const Database& db, Relation* result,
                       RowId delta_begin, ClosureStats* stats,
                       IndexCache* cache, int workers,
                       const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Status {
    LINREC_RETURN_IF_ERROR(ValidateRules(rules, *result));
    if (delta_begin > result->size()) {
      return Status::InvalidArgument(
          StrCat("delta_begin ", delta_begin, " past result size ",
                 result->size()));
    }
    Result<std::vector<LinearRule>> prepared = PrepareRules(rules);
    if (!prepared.ok()) return prepared.status();
    ClosureTimer timer(stats);
    IndexCache local_cache;
    if (cache == nullptr) cache = &local_cache;
    const std::size_t derivations0 = DerivationsSoFar(stats);
    const std::size_t seeded = result->size();
    LINREC_RETURN_IF_ERROR(RunSemiNaive(*prepared, db, result, delta_begin,
                                        stats, cache, workers, cancel));
    if (stats != nullptr) {
      stats->result_size = result->size();
      stats->duplicates +=
          stats->derivations - derivations0 - (result->size() - seeded);
    }
    return Status::OK();
  });
}

Result<Relation> NaiveClosure(const std::vector<LinearRule>& rules,
                              const Database& db, const Relation& q,
                              ClosureStats* stats, IndexCache* cache,
                              int workers, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
  Result<std::vector<LinearRule>> prepared = PrepareRules(rules);
  if (!prepared.ok()) return prepared.status();
  ClosureTimer timer(stats);
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const std::size_t derivations0 = DerivationsSoFar(stats);

  Relation result = q;
  if (prepared->empty()) {
    if (stats != nullptr) stats->result_size = result.size();
    return result;
  }
  RoundEvaluator evaluator(*prepared, db, &result, workers);
  LINREC_RETURN_IF_ERROR(evaluator.Compile(cache));
  bool changed = true;
  while (changed) {
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    if (stats != nullptr) ++stats->iterations;
    RowId before = static_cast<RowId>(result.size());
    LINREC_RETURN_IF_ERROR(
        evaluator.Round(0, before, &result, stats, cancel));
    changed = result.size() > before;
  }
  if (stats != nullptr) {
    stats->result_size = result.size();
    stats->duplicates += stats->derivations - derivations0 -
                         (result.size() - q.size());
  }
  return result;
  });
}

Result<Relation> PowerSum(const std::vector<LinearRule>& rules,
                          const Database& db, const Relation& q,
                          int max_power, ClosureStats* stats,
                          IndexCache* cache, int workers,
                          const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
  LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
  if (max_power < 0) {
    return Status::InvalidArgument("max_power must be >= 0");
  }
  Result<std::vector<LinearRule>> prepared = PrepareRules(rules);
  if (!prepared.ok()) return prepared.status();
  ClosureTimer timer(stats);
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const std::size_t derivations0 = DerivationsSoFar(stats);

  Relation result = q;  // the m = 0 term
  Relation current = q;
  if (prepared->empty()) {
    if (stats != nullptr) stats->result_size = result.size();
    return result;
  }
  // `current` is the fixed input address the compiled rules read; each
  // power produces into `next`, then the two swap.
  RoundEvaluator evaluator(*prepared, db, &current, workers);
  LINREC_RETURN_IF_ERROR(evaluator.Compile(cache));
  Relation next(q.arity());
  for (int m = 1; m <= max_power; ++m) {
    LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
    if (stats != nullptr) ++stats->iterations;
    next.Clear();
    LINREC_RETURN_IF_ERROR(evaluator.Round(
        0, static_cast<RowId>(current.size()), &next, stats, cancel));
    std::swap(current, next);
    if (current.empty()) break;
    result.UnionWith(current);
  }
  if (stats != nullptr) {
    stats->result_size = result.size();
    stats->duplicates += stats->derivations - derivations0 -
                         (result.size() - q.size());
  }
  return result;
  });
}

}  // namespace linrec
