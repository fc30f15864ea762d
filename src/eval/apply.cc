#include "eval/apply.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>

#include "common/strings.h"
#include "datalog/equality.h"
#include "datalog/printer.h"

namespace linrec {
namespace {

/// Per-atom compiled join step. Positions are classified against the static
/// set of variables bound by earlier steps, so the inner loop does no
/// case analysis beyond a precomputed dispatch.
struct JoinStep {
  const Relation* relation = nullptr;
  // Positions whose value is known before this step: constants and
  // already-bound variables. Used as the index key.
  std::vector<int> key_positions;
  // For each key position, the constant value or the variable to read.
  struct KeyPart {
    bool is_const;
    Value constant;
    VarId var;
  };
  std::vector<KeyPart> key_parts;
  // Positions that bind a new variable (first occurrence in this atom).
  std::vector<std::pair<int, VarId>> bind_positions;
  // Positions that must equal an earlier position of this same atom
  // (repeated new variable within the atom): (position, variable).
  std::vector<std::pair<int, VarId>> check_positions;
  // Every position is bound: the candidate is found by one probe of the
  // relation's own dedup table, so no HashIndex over all positions.
  bool full_key = false;
  // Candidate rows contained here are skipped (ApplyOptions::excludes).
  const Relation* exclude = nullptr;
};

/// Per-depth cursor of the iterative join loop: the candidate row-id span
/// (nullptr ⇒ scan of [next, limit) row ids) and the next candidate. A
/// full-key step's span is its one dedup-table hit, held in `single`.
struct JoinFrame {
  const RowId* rows = nullptr;
  std::size_t next = 0;
  std::size_t limit = 0;
  RowId single = 0;
};

}  // namespace

struct CompiledRule::Impl {
  // --- set at compile time ------------------------------------------------
  std::vector<JoinStep> steps;
  /// Head term templates: constants pre-filled in head_values; variables as
  /// (position, var) pairs filled per emit.
  std::vector<std::pair<std::size_t, VarId>> head_vars;
  std::size_t head_arity = 0;
  /// True when some body predicate resolved to no relation at all: the rule
  /// can never derive anything (Run is a successful no-op, like the
  /// original ApplyRule's early return).
  bool no_input = false;
  /// Index of the step the partition applies to (always 0: the forced
  /// first atom); -1 when no first atom was forced (RunPartition invalid).
  bool partitionable = false;

  // --- per-Run scratch (why Run is not thread-safe) -----------------------
  std::vector<Value> binding;
  std::vector<Value> key_buf;
  std::vector<Value> head_values;
  std::vector<JoinFrame> frames;
  std::vector<const HashIndex*> indexes;
  /// Pending head rows (kEmitBatch × head_arity values) and their hashes:
  /// emits are buffered so the output table's probe slots can be
  /// prefetched a batch ahead — the probes' cache misses overlap instead
  /// of stalling the join one emit at a time.
  static constexpr std::size_t kEmitBatch = 16;
  std::vector<Value> emit_rows;
  std::vector<std::size_t> emit_hashes;

  Status Execute(const PartitionView* delta, Relation* out,
                 ClosureStats* stats, IndexCache* cache,
                 const CancellationToken* cancel);
};

CompiledRule::CompiledRule() : impl_(new Impl) {}
CompiledRule::~CompiledRule() = default;
CompiledRule::CompiledRule(CompiledRule&&) noexcept = default;
CompiledRule& CompiledRule::operator=(CompiledRule&&) noexcept = default;

Result<CompiledRule> CompileRule(const Rule& rule, const Database& db,
                                 const ApplyOptions& options) {
  CompiledRule compiled;
  CompiledRule::Impl& impl = *compiled.impl_;
  const std::vector<Atom>& body = rule.body();
  for (const Atom& atom : body) {
    if (atom.predicate == kEqualityPredicate) {
      return Status::InvalidArgument(
          "rule contains equality atoms; run EliminateEqualities first "
          "(closure routines do this automatically)");
    }
  }

  // Resolve each body atom to a relation (override > database > empty).
  std::vector<const Relation*> relations(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    auto ov = options.overrides.find(static_cast<int>(i));
    if (ov != options.overrides.end()) {
      relations[i] = ov->second;
    } else {
      relations[i] = db.Find(body[i].predicate);
    }
    if (relations[i] != nullptr &&
        relations[i]->arity() != body[i].arity()) {
      return Status::InvalidArgument(
          StrCat("relation for '", body[i].predicate, "' has arity ",
                 relations[i]->arity(), ", atom expects ", body[i].arity()));
    }
    if (relations[i] == nullptr) impl.no_input = true;
  }
  for (const auto& [atom, excluded] : options.excludes) {
    if (atom < 0 || static_cast<std::size_t>(atom) >= body.size() ||
        excluded->arity() != body[static_cast<std::size_t>(atom)].arity()) {
      return Status::InvalidArgument(
          StrCat("exclusion for body atom ", atom, " does not fit the rule"));
    }
  }

  // Greedy join order: start with the forced atom (or the smallest
  // relation); then repeatedly take the atom with the most bound positions,
  // tie-breaking on relation size. Sizes are compile-time sizes: the order
  // is frozen for the closure (any order is correct; the forced-Δ-first
  // property, which is what matters, is structural).
  const int n = static_cast<int>(body.size());
  std::vector<bool> used(body.size(), false);
  std::vector<bool> bound(static_cast<std::size_t>(rule.var_count()), false);
  std::vector<int> order;
  order.reserve(body.size());

  auto rel_size = [&](int i) {
    const Relation* r = relations[static_cast<std::size_t>(i)];
    return r == nullptr ? static_cast<std::size_t>(0) : r->size();
  };
  auto bound_score = [&](int i) {
    int score = 0;
    for (const Term& t : body[static_cast<std::size_t>(i)].terms) {
      if (t.is_const() || bound[static_cast<std::size_t>(t.var())]) ++score;
    }
    return score;
  };

  int first = options.first_atom;
  if (first < 0) {
    std::size_t best_size = SIZE_MAX;
    for (int i = 0; i < n; ++i) {
      if (rel_size(i) < best_size) {
        best_size = rel_size(i);
        first = i;
      }
    }
  } else {
    impl.partitionable = true;
  }
  auto mark_used = [&](int i) {
    used[static_cast<std::size_t>(i)] = true;
    order.push_back(i);
    for (const Term& t : body[static_cast<std::size_t>(i)].terms) {
      if (t.is_var()) bound[static_cast<std::size_t>(t.var())] = true;
    }
  };
  if (n > 0) mark_used(first);
  while (static_cast<int>(order.size()) < n) {
    int best = -1;
    int best_bound = -1;
    std::size_t best_size = SIZE_MAX;
    for (int i = 0; i < n; ++i) {
      if (used[static_cast<std::size_t>(i)]) continue;
      int b = bound_score(i);
      std::size_t sz = rel_size(i);
      if (b > best_bound || (b == best_bound && sz < best_size)) {
        best = i;
        best_bound = b;
        best_size = sz;
      }
    }
    mark_used(best);
  }

  // Compile join steps against the chosen order.
  std::fill(bound.begin(), bound.end(), false);
  impl.steps.reserve(body.size());
  std::size_t max_key_len = 0;
  for (int atom_index : order) {
    const Atom& atom = body[static_cast<std::size_t>(atom_index)];
    JoinStep step;
    step.relation = relations[static_cast<std::size_t>(atom_index)];
    std::vector<bool> bound_here = bound;  // copy: track intra-atom bindings
    for (std::size_t p = 0; p < atom.terms.size(); ++p) {
      const Term& t = atom.terms[p];
      if (t.is_const()) {
        step.key_positions.push_back(static_cast<int>(p));
        step.key_parts.push_back({true, t.constant(), -1});
      } else if (bound[static_cast<std::size_t>(t.var())]) {
        step.key_positions.push_back(static_cast<int>(p));
        step.key_parts.push_back({false, 0, t.var()});
      } else if (bound_here[static_cast<std::size_t>(t.var())]) {
        step.check_positions.push_back({static_cast<int>(p), t.var()});
      } else {
        step.bind_positions.push_back({static_cast<int>(p), t.var()});
        bound_here[static_cast<std::size_t>(t.var())] = true;
      }
    }
    bound = bound_here;
    step.full_key =
        !atom.terms.empty() && step.key_positions.size() == atom.terms.size();
    auto excluded = options.excludes.find(atom_index);
    if (excluded != options.excludes.end()) step.exclude = excluded->second;
    max_key_len = std::max(max_key_len, step.key_positions.size());
    impl.steps.push_back(std::move(step));
  }

  // The head must be fully bound by the body.
  impl.head_arity = rule.head().arity();
  impl.head_values.assign(impl.head_arity, 0);
  for (std::size_t i = 0; i < rule.head().terms.size(); ++i) {
    const Term& t = rule.head().terms[i];
    if (t.is_const()) {
      impl.head_values[i] = t.constant();
    } else {
      if (!bound[static_cast<std::size_t>(t.var())]) {
        return Status::InvalidArgument(
            StrCat("head variable '", rule.var_name(t.var()),
                   "' is not bound by the body in rule: ", ToString(rule)));
      }
      impl.head_vars.push_back({i, t.var()});
    }
  }

  impl.binding.assign(static_cast<std::size_t>(rule.var_count()), 0);
  impl.key_buf.assign(max_key_len, 0);
  impl.frames.resize(impl.steps.size());
  impl.indexes.assign(impl.steps.size(), nullptr);
  impl.emit_rows.reserve(CompiledRule::Impl::kEmitBatch * impl.head_arity);
  impl.emit_hashes.reserve(CompiledRule::Impl::kEmitBatch);
  return compiled;
}

Status CompiledRule::Impl::Execute(const PartitionView* delta, Relation* out,
                                   ClosureStats* stats, IndexCache* cache,
                                   const CancellationToken* cancel) {
  if (out->arity() != head_arity) {
    return Status::InvalidArgument(StrCat("output arity ", out->arity(),
                                          " != head arity ", head_arity));
  }
  // Empty input somewhere: no derivations possible (and, matching the
  // original ApplyRule, no stats are charged).
  if (no_input) return Status::OK();
  for (const JoinStep& step : steps) {
    if (step.relation->empty()) return Status::OK();
  }
  if (delta != nullptr) {
    assert(partitionable && !steps.empty() &&
           delta->relation == steps.front().relation &&
           "partition must view the compiled first atom's relation");
    if (delta->empty()) return Status::OK();
  }

  // Re-resolve indexes through the cache: relations may have grown since
  // the last Run (the Δ-carrying relation does every round); the cache
  // rebuilds exactly the stale ones. The partitioned first step never uses
  // an index — it range-scans its slice and checks constants per row — and
  // neither does a full-key step, which probes the dedup table.
  IndexCache local_cache;
  IndexCache* idx = cache != nullptr ? cache : &local_cache;
  for (std::size_t d = 0; d < steps.size(); ++d) {
    const bool partitioned_first = delta != nullptr && d == 0;
    indexes[d] = (!partitioned_first && !steps[d].full_key &&
                  !steps[d].key_positions.empty())
                     ? &idx->Get(*steps[d].relation, steps[d].key_positions)
                     : nullptr;
  }

  std::size_t produced = 0;
  std::size_t rows_scanned = 0;   // candidate rows examined across depths
  std::size_t probes_issued = 0;  // index lookups resolved in enter()
  // Charged on both exits: the end of the join and an in-cursor stop.
  auto charge_stats = [&]() {
    if (stats == nullptr) return;
    stats->rule_applications += 1;
    stats->derivations += produced;
    stats->rows_scanned += rows_scanned;
    stats->probes_issued += probes_issued;
  };
  emit_rows.clear();
  emit_hashes.clear();
  auto flush_emits = [&]() {
    for (std::size_t k = 0; k < emit_hashes.size(); ++k) {
      out->InsertRowHashed(emit_rows.data() + k * head_arity,
                           emit_hashes[k]);
    }
    emit_rows.clear();
    emit_hashes.clear();
  };
  auto emit_head = [&]() {
    for (const auto& [pos, var] : head_vars) {
      head_values[pos] = binding[static_cast<std::size_t>(var)];
    }
    ++produced;
    const std::size_t hash = HashRow(head_values.data(), head_arity);
    out->PrefetchSlot(hash);
    emit_rows.insert(emit_rows.end(), head_values.begin(),
                     head_values.end());
    emit_hashes.push_back(hash);
    if (emit_hashes.size() == kEmitBatch) flush_emits();
  };

  if (steps.empty()) {
    // Bodyless rule: the (all-constant) head holds unconditionally.
    emit_head();
    flush_emits();
  } else {
    // Iterative depth-first join. Everything the loop touches was allocated
    // at compile time: the per-candidate path does index probes, binding
    // writes, and InsertRow — zero heap allocations per candidate tuple.
    const std::size_t last = steps.size() - 1;

    // Probe pipeline depth: candidate row data is prefetched this many
    // rows ahead of consumption (seeded in enter(), advanced one row per
    // candidate below), so an index bucket's scattered row reads miss the
    // cache in overlapping flight instead of serializing — the same idiom
    // as the dedup rehash batch prefetch (storage/relation.cc).
    constexpr std::size_t kProbePrefetch = 8;

    // Positions the candidate cursor at `depth`, resolving the step's
    // index bucket (or, for a full-key step, its dedup-table hit) from the
    // current binding (no candidates ⇒ limit 0).
    auto enter = [&](std::size_t depth) {
      const JoinStep& step = steps[depth];
      JoinFrame& f = frames[depth];
      f.next = 0;
      if (depth == 0 && delta != nullptr) {
        f.rows = nullptr;  // partitioned: scan the Δ slice only
        f.next = delta->begin;
        f.limit = delta->end;
        return;
      }
      if (step.key_positions.empty()) {
        f.rows = nullptr;  // no bound position: scan the whole relation
        f.limit = step.relation->size();
        return;
      }
      const auto& parts = step.key_parts;
      for (std::size_t k = 0; k < parts.size(); ++k) {
        key_buf[k] = parts[k].is_const
                         ? parts[k].constant
                         : binding[static_cast<std::size_t>(parts[k].var)];
      }
      ++probes_issued;
      if (step.full_key) {
        // Key positions run 0..arity-1 in order, so key_buf is the row.
        f.single = step.relation->FindRowId(key_buf.data());
        f.rows = &f.single;
        f.limit = f.single != Relation::kNoRow ? 1 : 0;
        return;
      }
      RowSpan span = indexes[depth]->Lookup(key_buf.data());
      f.rows = span.ids;
      f.limit = span.count;
      // Fill the pipeline: the bucket's row ids are contiguous, but the
      // rows they name are scattered across the pool.
      const std::size_t fill =
          span.count < kProbePrefetch ? span.count : kProbePrefetch;
      for (std::size_t k = 0; k < fill; ++k) {
        __builtin_prefetch(step.relation->RowData(span.ids[k]));
      }
    };

    // Constant positions of the partitioned first step, checked row by
    // row along the Δ slice (the full-scan path resolves them through an
    // index instead). All key parts of step 0 are constants: no variable
    // is bound before the first step.
    const bool filter_first =
        delta != nullptr && !steps[0].key_positions.empty();

    // In-cursor stop probe: one counter increment per candidate row and one
    // Check() every kCancelStride of them, so a query stuck inside a single
    // enormous round stops within one stride of its deadline.
    constexpr std::size_t kCancelStride = 2048;
    std::size_t candidates_since_check = 0;

    std::size_t depth = 0;
    bool descending = true;
    while (true) {
      if (descending) enter(depth);
      const JoinStep& step = steps[depth];
      JoinFrame& f = frames[depth];
      bool matched = false;
      while (f.next < f.limit) {
        if (cancel != nullptr && ++candidates_since_check >= kCancelStride) {
          candidates_since_check = 0;
          Status stop = cancel->Check();
          if (!stop.ok()) {
            flush_emits();
            charge_stats();
            return stop;
          }
        }
        RowId row = f.rows != nullptr ? f.rows[f.next]
                                      : static_cast<RowId>(f.next);
        ++f.next;
        ++rows_scanned;
        if (f.rows != nullptr) {
          // Keep the probe pipeline full: prefetch the row kProbePrefetch
          // candidates ahead of the one being consumed.
          const std::size_t ahead = f.next - 1 + kProbePrefetch;
          if (ahead < f.limit) {
            __builtin_prefetch(step.relation->RowData(f.rows[ahead]));
          }
        }
        const Value* t = step.relation->RowData(row);
        // Bind new variables, then verify intra-atom repeats and, on the
        // partitioned first step, the constant positions.
        for (const auto& [pos, var] : step.bind_positions) {
          binding[static_cast<std::size_t>(var)] =
              t[static_cast<std::size_t>(pos)];
        }
        bool ok = true;
        for (const auto& [pos, var] : step.check_positions) {
          if (t[static_cast<std::size_t>(pos)] !=
              binding[static_cast<std::size_t>(var)]) {
            ok = false;
            break;
          }
        }
        if (depth == 0 && filter_first) {
          for (std::size_t k = 0; ok && k < step.key_positions.size(); ++k) {
            ok = t[static_cast<std::size_t>(step.key_positions[k])] ==
                 step.key_parts[k].constant;
          }
        }
        if (!ok) continue;
        if (step.exclude != nullptr &&
            step.exclude->ContainsRowHashed(t, step.relation->RowHash(row))) {
          continue;
        }
        if (depth == last) {
          emit_head();  // stay at this depth: keep scanning candidates
          continue;
        }
        matched = true;
        break;
      }
      if (matched) {
        ++depth;
        descending = true;
        continue;
      }
      if (depth == 0) break;
      --depth;
      descending = false;
    }
    flush_emits();
  }
  charge_stats();
  return Status::OK();
}

Status CompiledRule::Run(Relation* out, ClosureStats* stats,
                         IndexCache* cache, const CancellationToken* cancel) {
  return impl_->Execute(nullptr, out, stats, cache, cancel);
}

Status CompiledRule::RunPartition(PartitionView delta, Relation* out,
                                  ClosureStats* stats, IndexCache* cache,
                                  const CancellationToken* cancel) {
  if (!impl_->partitionable) {
    return Status::InvalidArgument(
        "RunPartition requires a rule compiled with options.first_atom");
  }
  return impl_->Execute(&delta, out, stats, cache, cancel);
}

Status ApplyRule(const Rule& rule, const Database& db,
                 const ApplyOptions& options, Relation* out,
                 ClosureStats* stats, IndexCache* cache) {
  Result<CompiledRule> compiled = CompileRule(rule, db, options);
  if (!compiled.ok()) return compiled.status();
  return compiled->Run(out, stats, cache);
}

Rule PinHead(const Rule& rule) {
  std::vector<Atom> body;
  body.reserve(rule.body().size() + 1);
  body.push_back(rule.head());
  body.insert(body.end(), rule.body().begin(), rule.body().end());
  return Rule(rule.head(), std::move(body), rule.var_names());
}

Result<Relation> ApplySum(const std::vector<LinearRule>& rules,
                          const Database& db, const Relation& input,
                          ClosureStats* stats, IndexCache* cache) {
  if (rules.empty()) {
    return Status::InvalidArgument("ApplySum requires at least one rule");
  }
  Relation out(rules[0].arity());
  for (const LinearRule& lr : rules) {
    if (lr.arity() != input.arity()) {
      return Status::InvalidArgument(
          StrCat("rule arity ", lr.arity(), " != input arity ",
                 input.arity()));
    }
    const LinearRule* effective = &lr;
    std::optional<LinearRule> eliminated;
    if (HasEqualities(lr.rule())) {
      Result<std::optional<LinearRule>> prepared =
          EliminateEqualitiesLinear(lr);
      if (!prepared.ok()) return prepared.status();
      if (!prepared->has_value()) continue;  // unsatisfiable equalities
      eliminated = std::move(**prepared);
      effective = &*eliminated;
    }
    ApplyOptions options;
    options.overrides[effective->recursive_atom_index()] = &input;
    options.first_atom = effective->recursive_atom_index();
    LINREC_RETURN_IF_ERROR(
        ApplyRule(effective->rule(), db, options, &out, stats, cache));
  }
  return out;
}

}  // namespace linrec
