// Relation: a set of same-arity tuples in one flat value pool, plus hash
// indexes (row-id based) built on demand.

#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "storage/tuple.h"

namespace linrec {

/// Index of a row inside a Relation's pool (insertion order, 0-based).
using RowId = std::uint32_t;

class Relation;

/// A borrowed contiguous row range [begin, end) of one Relation — the Δ a
/// closure round hands to the join cursor (CompiledRule::RunPartition).
/// Views are cheap value types; they are invalidated (like TupleViews) by
/// inserts into the underlying relation.
struct PartitionView {
  const Relation* relation = nullptr;
  RowId begin = 0;
  RowId end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// A set of tuples sharing one arity, stored columnar-free but flat: all
/// values live contiguously in one arity-strided pool, so a row is a
/// (pointer, arity) view and iteration is a linear sweep with no per-tuple
/// indirection. Deduplication is an open-addressing table of row ids over
/// the pool — no tuple is ever stored twice, and inserting from a raw value
/// span allocates nothing beyond amortized pool growth.
///
/// Mutation is insert-only (the algebra of the paper is monotone) apart
/// from the IVM primitives TruncateRows and EraseRows; each successful
/// mutation bumps a version counter that index caches key on.
/// Iteration yields TupleViews in insertion order (deterministic).
class Relation {
 public:
  Relation() : arity_(0) {}
  explicit Relation(std::size_t arity) : arity_(arity) {}

  // Copy/move are member-wise; spelled out because the version stamp is
  // atomic (for concurrent version() reads) and atomics are not copyable.
  Relation(const Relation& o)
      : arity_(o.arity_),
        version_(o.version_.load(std::memory_order_relaxed)),
        version_stale_(o.version_stale_.load(std::memory_order_relaxed)),
        row_count_(o.row_count_),
        pool_(o.pool_),
        hashes_(o.hashes_),
        slots_(o.slots_) {}
  Relation(Relation&& o) noexcept
      : arity_(o.arity_),
        version_(o.version_.load(std::memory_order_relaxed)),
        version_stale_(o.version_stale_.load(std::memory_order_relaxed)),
        row_count_(o.row_count_),
        pool_(std::move(o.pool_)),
        hashes_(std::move(o.hashes_)),
        slots_(std::move(o.slots_)) {
    o.row_count_ = 0;
    o.version_.store(0, std::memory_order_relaxed);
    o.version_stale_.store(false, std::memory_order_relaxed);
  }
  Relation& operator=(const Relation& o) {
    if (this != &o) *this = Relation(o);
    return *this;
  }
  Relation& operator=(Relation&& o) noexcept {
    if (this != &o) {
      arity_ = o.arity_;
      version_.store(o.version_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      version_stale_.store(
          o.version_stale_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      row_count_ = o.row_count_;
      pool_ = std::move(o.pool_);
      hashes_ = std::move(o.hashes_);
      slots_ = std::move(o.slots_);
      o.row_count_ = 0;
      o.version_.store(0, std::memory_order_relaxed);
      o.version_stale_.store(false, std::memory_order_relaxed);
    }
    return *this;
  }

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }
  /// Content stamp for index caching: 0 for an empty relation, otherwise a
  /// process-globally unique value taken at the first version() read after
  /// a successful insert (lazily — a closure round doing 10^5 inserts
  /// draws one stamp, not 10^5, off the shared counter). Global uniqueness
  /// matters: distinct Relation objects can reuse one address (e.g. the Δ
  /// of successive semi-naive rounds), and (address, version) must never
  /// alias two different contents. Two relations may share version 0 only
  /// when both are empty — identical contents.
  std::uint64_t version() const;

  /// Inserts `t`; returns true iff the tuple was new.
  /// The tuple's arity must match the relation's (asserted).
  bool Insert(const Tuple& t) {
    assert(t.arity() == arity_ && "tuple arity must match relation arity");
    return InsertHashed(t.data(), t.hash());
  }
  bool Insert(std::initializer_list<Value> values) {
    assert(values.size() == arity_ && "arity must match relation arity");
    return InsertRow(values.begin());
  }
  bool Insert(TupleView t) {
    assert(t.arity() == arity_ && "view arity must match relation arity");
    return InsertRow(t.data());
  }
  /// Inserts the row at `row[0..arity)`. The allocation-free hot path: no
  /// Tuple is constructed, and nothing is heap-allocated unless the pool or
  /// the dedup table must grow (amortized by Reserve).
  bool InsertRow(const Value* row) { return InsertHashed(row, Hash(row)); }
  /// InsertRow with the row hash already computed (must equal
  /// HashRow(row, arity); asserted). Lets batched writers hash once, then
  /// prefetch, then insert.
  bool InsertRowHashed(const Value* row, std::size_t hash) {
    assert(hash == Hash(row));
    return InsertHashed(row, hash);
  }

  /// Prefetches the dedup slot a row with this hash probes first. A writer
  /// holding a batch of pending inserts issues these ahead of the inserts
  /// so the probes' cache misses overlap instead of serializing.
  void PrefetchSlot(std::size_t hash) const {
    if (!slots_.empty()) {
      __builtin_prefetch(slots_.data() + (hash & (slots_.size() - 1)));
    }
  }

  /// Inserts every tuple of `other` (same arity); returns number added.
  std::size_t UnionWith(const Relation& other);

  /// Pre-sizes the pool and the dedup table for `rows` total tuples, so a
  /// closure loop that knows its Δ size inserts without reallocation.
  void Reserve(std::size_t rows);

  /// Removes every row but keeps the pool, hash and slot capacity, so a
  /// per-round scratch relation (a power sum's next power) is reused
  /// across rounds without reallocating.
  void Clear();

  /// Shrinks the relation back to its first `rows` rows (requires
  /// rows <= size()). Insert order, pool bytes and cached hashes of the
  /// surviving prefix are untouched, so truncating to a recorded size
  /// restores the exact pre-append bytes — the IVM rollback primitive
  /// (appends are the only mutation, so size() is a checkpoint). The dedup
  /// table is rebuilt over the survivors in place; no capacity grows, so
  /// no budget charge (and no injected fault) can fire mid-rollback.
  void TruncateRows(std::size_t rows);

  /// Removes every row of `drop` (same arity) present in this relation, in
  /// place, and returns how many were removed. The remaining rows keep
  /// their relative order, pool bytes and cached hashes. The dedup table
  /// keeps its size and is repaired, not rebuilt: each erased entry is
  /// unlinked by backward-shift deletion, then one sequential pass
  /// renumbers the surviving entries. Nothing is allocated and no capacity
  /// grows, so — like TruncateRows — the call charges no budget and cannot
  /// fail: the IVM delete commit.
  std::size_t EraseRows(const Relation& drop);

  /// Rows [begin, end) as a borrowed view (no copy).
  PartitionView View(RowId begin, RowId end) const {
    assert(begin <= end && end <= row_count_);
    return PartitionView{this, begin, end};
  }

  /// σ_{position = value} as a columnar scan: one sweep of the selected
  /// column of the flat pool collects the ids of matching rows; the output
  /// is then reserved exactly and the rows copied with their cached
  /// hashes. Allocates O(matches), not O(rows). The sweep stops once
  /// `row_limit` rows match, so the result is the first
  /// min(matches, row_limit) matching rows in row order. When
  /// `rows_scanned` is non-null, the rows the sweep examined are added to
  /// it.
  Relation WhereEquals(int position, Value value,
                       std::size_t* rows_scanned = nullptr,
                       std::size_t row_limit = SIZE_MAX) const;

  bool Contains(const Tuple& t) const {
    assert(t.arity() == arity_);
    return FindRow(t.data(), t.hash()) != kNoRow;
  }
  bool Contains(TupleView t) const {
    assert(t.arity() == arity_);
    return ContainsRow(t.data());
  }
  bool Contains(std::initializer_list<Value> values) const {
    assert(values.size() == arity_);
    return ContainsRow(values.begin());
  }
  bool ContainsRow(const Value* row) const {
    return FindRow(row, Hash(row)) != kNoRow;
  }
  /// ContainsRow with the row hash already computed (must equal
  /// HashRow(row, arity); asserted) — e.g. another relation's cached
  /// RowHash of the same row.
  bool ContainsRowHashed(const Value* row, std::size_t hash) const {
    assert(hash == Hash(row));
    return FindRow(row, hash) != kNoRow;
  }

  /// Returned by FindRowId for an absent row.
  static constexpr RowId kNoRow = static_cast<RowId>(-1);
  /// Id of the row equal to `row[0..arity)`, or kNoRow: one probe of the
  /// dedup table, so a fully bound lookup needs no HashIndex.
  RowId FindRowId(const Value* row) const { return FindRow(row, Hash(row)); }

  /// The `id`-th inserted row. Views are invalidated by the next insert.
  TupleView Row(RowId id) const {
    assert(id < row_count_);
    return TupleView(pool_.data() + static_cast<std::size_t>(id) * arity_,
                     arity_);
  }
  /// Raw pointer to the `id`-th row (arity_ consecutive values).
  const Value* RowData(RowId id) const {
    assert(id < row_count_);
    return pool_.data() + static_cast<std::size_t>(id) * arity_;
  }
  /// Cached hash of the `id`-th row.
  std::size_t RowHash(RowId id) const { return hashes_[id]; }

  /// Forward iterator over rows in insertion order, yielding TupleView.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TupleView;
    using difference_type = std::ptrdiff_t;
    using pointer = const TupleView*;
    using reference = TupleView;

    const_iterator() = default;
    const_iterator(const Relation* rel, RowId row) : rel_(rel), row_(row) {}
    TupleView operator*() const { return rel_->Row(row_); }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++row_;
      return copy;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }
    bool operator!=(const const_iterator& o) const { return row_ != o.row_; }

   private:
    const Relation* rel_ = nullptr;
    RowId row_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<RowId>(row_count_));
  }

  /// Tuples in lexicographic order (deterministic output for tests/printing).
  std::vector<Tuple> Sorted() const;

  /// Set equality (arity + contents, any insertion order).
  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

 private:
  std::size_t Hash(const Value* row) const { return HashRow(row, arity_); }
  bool InsertHashed(const Value* row, std::size_t hash);
  RowId FindRow(const Value* row, std::size_t hash) const;
  /// Empties the dedup slot holding row `id` by backward-shift deletion
  /// (later entries of its probe run move up), so every remaining row
  /// stays reachable without tombstones.
  void UnlinkSlot(RowId id);
  bool RowEquals(RowId id, const Value* row) const {
    const Value* mine = pool_.data() + static_cast<std::size_t>(id) * arity_;
    for (std::size_t i = 0; i < arity_; ++i) {
      if (mine[i] != row[i]) return false;
    }
    return true;
  }
  void Rehash(std::size_t slot_count);
  /// Budget-charged capacity growth (see ChargeBytesOrThrow in
  /// common/memory.h); may throw ResourceExhaustedError before mutating.
  void GrowPool(std::size_t needed_values);
  void GrowHashes(std::size_t needed_rows);

  std::size_t arity_;
  /// Lazily drawn content stamp; see version(). Atomics make concurrent
  /// version() reads of a quiescent relation race-free (mutation itself is
  /// single-writer, like every other mutating member).
  mutable std::atomic<std::uint64_t> version_{0};
  mutable std::atomic<bool> version_stale_{false};
  std::size_t row_count_ = 0;     // == pool_.size() / arity_ unless arity 0
  std::vector<Value> pool_;       // arity-strided row storage
  std::vector<std::size_t> hashes_;  // per-row hash (dedup probes, rehash)
  std::vector<RowId> slots_;      // open addressing: row id + 1; 0 = empty
};

/// A borrowed, contiguous list of row ids — what HashIndex::Lookup yields.
struct RowSpan {
  const RowId* ids = nullptr;
  std::size_t count = 0;

  bool empty() const { return count == 0; }
  const RowId* begin() const { return ids; }
  const RowId* end() const { return ids + count; }
  RowId operator[](std::size_t i) const { return ids[i]; }
};

/// A hash index over one relation keyed by a subset of positions.
///
/// Maps the projection of each row onto `key_positions` to the span of
/// matching row ids — no tuple is copied. Groups live in one flat CSR
/// layout (offsets + row ids) rather than per-group vectors, so building
/// does two allocation-free passes over the rows and probing follows no
/// per-group heap pointer. Lookup takes a raw key span (values in
/// key_positions order) and allocates nothing, so join loops probe without
/// constructing a Tuple.
class HashIndex {
 public:
  HashIndex(const Relation& rel, std::vector<int> key_positions);

  /// Row ids whose `key_positions` projection equals `key[0..k)`, in
  /// insertion order; an empty span when the key is absent.
  /// Allocation-free.
  RowSpan Lookup(const Value* key) const;
  /// Convenience probe from an owning key tuple (arity must equal the
  /// number of key positions).
  RowSpan Lookup(const Tuple& key) const {
    assert(key.arity() == key_positions_.size());
    return Lookup(key.data());
  }

  const Relation& relation() const { return *rel_; }
  const std::vector<int>& key_positions() const { return key_positions_; }
  std::uint64_t built_at_version() const { return built_at_version_; }
  std::size_t distinct_keys() const { return starts_.size() - 1; }

 private:
  std::size_t KeyHash(const Value* key) const {
    return HashRange(key, key + key_positions_.size());
  }
  std::size_t RowKeyHash(RowId row) const;

  const Relation* rel_;
  std::vector<int> key_positions_;
  std::uint64_t built_at_version_;
  std::vector<std::uint32_t> slots_;   // group index + 1; 0 = empty
  /// CSR: group g's rows are row_ids_[starts_[g], starts_[g+1]); its key is
  /// the projection of its first row.
  std::vector<std::uint32_t> starts_;
  std::vector<RowId> row_ids_;
  std::vector<std::size_t> group_hashes_;
};

}  // namespace linrec
