// Relation: a set of same-arity tuples in one flat value pool, plus hash
// indexes (row-id based) built on demand.

#pragma once

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
/// from Clear and the IVM primitives TruncateRows and EraseRows.
/// Iteration yields TupleViews in insertion order (deterministic).
///
/// Every relation carries a process-unique *lineage* naming its current
/// append-only history: appends (and Reserve) keep it, and every other
/// change draws a new one — construction, copy, move (both sides),
/// assignment, Clear, TruncateRows and an EraseRows that removes rows. Two
/// snapshots with one lineage are therefore a prefix of each other, which
/// is what lets a HashIndex built at (lineage, size) index only the rows
/// appended since. Lineages are never reused, so a relation that takes
/// over a destroyed one's address never aliases its history.
class Relation {
 public:
  Relation() : Relation(0) {}
  explicit Relation(std::size_t arity)
      : arity_(arity), lineage_(NextLineage()) {}

  // Member-wise, except that the lineage is never shared or handed over:
  // a copy or a move target starts a history of its own, and a moved-from
  // relation (left empty) starts another.
  Relation(const Relation& o)
      : arity_(o.arity_),
        lineage_(NextLineage()),
        row_count_(o.row_count_),
        pool_(o.pool_),
        hashes_(o.hashes_),
        slots_(o.slots_) {}
  Relation(Relation&& o) noexcept
      : arity_(o.arity_),
        lineage_(NextLineage()),
        row_count_(o.row_count_),
        pool_(std::move(o.pool_)),
        hashes_(std::move(o.hashes_)),
        slots_(std::move(o.slots_)) {
    o.row_count_ = 0;
    o.lineage_ = NextLineage();
  }
  Relation& operator=(const Relation& o) {
    if (this != &o) *this = Relation(o);
    return *this;
  }
  Relation& operator=(Relation&& o) noexcept {
    if (this != &o) {
      arity_ = o.arity_;
      lineage_ = NextLineage();
      row_count_ = o.row_count_;
      pool_ = std::move(o.pool_);
      hashes_ = std::move(o.hashes_);
      slots_ = std::move(o.slots_);
      o.row_count_ = 0;
      o.lineage_ = NextLineage();
    }
    return *this;
  }

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }
  /// The current lineage (see the class comment); never 0.
  std::uint64_t lineage() const { return lineage_; }

  /// What the last row-removing EraseRows did, so an index built before it
  /// can follow it instead of rebuilding. It describes the current
  /// contents only while `after == lineage()`: any later change but an
  /// append draws a new lineage, and an erase that took the compacting
  /// fallback records nothing, so indexes over it rebuild.
  struct EraseRecord {
    std::uint64_t before = 0;  // the lineage the erase replaced
    std::uint64_t after = 0;   // the lineage the erase drew
    std::vector<RowId> ids;    // erased ids, ascending, pre-erase numbering
  };
  const EraseRecord& last_erase() const { return last_erase_; }

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
  /// renumbers the surviving entries. No capacity grows, so — like
  /// TruncateRows — the call charges no budget and cannot fail: the IVM
  /// delete commit. Removing rows draws a new lineage and, on the inline
  /// path (at most 512 rows found), stores the erased ids in last_erase();
  /// that list keeps its capacity across erases, and if it cannot grow the
  /// erase simply leaves no record.
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

  /// A lineage no relation has had yet (never 0).
  static std::uint64_t NextLineage() noexcept;

  std::size_t arity_;
  std::uint64_t lineage_;
  std::size_t row_count_ = 0;     // == pool_.size() / arity_ unless arity 0
  std::vector<Value> pool_;       // arity-strided row storage
  std::vector<std::size_t> hashes_;  // per-row hash (dedup probes, rehash)
  std::vector<RowId> slots_;      // open addressing: row id + 1; 0 = empty
  EraseRecord last_erase_;
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
/// matching row ids — no tuple is copied. Every group keeps its ids in one
/// run of a shared id array: a start, a count and a capacity. A fresh build
/// lays the runs out back to back with no slack (two allocation-free passes
/// over the rows), and probing follows no per-group heap pointer. Lookup
/// takes a raw key span (values in key_positions order) and allocates
/// nothing, so join loops probe without constructing a Tuple.
///
/// The index remembers the relation's lineage and size it covers, so
/// CatchUp can follow the relation instead of rebuilding: building and then
/// appending rows gives the same index as appending first and building
/// after, and the same holds for one EraseRows followed by its renumbering.
/// Either way each group lists its ids in ascending order, exactly as a
/// fresh build over the current rows does.
class HashIndex {
 public:
  HashIndex(const Relation& rel, std::vector<int> key_positions);

  /// Row ids whose `key_positions` projection equals `key[0..k)`, in
  /// ascending (insertion) order; an empty span when the key is absent.
  /// Allocation-free. The span is invalidated by the next CatchUp.
  RowSpan Lookup(const Value* key) const;
  /// Convenience probe from an owning key tuple (arity must equal the
  /// number of key positions).
  RowSpan Lookup(const Tuple& key) const {
    assert(key.arity() == key_positions_.size());
    return Lookup(key.data());
  }

  /// Brings the index up to date with its relation, which must be the live
  /// object at the address it was built over. Rows appended since the last
  /// build or catch-up are indexed; when the relation is exactly one
  /// EraseRows further on (its last_erase() leads from the index's lineage
  /// to the current one), the erased ids are dropped and the rest
  /// renumbered first, in one pass over the ids. Returns false, leaving the
  /// index unchanged, when the relation changed in any other way (a second
  /// erase, a fallback erase, TruncateRows, Clear, assignment): the caller
  /// builds a new index. An index whose catch-up threw (bad_alloc) returns
  /// false from then on.
  bool CatchUp();

  const Relation& relation() const { return *rel_; }
  const std::vector<int>& key_positions() const { return key_positions_; }
  std::size_t distinct_keys() const { return live_groups_; }

 private:
  /// One key's run of ids: row_ids_[start, start + count), ascending. Its
  /// key is the projection of its first row. Lookup reads the hash, start
  /// and count together.
  struct Group {
    std::size_t hash;
    RowId start;
    RowId count;
  };

  std::size_t KeyHash(const Value* key) const {
    return HashRange(key, key + key_positions_.size());
  }
  std::size_t RowKeyHash(RowId row) const;
  bool SameKey(RowId a, RowId b) const;
  /// Inserts the live group `g` into the slot table.
  void LinkGroup(std::uint32_t g);
  /// Removes an emptied group's slot by backward-shift deletion, so Lookup
  /// never meets a group without rows.
  void UnlinkGroup(std::uint32_t g);
  /// Doubles the slot table and relinks every live group.
  void GrowSlots();
  /// Drops `erased` (ascending, in the pre-erase numbering) from every
  /// group and renumbers the survivors.
  void DropErased(const std::vector<RowId>& erased);
  /// Indexes rows [rows_, relation size), appending to their groups.
  void IndexAppended();
  void Append(std::uint32_t g, RowId row);
  /// Repacks the live runs once the id array holds more than about twice
  /// the live ids, leaving each group half its count of headroom.
  void CompactIfSparse();

  const Relation* rel_;
  std::vector<int> key_positions_;
  std::uint64_t lineage_;  // the relation lineage the index covers
  std::size_t rows_;       // it covers that lineage's rows [0, rows_)
  std::size_t live_groups_ = 0;
  std::vector<std::uint32_t> slots_;  // group index + 1; 0 = empty
  std::vector<Group> groups_;         // emptied groups stay until compaction
  std::vector<RowId> caps_;           // per group: its run's capacity
  std::vector<RowId> row_ids_;        // the runs, plus slack and dead runs
};

}  // namespace linrec
