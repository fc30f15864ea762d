#include "storage/relation.h"

#include <algorithm>
#include <atomic>
#include <new>

#include "common/memory.h"

namespace linrec {
namespace {

std::atomic<std::uint64_t> g_lineage{0};

/// Smallest power of two ≥ n (and ≥ 8).
std::size_t NextPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

/// Empties the slot holding `entry` (whose hash is `hash`) in an
/// open-addressing table of index + 1 values by backward-shift deletion:
/// later entries of its probe run move up, so every remaining entry stays
/// reachable without tombstones. `hash_of(e)` is entry e's hash.
template <typename HashOf>
void UnlinkEntry(std::vector<std::uint32_t>& slots, std::uint32_t entry,
                 std::size_t hash, HashOf hash_of) {
  const std::size_t mask = slots.size() - 1;
  std::size_t hole = hash & mask;
  while (slots[hole] != entry) hole = (hole + 1) & mask;
  // An entry later in the run may fill the hole unless its home slot lies
  // cyclically in (hole, j] — moving it then would put it before its home.
  for (std::size_t j = (hole + 1) & mask; slots[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = hash_of(slots[j]) & mask;
    const bool stays =
        hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (stays) continue;
    slots[hole] = slots[j];
    hole = j;
  }
  slots[hole] = 0;
}

/// How many of the ascending ids `erased[0..count)` are at or below `id`.
/// Erasing them renumbers a surviving row to its old id minus this count,
/// and `id` is itself erased iff it is the last of them.
std::size_t ErasedUpTo(RowId id, const RowId* erased, std::size_t count) {
  return static_cast<std::size_t>(
      std::upper_bound(erased, erased + count, id) - erased);
}

}  // namespace

std::uint64_t Relation::NextLineage() noexcept {
  // +1: lineage 0 is never handed out.
  return g_lineage.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Grow the dedup table when occupancy crosses 7/8. Small tables double;
// large ones quadruple: every rehash re-probes all rows at random (the
// dominant cost of a growing closure-sized relation), and 4x growth cuts
// the total reinserted rows from ~2N to ~1.33N for a few extra bytes of
// slot space per row.
bool Relation::InsertHashed(const Value* row, std::size_t hash) {
  if (slots_.empty()) Rehash(8);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    RowId slot = slots_[i];
    if (slot == 0) break;  // empty: the row is new
    RowId id = slot - 1;
    if (hashes_[id] == hash && RowEquals(id, row)) return false;
    i = (i + 1) & mask;
  }
  assert(row_count_ < static_cast<std::size_t>(kNoRow) &&
         "relation exceeds RowId capacity");
  // Growth happens before any mutation, so a denied charge (or injected
  // allocation fault) leaves the relation exactly as it was.
  if (pool_.size() + arity_ > pool_.capacity()) GrowPool(pool_.size() + arity_);
  if (hashes_.size() == hashes_.capacity()) GrowHashes(hashes_.size() + 1);
  RowId id = static_cast<RowId>(row_count_++);
  pool_.insert(pool_.end(), row, row + arity_);
  hashes_.push_back(hash);
  slots_[i] = id + 1;
  if (row_count_ * 8 >= slots_.size() * 7) {
    Rehash(slots_.size() * (slots_.size() >= 32768 ? 4 : 2));
  }
  return true;
}

RowId Relation::FindRow(const Value* row, std::size_t hash) const {
  if (slots_.empty()) return kNoRow;
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    RowId slot = slots_[i];
    if (slot == 0) return kNoRow;
    RowId id = slot - 1;
    if (hashes_[id] == hash && RowEquals(id, row)) return id;
    i = (i + 1) & mask;
  }
}

// Pool and hash-array growth is explicit (never left to the vectors'
// internal reallocation) so the capacity delta can be charged to the active
// memory budget — and an armed allocation fault can fire — before the bytes
// are committed. These are the only growth paths a closure's result takes.
void Relation::GrowPool(std::size_t needed_values) {
  std::size_t new_cap = std::max(needed_values, pool_.capacity() * 2);
  if (new_cap < 64) new_cap = 64;
  ChargeBytesOrThrow((new_cap - pool_.capacity()) * sizeof(Value),
                     FaultSite::kPoolGrowth);
  pool_.reserve(new_cap);
}

void Relation::GrowHashes(std::size_t needed_rows) {
  std::size_t new_cap = std::max(needed_rows, hashes_.capacity() * 2);
  if (new_cap < 16) new_cap = 16;
  ChargeBytesOrThrow((new_cap - hashes_.capacity()) * sizeof(std::size_t),
                     FaultSite::kPoolGrowth);
  hashes_.reserve(new_cap);
}

void Relation::Rehash(std::size_t slot_count) {
  if (slot_count > slots_.capacity()) {
    ChargeBytesOrThrow((slot_count - slots_.capacity()) * sizeof(RowId),
                       FaultSite::kRehash);
  }
  slots_.assign(slot_count, 0);
  std::size_t mask = slot_count - 1;
  // Reinsertion is a stream of independent random probes — prefetch a
  // batch ahead so their cache misses overlap (most rows land in their
  // first slot of the fresh, sparsely filled table).
  constexpr RowId kBatch = 16;
  for (RowId base = 0; base < row_count_; base += kBatch) {
    const RowId limit =
        static_cast<RowId>(std::min<std::size_t>(row_count_, base + kBatch));
    for (RowId id = base; id < limit; ++id) {
      __builtin_prefetch(slots_.data() + (hashes_[id] & mask), 1);
    }
    for (RowId id = base; id < limit; ++id) {
      std::size_t i = hashes_[id] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }
}

void Relation::Reserve(std::size_t rows) {
  // Grow geometrically past the request: vector::reserve allocates exactly
  // what is asked, so a closure loop reserving `current + Δ` every round
  // would otherwise reallocate (and copy the whole pool) every round.
  if (rows * arity_ > pool_.capacity()) GrowPool(rows * arity_);
  if (rows > hashes_.capacity()) GrowHashes(rows);
  // Size the table so `rows` insertions stay under the 7/8 growth trigger.
  std::size_t needed = NextPow2(rows * 8 / 7 + 1);
  if (needed > slots_.size()) Rehash(needed);
}

void Relation::Clear() {
  row_count_ = 0;
  lineage_ = NextLineage();
  pool_.clear();
  hashes_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void Relation::TruncateRows(std::size_t rows) {
  assert(rows <= row_count_ && "can only truncate, never extend");
  if (rows == row_count_) return;
  row_count_ = rows;
  lineage_ = NextLineage();
  pool_.resize(rows * arity_);
  hashes_.resize(rows);
  // Same slot count: Rehash only charges when capacity grows, so the
  // rollback path cannot itself be denied.
  Rehash(slots_.size());
}

void Relation::UnlinkSlot(RowId id) {
  UnlinkEntry(slots_, id + 1, hashes_[id],
              [this](RowId slot) { return hashes_[slot - 1]; });
}

std::size_t Relation::EraseRows(const Relation& drop) {
  assert(drop.arity() == arity_ && "relation arities must match");
  // The ids to erase, in a fixed inline buffer: an IVM commit removes a
  // handful of rows. A larger erasure takes the fallback below.
  constexpr std::size_t kInline = 512;
  RowId erased[kInline];
  std::size_t count = 0;
  bool overflow = false;
  for (RowId d = 0; d < drop.row_count_ && !overflow; ++d) {
    const RowId id = FindRow(drop.RowData(d), drop.hashes_[d]);
    if (id == kNoRow) continue;
    if (count == kInline) {
      overflow = true;
    } else {
      erased[count++] = id;
    }
  }
  if (count == 0) return 0;

  const std::size_t before = row_count_;
  const std::uint64_t lineage_before = lineage_;
  lineage_ = NextLineage();
  std::size_t kept = 0;
  if (overflow) {
    // Many rows: compact by probing `drop` per row, then rehash at the
    // same slot count (which never charges — see TruncateRows).
    for (std::size_t r = 0; r < before; ++r) {
      const Value* row = pool_.data() + r * arity_;
      if (drop.FindRow(row, hashes_[r]) != kNoRow) continue;
      if (kept != r) {
        std::copy(row, row + arity_, pool_.data() + kept * arity_);
        hashes_[kept] = hashes_[r];
      }
      ++kept;
    }
    row_count_ = kept;
    Rehash(slots_.size());
  } else {
    // Unlinking reads the cached hashes of the old ids, so it runs before
    // compaction moves them.
    for (std::size_t i = 0; i < count; ++i) UnlinkSlot(erased[i]);
    std::sort(erased, erased + count);
    // Slide each run of survivors down over the gaps, in order.
    kept = erased[0];
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t begin = erased[i] + 1;
      const std::size_t end = i + 1 < count ? erased[i + 1] : before;
      std::copy(pool_.begin() + begin * arity_, pool_.begin() + end * arity_,
                pool_.begin() + kept * arity_);
      std::copy(hashes_.begin() + begin, hashes_.begin() + end,
                hashes_.begin() + kept);
      kept += end - begin;
    }
    row_count_ = kept;
    // Renumber in one sequential pass: a survivor's new id is its old id
    // minus the erased ids below it (ids below the first erased one keep
    // theirs).
    for (RowId& slot : slots_) {
      if (slot <= erased[0]) continue;  // empty, or id < erased[0]
      slot -= static_cast<RowId>(ErasedUpTo(slot - 1, erased, count));
    }
    // The record for indexes to follow. `after` is written last, so an id
    // list that cannot grow leaves the record naming an older lineage.
    try {
      last_erase_.ids.assign(erased, erased + count);
      last_erase_.before = lineage_before;
      last_erase_.after = lineage_;
    } catch (const std::bad_alloc&) {
      // No record: indexes over this relation rebuild instead.
    }
  }
  pool_.resize(row_count_ * arity_);
  hashes_.resize(row_count_);
  return before - row_count_;
}

Relation Relation::WhereEquals(int position, Value value,
                               std::size_t* rows_scanned,
                               std::size_t row_limit) const {
  assert(position >= 0 && static_cast<std::size_t>(position) < arity_);
  // Sweep: collect matching row ids, stopping once `row_limit` rows match.
  const std::size_t column = static_cast<std::size_t>(position);
  std::vector<RowId> ids;
  std::size_t row = 0;
  for (; row < row_count_ && ids.size() < row_limit; ++row) {
    if (pool_[row * arity_ + column] == value) {
      ids.push_back(static_cast<RowId>(row));
    }
  }
  if (rows_scanned != nullptr) *rows_scanned += row;
  // Copy: reserve exactly, then insert the rows with their cached hashes
  // (rows of a relation are distinct, so every insert lands).
  Relation out(arity_);
  if (ids.empty()) return out;
  out.Reserve(ids.size());
  for (RowId id : ids) out.InsertHashed(RowData(id), hashes_[id]);
  return out;
}

std::size_t Relation::UnionWith(const Relation& other) {
  assert(other.arity() == arity_ && "relation arities must match");
  if (other.row_count_ > 0) Reserve(row_count_ + other.row_count_);
  std::size_t added = 0;
  for (RowId id = 0; id < other.row_count_; ++id) {
    if (InsertHashed(other.RowData(id), other.hashes_[id])) ++added;
  }
  return added;
}

std::vector<Tuple> Relation::Sorted() const {
  std::vector<Tuple> out;
  out.reserve(row_count_);
  for (RowId id = 0; id < row_count_; ++id) out.push_back(Row(id).ToTuple());
  std::sort(out.begin(), out.end());
  return out;
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_ || row_count_ != other.row_count_) return false;
  for (RowId id = 0; id < other.row_count_; ++id) {
    if (FindRow(other.RowData(id), other.hashes_[id]) == kNoRow) return false;
  }
  return true;
}

HashIndex::HashIndex(const Relation& rel, std::vector<int> key_positions)
    : rel_(&rel),
      key_positions_(std::move(key_positions)),
      lineage_(rel.lineage()),
      rows_(rel.size()) {
  const std::size_t slot_count = NextPow2(rows_ * 8 / 7 + 1);
  slots_.assign(slot_count, 0);
  const std::size_t mask = slot_count - 1;
  const RowId rows = static_cast<RowId>(rows_);

  // Pass 1: discover groups and count their sizes. `group_of[row]` records
  // each row's group so pass 2 is a straight scatter; until then a group's
  // `start` holds its first row, the representative keys compare against.
  std::vector<std::uint32_t> group_of(rows);
  for (RowId row = 0; row < rows; ++row) {
    const std::size_t hash = RowKeyHash(row);
    std::size_t i = hash & mask;
    while (true) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) {
        // New key: open a group. Groups never exceed row count, which the
        // table was sized for, so no grow step is needed here.
        slots_[i] = static_cast<std::uint32_t>(groups_.size()) + 1;
        group_of[row] = static_cast<std::uint32_t>(groups_.size());
        groups_.push_back(Group{hash, row, 1});
        break;
      }
      Group& group = groups_[slot - 1];
      if (group.hash == hash && SameKey(group.start, row)) {
        group_of[row] = slot - 1;
        ++group.count;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  live_groups_ = groups_.size();

  // Lay the runs out back to back with no slack, then scatter the rows in
  // row order, so every run ascends.
  caps_.resize(groups_.size());
  RowId total = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    caps_[g] = groups_[g].count;
    groups_[g].start = total;
    total += groups_[g].count;
    groups_[g].count = 0;
  }
  row_ids_.resize(rows);
  for (RowId row = 0; row < rows; ++row) {
    Group& group = groups_[group_of[row]];
    row_ids_[group.start + group.count++] = row;
  }
}

// Must produce the same value as KeyHash (= HashRange) over the projected
// key, including the seed and finalizer, so build-time and probe-time
// hashes agree.
std::size_t HashIndex::RowKeyHash(RowId row) const {
  const Value* data = rel_->RowData(row);
  std::size_t seed = kHashSeed;
  for (int p : key_positions_) {
    HashCombine(&seed, std::hash<std::int64_t>{}(
                           data[static_cast<std::size_t>(p)]));
  }
  return HashFinalize(seed);
}

bool HashIndex::SameKey(RowId a, RowId b) const {
  const Value* ra = rel_->RowData(a);
  const Value* rb = rel_->RowData(b);
  for (int p : key_positions_) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (ra[i] != rb[i]) return false;
  }
  return true;
}

RowSpan HashIndex::Lookup(const Value* key) const {
  const std::size_t hash = KeyHash(key);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return RowSpan{};
    const Group& group = groups_[slot - 1];
    if (group.hash == hash) {
      const Value* repr = rel_->RowData(row_ids_[group.start]);
      bool match = true;
      for (std::size_t k = 0; k < key_positions_.size(); ++k) {
        if (repr[static_cast<std::size_t>(key_positions_[k])] != key[k]) {
          match = false;
          break;
        }
      }
      if (match) return RowSpan{row_ids_.data() + group.start, group.count};
    }
    i = (i + 1) & mask;
  }
}

bool HashIndex::CatchUp() {
  const Relation& rel = *rel_;
  if (rel.lineage() == lineage_ && rel.size() == rows_) return true;
  const bool erased = rel.lineage() != lineage_;
  if (erased && (rel.last_erase().before != lineage_ ||
                 rel.last_erase().after != rel.lineage())) {
    return false;
  }
  // Lineage 0 matches no relation: should an allocation below throw, the
  // half-updated index refuses the next CatchUp and is rebuilt.
  lineage_ = 0;
  if (erased) DropErased(rel.last_erase().ids);
  IndexAppended();
  CompactIfSparse();
  lineage_ = rel.lineage();
  return true;
}

void HashIndex::LinkGroup(std::uint32_t g) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = groups_[g].hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = g + 1;
}

void HashIndex::UnlinkGroup(std::uint32_t g) {
  UnlinkEntry(slots_, g + 1, groups_[g].hash,
              [this](std::uint32_t slot) { return groups_[slot - 1].hash; });
  --live_groups_;
}

void HashIndex::GrowSlots() {
  slots_.assign(slots_.size() * 2, 0);
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].count != 0) LinkGroup(g);
  }
}

void HashIndex::DropErased(const std::vector<RowId>& erased) {
  assert(!erased.empty());
  // Erased ids at or past rows_ were appended after the index last looked.
  const std::size_t seen = static_cast<std::size_t>(
      std::lower_bound(erased.begin(), erased.end(), rows_) - erased.begin());
  if (seen == 0) return;
  // The renumbering EraseRows gives the dedup slots; ids below the first
  // erased one keep theirs.
  const RowId first = erased.front();
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    if (group.count == 0) continue;
    RowId* ids = row_ids_.data() + group.start;
    if (ids[group.count - 1] < first) continue;  // no id moves
    RowId kept = 0;
    for (RowId k = 0; k < group.count; ++k) {
      const RowId id = ids[k];
      const std::size_t below = ErasedUpTo(id, erased.data(), seen);
      if (below == 0 || erased[below - 1] != id) {
        ids[kept++] = id - static_cast<RowId>(below);
      }
    }
    group.count = kept;
    if (kept == 0) UnlinkGroup(g);
  }
  rows_ -= seen;
}

void HashIndex::IndexAppended() {
  const RowId end = static_cast<RowId>(rel_->size());
  for (RowId row = static_cast<RowId>(rows_); row < end; ++row) {
    const std::size_t hash = RowKeyHash(row);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) {
      const Group& group = groups_[slots_[i] - 1];
      if (group.hash == hash && SameKey(row_ids_[group.start], row)) break;
      i = (i + 1) & mask;
    }
    if (slots_[i] != 0) {
      Append(slots_[i] - 1, row);
      continue;
    }
    // New key: a one-id run at the end of the array.
    const auto g = static_cast<std::uint32_t>(groups_.size());
    groups_.push_back(Group{hash, static_cast<RowId>(row_ids_.size()), 1});
    caps_.push_back(1);
    row_ids_.push_back(row);
    if (++live_groups_ * 8 > slots_.size() * 7) {
      GrowSlots();
    } else {
      slots_[i] = g + 1;
    }
  }
  rows_ = end;
}

void HashIndex::Append(std::uint32_t g, RowId row) {
  Group& group = groups_[g];
  RowId& cap = caps_[g];
  if (group.count == cap) {
    // Full. The run at the end of the array grows in place; any other run
    // moves to the end with room to grow, leaving its old place dead.
    const RowId grown = std::max<RowId>(2 * cap, 4);
    const std::size_t end = row_ids_.size();
    if (group.start + cap == end) {
      row_ids_.resize(group.start + grown);
    } else {
      row_ids_.resize(end + grown);
      std::copy_n(row_ids_.begin() + group.start, group.count,
                  row_ids_.begin() + end);
      group.start = static_cast<RowId>(end);
    }
    cap = grown;
  }
  row_ids_[group.start + group.count++] = row;
}

void HashIndex::CompactIfSparse() {
  // The slack is unused capacity plus the runs that moves and emptied
  // groups left dead. Repacking costs O(ids + groups) and waits until the
  // slack outgrows the live ids, so it is paid for by the appends and
  // erases that made the slack. Each group keeps half its count as
  // headroom, so a group that grows again does not force the next repack
  // at once.
  constexpr std::size_t kMinSlack = 64;
  if (row_ids_.size() <= 2 * rows_ + kMinSlack) return;
  std::vector<Group> groups;
  std::vector<RowId> caps;
  std::vector<RowId> ids;
  groups.reserve(live_groups_);
  caps.reserve(live_groups_);
  ids.reserve(rows_ + rows_ / 2);
  for (const Group& group : groups_) {
    if (group.count == 0) continue;
    const RowId start = static_cast<RowId>(ids.size());
    const RowId cap = group.count + group.count / 2;
    ids.insert(ids.end(), row_ids_.begin() + group.start,
               row_ids_.begin() + group.start + group.count);
    ids.resize(start + cap);
    groups.push_back(Group{group.hash, start, group.count});
    caps.push_back(cap);
  }
  groups_ = std::move(groups);
  caps_ = std::move(caps);
  row_ids_ = std::move(ids);
  std::fill(slots_.begin(), slots_.end(), 0);
  for (std::uint32_t g = 0; g < groups_.size(); ++g) LinkGroup(g);
}

}  // namespace linrec
