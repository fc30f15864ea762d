#include "storage/relation.h"

#include <algorithm>
#include <atomic>

#include "common/memory.h"

namespace linrec {
namespace {

/// Own cache line: bumped from every thread that first reads a mutated
/// relation's version; sharing a line with unrelated statics would make
/// those reads contend with it.
alignas(64) std::atomic<std::uint64_t> g_version_counter{0};  // lint: hot-atomic

/// Smallest power of two ≥ n (and ≥ 8).
std::size_t NextPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t Relation::version() const {
  // Lazy stamp: mutation only marks the version stale; the first reader
  // draws one fresh value off the shared counter. Concurrent readers of a
  // stale relation may both draw — the last store wins and both values are
  // new, so (address, version) never aliases older contents. The
  // release/acquire pair orders the version_ store before the stale_ clear:
  // a reader that observes stale_ == false is guaranteed to see the fresh
  // stamp, never the pre-mutation one.
  if (version_stale_.load(std::memory_order_acquire)) {
    version_.store(g_version_counter.fetch_add(1, std::memory_order_relaxed) +
                       1,
                   std::memory_order_relaxed);
    version_stale_.store(false, std::memory_order_release);
  }
  return version_.load(std::memory_order_relaxed);
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
  version_stale_.store(true, std::memory_order_release);
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
  version_.store(0, std::memory_order_relaxed);
  version_stale_.store(false, std::memory_order_relaxed);
  pool_.clear();
  hashes_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void Relation::TruncateRows(std::size_t rows) {
  assert(rows <= row_count_ && "can only truncate, never extend");
  if (rows == row_count_) return;
  row_count_ = rows;
  pool_.resize(rows * arity_);
  hashes_.resize(rows);
  if (rows == 0) {
    // An empty relation must report version 0 (the "two empties share a
    // stamp" rule in version()).
    version_.store(0, std::memory_order_relaxed);
    version_stale_.store(false, std::memory_order_relaxed);
    std::fill(slots_.begin(), slots_.end(), 0);
    return;
  }
  // Same slot count: Rehash only charges when capacity grows, so the
  // rollback path cannot itself be denied.
  Rehash(slots_.size());
  version_stale_.store(true, std::memory_order_release);
}

void Relation::UnlinkSlot(RowId id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = hashes_[id] & mask;
  while (slots_[hole] != id + 1) hole = (hole + 1) & mask;
  // An entry later in the run may fill the hole unless its home slot lies
  // cyclically in (hole, j] — moving it then would put it before its home.
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = hashes_[slots_[j] - 1] & mask;
    const bool stays =
        hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = 0;
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
      const RowId id = slot - 1;
      slot = id + 1 - static_cast<RowId>(
                          std::upper_bound(erased, erased + count, id) -
                          erased);
    }
  }
  pool_.resize(row_count_ * arity_);
  hashes_.resize(row_count_);
  if (row_count_ == 0) {
    version_.store(0, std::memory_order_relaxed);
    version_stale_.store(false, std::memory_order_relaxed);
  } else {
    version_stale_.store(true, std::memory_order_release);
  }
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
      built_at_version_(rel.version()) {
  std::size_t slot_count = NextPow2(rel.size() * 8 / 7 + 1);
  slots_.assign(slot_count, 0);
  std::size_t mask = slot_count - 1;
  const RowId rows = static_cast<RowId>(rel.size());

  // Pass 1: discover groups and count their sizes. `group_of[row]` records
  // each row's group so pass 2 is a straight scatter; `repr` holds one
  // representative row per group for key comparison.
  std::vector<std::uint32_t> group_of(rows);
  std::vector<RowId> repr;
  std::vector<std::uint32_t> counts;
  auto projections_match = [&](RowId a, RowId b) {
    const Value* ra = rel_->RowData(a);
    const Value* rb = rel_->RowData(b);
    for (int p : key_positions_) {
      std::size_t i = static_cast<std::size_t>(p);
      if (ra[i] != rb[i]) return false;
    }
    return true;
  };
  for (RowId row = 0; row < rows; ++row) {
    std::size_t hash = RowKeyHash(row);
    std::size_t i = hash & mask;
    while (true) {
      std::uint32_t slot = slots_[i];
      if (slot == 0) {
        // New key: open a group. Groups never exceed row count, which the
        // table was sized for, so no grow step is needed here.
        slots_[i] = static_cast<std::uint32_t>(repr.size()) + 1;
        group_of[row] = static_cast<std::uint32_t>(repr.size());
        repr.push_back(row);
        counts.push_back(1);
        group_hashes_.push_back(hash);
        break;
      }
      std::size_t g = slot - 1;
      if (group_hashes_[g] == hash && projections_match(repr[g], row)) {
        group_of[row] = static_cast<std::uint32_t>(g);
        ++counts[g];
        break;
      }
      i = (i + 1) & mask;
    }
  }

  // Prefix-sum the counts into CSR offsets, then scatter the rows; within
  // a group insertion order is preserved.
  starts_.resize(repr.size() + 1);
  std::uint32_t total = 0;
  for (std::size_t g = 0; g < repr.size(); ++g) {
    starts_[g] = total;
    total += counts[g];
  }
  starts_[repr.size()] = total;
  row_ids_.resize(rows);
  std::vector<std::uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  for (RowId row = 0; row < rows; ++row) {
    row_ids_[cursor[group_of[row]]++] = row;
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

RowSpan HashIndex::Lookup(const Value* key) const {
  std::size_t hash = KeyHash(key);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (true) {
    std::uint32_t slot = slots_[i];
    if (slot == 0) return RowSpan{};
    std::size_t g = slot - 1;
    if (group_hashes_[g] == hash) {
      const Value* repr = rel_->RowData(row_ids_[starts_[g]]);
      bool match = true;
      for (std::size_t k = 0; k < key_positions_.size(); ++k) {
        if (repr[static_cast<std::size_t>(key_positions_[k])] != key[k]) {
          match = false;
          break;
        }
      }
      if (match) {
        return RowSpan{row_ids_.data() + starts_[g],
                       starts_[g + 1] - starts_[g]};
      }
    }
    i = (i + 1) & mask;
  }
}

}  // namespace linrec
