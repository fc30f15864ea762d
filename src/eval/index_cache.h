// Lineage-keyed cache of hash indexes over relations.

#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "storage/relation.h"

namespace linrec {

/// Caches HashIndex instances keyed by (relation identity, key positions).
/// A Get catches the cached index up with its relation (HashIndex::CatchUp:
/// appended rows, and one EraseRows) and builds a new one only when the
/// relation's lineage moved in a way no index can follow — so a
/// materialized view's index survives the INSERTs and DELETEs that maintain
/// it. Closure loops share one cache so that indexes over the stable
/// parameter relations are built once across all iterations.
///
/// The table is an unordered_map whose key carries its own precomputed hash,
/// so a Get is one O(1) probe instead of a red-black-tree walk with per-node
/// vector comparisons. The probe key is a member whose positions vector is
/// reused across calls, so a cache hit — every steady-state closure round —
/// performs zero heap allocations. (Get always mutated the cache, so this
/// adds no new thread-safety requirement; concurrent users already need
/// their own tier or an internally locked tier, as SharedIndexCache /
/// TieredIndexCache arrange.)
///
/// NOT internally synchronized: this is the per-lane / per-query tier.
/// Concurrent sharing goes through SharedIndexCache, whose mutex the
/// thread-safety analysis enforces.
///
/// The accessors are virtual so SharedIndexCache (locked) and
/// TieredIndexCache (routing) can interpose; Get runs once per (round,
/// join step), never per tuple, so the indirection costs nothing
/// measurable.
class IndexCache {
 public:
  IndexCache() = default;
  virtual ~IndexCache() = default;
  // Movable (per-lane caches live in resizable vectors); not copyable —
  // the entries own their indexes.
  IndexCache(IndexCache&&) = default;
  IndexCache& operator=(IndexCache&&) = default;

  /// Returns an index of `rel` on `positions`, up to date with `rel`:
  /// the cached one caught up, else a new build. The reference stays valid
  /// until the next Get that rebuilds the same entry; spans it returned
  /// stay valid until the next Get of the same entry after `rel` changed.
  virtual const HashIndex& Get(const Relation& rel,
                               const std::vector<int>& positions);

  /// Drops every entry whose keyed relation is not in `keep`. Long-lived
  /// owners (the engine) call this after a closure so indexes built over
  /// dead temporary relations (per-iteration Δs, seeds) do not accumulate.
  virtual void RetainOnly(const std::unordered_set<const Relation*>& keep);

  virtual std::size_t entry_count() const { return entries_.size(); }
  /// Indexes built (first builds included); a catch-up is not a build.
  virtual std::size_t rebuilds() const { return rebuilds_; }

 private:
  struct Key {
    const Relation* rel = nullptr;
    std::vector<int> positions;
    std::size_t hash = 0;

    Key() = default;
    Key(const Relation* r, std::vector<int> p)
        : rel(r), positions(std::move(p)) {
      Rehash();
    }
    /// Rebinds in place, reusing the positions vector's capacity — the
    /// allocation-free path Get probes with.
    void Assign(const Relation* r, const std::vector<int>& p) {
      rel = r;
      positions.assign(p.begin(), p.end());
      Rehash();
    }
    void Rehash() {
      std::size_t h = std::hash<const void*>{}(rel);
      for (int x : positions) HashCombine(&h, std::hash<int>{}(x));
      hash = h;
    }
    bool operator==(const Key& o) const {
      return rel == o.rel && positions == o.positions;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.hash; }
  };

  std::unordered_map<Key, std::unique_ptr<HashIndex>, KeyHash> entries_;
  Key probe_;  // reused across Gets: hit path allocates nothing
  std::size_t rebuilds_ = 0;
};

/// The engine's long-lived cache: an IndexCache whose every access runs
/// under an internal mutex, so batch lanes (through TieredIndexCache) and
/// the engine's own eviction sweep share it safely — and the thread-safety
/// analysis can prove it, because the lock and the tier it guards live in
/// one class (inner_ is LINREC_GUARDED_BY(mu_)).
///
/// This replaces the old arrangement — a per-batch function-local
/// std::mutex beside an unguarded engine member — where the eviction
/// sweep's safety rested on "all lanes have joined by now", an argument no
/// analyzer could check.
///
/// Returning references out of Get after the lock drops is safe for the
/// same reason it always was: entries are heap-owned (the map never moves
/// them), and a shared relation is quiescent while a batch runs, so only
/// the first Get of an entry in a batch catches it up or rebuilds it —
/// under the lock, before any lane of the batch reads it — and every later
/// Get leaves it as it is. The serial path pays one uncontended lock per
/// Get — per (round, join step), never per tuple; see the bench gate.
class SharedIndexCache final : public IndexCache {
 public:
  SharedIndexCache() = default;

  // Movable so Engine stays movable (tests/benches return engines from
  // factories). Moves are single-threaded by contract — nothing else can
  // hold a reference to an engine still being constructed — but the
  // source's mutex is taken anyway so the access discipline on inner_
  // holds everywhere the analysis looks. The destination gets a fresh
  // mutex (mutexes are not movable, and must not be).
  SharedIndexCache(SharedIndexCache&& other) {
    MutexLock lock(other.mu_);
    inner_ = std::move(other.inner_);
  }
  SharedIndexCache& operator=(SharedIndexCache&& other) {
    if (this != &other) {
      MutexLock mine(mu_);
      MutexLock theirs(other.mu_);
      inner_ = std::move(other.inner_);
    }
    return *this;
  }

  const HashIndex& Get(const Relation& rel,
                       const std::vector<int>& positions) override
      LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return inner_.Get(rel, positions);
  }

  void RetainOnly(const std::unordered_set<const Relation*>& keep) override
      LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    inner_.RetainOnly(keep);
  }

  std::size_t entry_count() const override LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return inner_.entry_count();
  }
  std::size_t rebuilds() const override LINREC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return inner_.rebuilds();
  }

 private:
  mutable Mutex mu_;
  IndexCache inner_ LINREC_GUARDED_BY(mu_);
};

/// Two-tier cache for batched multi-query execution (Engine::ExecuteBatch).
///
/// Probes over relations in `shared_relations` (the engine's parameter
/// relations, which every query of a batch reads but none mutates) route to
/// the engine's SharedIndexCache — internally locked, so an index over a
/// parameter relation is built once and reused by every query of the batch.
/// Every other probe — per-query temporaries: the Δ-carrying result, seeds,
/// phase intermediates — lands in this object's own private (lock-free)
/// tier, keeping queries isolated from each other; the private tier dies
/// with the TieredIndexCache at query end, which is also what defers
/// shared-tier eviction to the batch boundary.
class TieredIndexCache final : public IndexCache {
 public:
  TieredIndexCache(IndexCache* shared,
                   const std::unordered_set<const Relation*>* shared_relations)
      : shared_(shared), shared_relations_(shared_relations) {}

  const HashIndex& Get(const Relation& rel,
                       const std::vector<int>& positions) override {
    if (shared_relations_->count(&rel) != 0) {
      return shared_->Get(rel, positions);
    }
    return IndexCache::Get(rel, positions);
  }

 private:
  /// The engine's shared tier (a SharedIndexCache: self-locking).
  IndexCache* shared_;
  const std::unordered_set<const Relation*>* shared_relations_;
};

}  // namespace linrec
