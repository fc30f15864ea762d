#include "eval/index_cache.h"

namespace linrec {

const HashIndex& IndexCache::Get(const Relation& rel,
                                 const std::vector<int>& positions) {
  probe_.Assign(&rel, positions);
  auto it = entries_.find(probe_);
  if (it != entries_.end() && it->second->CatchUp()) return *it->second;
  auto index = std::make_unique<HashIndex>(rel, positions);
  ++rebuilds_;
  if (it != entries_.end()) {
    it->second = std::move(index);
    return *it->second;
  }
  auto [pos, inserted] = entries_.emplace(probe_, std::move(index));
  return *pos->second;
}

void IndexCache::RetainOnly(
    const std::unordered_set<const Relation*>& keep) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (keep.count(it->first.rel) == 0) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace linrec
