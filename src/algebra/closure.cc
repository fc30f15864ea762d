#include "algebra/closure.h"

#include "common/memory.h"

namespace linrec {

Result<Relation> DecomposedClosure(
    const std::vector<std::vector<LinearRule>>& groups, const Database& db,
    const Relation& q, ClosureStats* stats, IndexCache* cache,
    const CancellationToken* cancel) {
  if (groups.empty()) {
    return Status::InvalidArgument("DecomposedClosure requires >= 1 group");
  }
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;

  // Sequential product: thread the accumulating relation through each
  // group closure, rightmost first. Each group's Δ starts as the whole
  // relation so far, so G_i* is applied to everything the groups to its
  // right derived; the relation is extended in place, never copied.
  return GuardAllocFailures([&]() -> Result<Relation> {
    Relation current = q;
    for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
      ClosureStats group_stats;
      LINREC_RETURN_IF_ERROR(SemiNaiveExtend(*it, db, &current, 0,
                                             &group_stats, cache, cancel));
      if (stats != nullptr) stats->Accumulate(group_stats);
    }
    return current;
  });
}

}  // namespace linrec
