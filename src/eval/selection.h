// Selections σ on argument positions of the recursive relation (Section 4.1).

#pragma once

#include "eval/stats.h"
#include "storage/relation.h"

namespace linrec {

/// σ_{position = value}: keeps tuples whose `position`-th field equals
/// `value`. Positions are 0-based.
struct Selection {
  int position = 0;
  Value value = 0;
};

/// Applies the selection, returning the filtered relation. When `stats` is
/// non-null, the rows the scan examined are added to its rows_scanned.
Relation ApplySelection(const Relation& input, const Selection& selection,
                        ClosureStats* stats = nullptr);

}  // namespace linrec
