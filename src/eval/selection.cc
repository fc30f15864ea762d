#include "eval/selection.h"

#include <cassert>

namespace linrec {

Relation ApplySelection(const Relation& input, const Selection& selection,
                        ClosureStats* stats) {
  assert(selection.position >= 0 &&
         static_cast<std::size_t>(selection.position) < input.arity());
  // Columnar: one strided sweep over the selected column collects the
  // matching row ids (no other column is touched), the output is reserved
  // exactly, and the matching rows are copied with their cached hashes.
  // O(matches) allocations however large the input.
  return input.WhereEquals(selection.position, selection.value,
                           stats != nullptr ? &stats->rows_scanned : nullptr);
}

}  // namespace linrec
