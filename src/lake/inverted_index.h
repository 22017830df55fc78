// Hash-set value helpers for ad-hoc tables.
//
// Lake-column queries (overlap counts, top-k recall, sorted distinct
// sets) go through the shared immutable ColumnStatsCatalog
// (src/engine/column_stats_catalog.h), which plays the role of the
// JOSIE-style exact set-containment index in the paper (§V-A1). What
// stays here serves tables that are not in a catalog: the baselines'
// integration inputs and ad-hoc row subsets.

#ifndef GENT_LAKE_INVERTED_INDEX_H_
#define GENT_LAKE_INVERTED_INDEX_H_

#include <cstddef>
#include <unordered_set>

#include "src/table/table.h"

namespace gent {

/// Distinct non-null values of column `c` of `t` (hash-set form, used
/// where callers intersect ad-hoc row subsets; lake columns go through
/// ColumnStatsCatalog::SortedValues instead).
std::unordered_set<ValueId> DistinctColumnValues(const Table& t, size_t c);

/// |a ∩ b| for id sets. Guaranteed to probe the smaller set into the
/// larger regardless of argument order (2–10× on skewed pairs), so
/// non-catalog callers (baselines, ad-hoc row subsets) never need to
/// order their arguments. Lake-column intersections should use the
/// catalog's sorted sets + SortedIntersectionSize instead.
size_t SetIntersectionSize(const std::unordered_set<ValueId>& a,
                           const std::unordered_set<ValueId>& b);

}  // namespace gent

#endif  // GENT_LAKE_INVERTED_INDEX_H_
