// Unary relational operators: projection (π), selection (σ), distinct.

#ifndef GENT_OPS_UNARY_H_
#define GENT_OPS_UNARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/table/table.h"
#include "src/util/status.h"

namespace gent {

/// Row predicate: returns true for rows to keep.
using RowPredicate = std::function<bool(const Table&, size_t row)>;

/// π — keeps only the named columns, in the given order.
/// Fails if any name is missing. Key designation is preserved for key
/// columns that survive the projection.
Result<Table> Project(const Table& table, const std::vector<std::string>& columns);

/// σ — keeps rows satisfying `pred`.
Table Select(const Table& table, const RowPredicate& pred);

/// σ specialized to "column value ∈ set" (used by ProjectSelect to keep
/// only tuples whose key appears in the source key column).
Table SelectValueIn(const Table& table, size_t column,
                    const std::unordered_set<ValueId>& values);

/// Removes duplicate rows (exact id-tuple equality), keeping first
/// occurrences in order.
Table Distinct(const Table& table);

/// The rows r < num_rows whose tuple (cols[0][r], ..., cols[k-1][r])
/// differs from every earlier row's, ascending: the rows Distinct keeps.
/// One flat open-addressing pass over per-row hashes computed
/// column-major, with no per-row allocation. Distinct and Expand's fused
/// last hop share it.
std::vector<uint32_t> FirstOccurrenceRows(
    const std::vector<const ValueId*>& cols, size_t num_rows);

/// Hash of a materialized row, for row-set containers.
struct RowVectorHash {
  size_t operator()(const std::vector<ValueId>& row) const {
    uint64_t h = 1469598103934665603ULL;
    for (ValueId v : row) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

using RowSet = std::unordered_set<std::vector<ValueId>, RowVectorHash>;

/// The set of materialized rows of `table`.
RowSet RowsOf(const Table& table);

}  // namespace gent

#endif  // GENT_OPS_UNARY_H_
