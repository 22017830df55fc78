// Natural join family (inner ⋈, left ⟕, full outer ⟗) and cross product.
//
// Joins are natural: the join condition is equality on every column name
// the two tables share, and null join values never match (null-rejecting,
// as in SQL). These operators are used by the source-query generator, the
// Expand() join-path machinery (Algorithm 5), and the Auto-Pipeline*
// baseline; Gen-T's own integration uses only {⊎, σ, π, κ, β}
// (Theorem 8 shows these subsume the join family).

#ifndef GENT_OPS_JOIN_H_
#define GENT_OPS_JOIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/ops/op_limits.h"
#include "src/table/table.h"
#include "src/util/hash.h"
#include "src/util/status.h"

namespace gent {

enum class JoinKind { kInner, kLeft, kFullOuter };

/// Flat ~1/8-load open-addressing build side of an equi-join: rows are
/// grouped by join key into a contiguous CSR arena, and the key columns
/// are read column-major through raw pointers (the caller's columns
/// must outlive the table). A single key column embeds the key value in
/// the slot; composite keys embed a 32-bit hash tag and confirm against
/// a representative row's column data. Rows with a null key value are
/// rejected at build time (null-rejecting, as in SQL). Rows stay
/// ascending within each key group, so a probe loop over the other side
/// emits matches in NaturalJoin's row order. NaturalJoin, Expand's hop
/// joins and alignment-matrix initialization (SourceKeyTable in
/// src/matrix/alignment_matrix.h) share it.
class JoinKeyTable {
 public:
  /// Groups the rows [0, num_rows) by their tuple over `key_cols`.
  JoinKeyTable(std::vector<const ValueId*> key_cols, size_t num_rows);

  /// Rows whose join key equals `tuple[0..num_key_cols)`, ascending.
  /// {nullptr, 0} when none. `tuple` must be null-free.
  std::pair<const uint32_t*, size_t> Find(const ValueId* tuple) const {
    if (key_cols_.size() == 1) return FindOne(tuple[0]);
    const uint64_t hash = TupleHash(tuple);
    uint64_t slot = hash & mask_;
    while (true) {
      uint64_t e = slots_[slot];
      if (e == kEmptySlot) return {nullptr, 0};
      if ((e >> 32) == hash >> 32 &&
          TupleEquals(static_cast<uint32_t>(e), tuple)) {
        return RowsOf(static_cast<uint32_t>(e));
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Find for a table over exactly one key column, where the key value
  /// itself sits in the slot: the overwhelmingly common miss is one load
  /// and a well-predicted branch (matrix initialization probes every
  /// candidate row this way).
  std::pair<const uint32_t*, size_t> FindOne(ValueId v) const {
    uint64_t slot = SplitMix64(v) & mask_;
    while (true) {
      uint64_t e = slots_[slot];
      if (e == kEmptySlot) return {nullptr, 0};
      if ((e >> 32) == v) return RowsOf(static_cast<uint32_t>(e));
      slot = (slot + 1) & mask_;
    }
  }

 private:
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  uint64_t TupleHash(const ValueId* tuple) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      h = SplitMix64(h ^ tuple[i]);
    }
    return h;
  }

  bool TupleEquals(uint32_t entry, const ValueId* tuple) const {
    const uint32_t row = entry_row_[entry];
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      if (key_cols_[i][row] != tuple[i]) return false;
    }
    return true;
  }

  std::pair<const uint32_t*, size_t> RowsOf(uint32_t entry) const {
    return {rows_.data() + entry_start_[entry],
            entry_start_[entry + 1] - entry_start_[entry]};
  }

  std::vector<const ValueId*> key_cols_;
  uint64_t mask_ = 0;
  std::vector<uint64_t> slots_;        // (key|tag)<<32 | entry
  std::vector<uint32_t> entry_start_;  // entry → range in rows_ (+sentinel)
  std::vector<uint32_t> rows_;         // rows, grouped by entry
  std::vector<uint32_t> entry_row_;    // entry → representative row
};

/// Natural join on all shared column names. With no shared columns the
/// result is the cross product (SQL convention), subject to `limits`.
/// Output schema: left's columns, then right-only columns.
Result<Table> NaturalJoin(const Table& left, const Table& right,
                          JoinKind kind, const OpLimits& limits = {});

/// Column names common to both tables (in left's order).
std::vector<std::string> SharedColumns(const Table& left, const Table& right);

/// Cartesian product, subject to `limits`.
Result<Table> CrossProduct(const Table& left, const Table& right,
                           const OpLimits& limits = {});

/// Estimated cardinality of the natural inner join (standard formula:
/// |L|·|R| / max(distinct join-key counts)); used by Expand() to weight
/// join-graph edges. Returns 0 when either side is empty.
double EstimateJoinCardinality(const Table& left, const Table& right);

}  // namespace gent

#endif  // GENT_OPS_JOIN_H_
