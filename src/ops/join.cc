#include "src/ops/join.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "src/ops/unary.h"
#include "src/util/hash.h"

namespace gent {

JoinKeyTable::JoinKeyTable(std::vector<const ValueId*> key_cols,
                           size_t num_rows)
    : key_cols_(std::move(key_cols)) {
  size_t cap = 16;
  while (cap < 8 * num_rows) cap <<= 1;
  mask_ = cap - 1;
  slots_.assign(cap, kEmptySlot);
  const bool single = key_cols_.size() == 1;
  // Pass 1: discover distinct keys, count rows per key.
  std::vector<uint32_t> counts;
  std::vector<uint32_t> row_entry(num_rows, UINT32_MAX);
  std::vector<ValueId> tuple(key_cols_.size());
  for (size_t r = 0; r < num_rows; ++r) {
    bool null_key = false;
    for (size_t k = 0; k < key_cols_.size(); ++k) {
      tuple[k] = key_cols_[k][r];
      null_key |= tuple[k] == kNull;
    }
    if (null_key) continue;
    const uint64_t hash =
        single ? SplitMix64(tuple[0]) : TupleHash(tuple.data());
    const uint64_t hi = single ? tuple[0] : hash >> 32;
    uint64_t slot = hash & mask_;
    while (true) {
      uint64_t e = slots_[slot];
      if (e == kEmptySlot) {
        e = (hi << 32) | counts.size();
        slots_[slot] = e;
        counts.push_back(0);
        entry_row_.push_back(static_cast<uint32_t>(r));
      }
      if ((e >> 32) == hi) {
        uint32_t ent = static_cast<uint32_t>(e);
        if (single || TupleEquals(ent, tuple.data())) {
          ++counts[ent];
          row_entry[r] = ent;
          break;
        }
      }
      slot = (slot + 1) & mask_;
    }
  }
  // Pass 2: group rows by entry in the arena, ascending within each.
  entry_start_.resize(counts.size() + 1, 0);
  for (size_t e = 0; e < counts.size(); ++e) {
    entry_start_[e + 1] = entry_start_[e] + counts[e];
  }
  rows_.resize(entry_start_.back());
  std::vector<uint32_t> fill(entry_start_.begin(), entry_start_.end() - 1);
  for (size_t r = 0; r < num_rows; ++r) {
    if (row_entry[r] != UINT32_MAX) {
      rows_[fill[row_entry[r]]++] = static_cast<uint32_t>(r);
    }
  }
}

std::vector<std::string> SharedColumns(const Table& left,
                                       const Table& right) {
  std::vector<std::string> shared;
  for (const auto& name : left.column_names()) {
    if (right.HasColumn(name)) shared.push_back(name);
  }
  return shared;
}

Result<Table> CrossProduct(const Table& left, const Table& right,
                           const OpLimits& limits) {
  Table out(left.name() + "×" + right.name(), left.dict());
  for (const auto& n : left.column_names()) {
    GENT_RETURN_IF_ERROR(out.AddColumn(n));
  }
  for (const auto& n : right.column_names()) {
    GENT_RETURN_IF_ERROR(out.AddColumn(n));
  }
  std::vector<ValueId> row(out.num_cols());
  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    for (size_t rr = 0; rr < right.num_rows(); ++rr) {
      GENT_RETURN_IF_ERROR(limits.Check(out.num_rows() + 1));
      size_t c = 0;
      for (size_t lc = 0; lc < left.num_cols(); ++lc) {
        row[c++] = left.cell(lr, lc);
      }
      for (size_t rc = 0; rc < right.num_cols(); ++rc) {
        row[c++] = right.cell(rr, rc);
      }
      out.AddRow(row);
    }
  }
  return out;
}

Result<Table> NaturalJoin(const Table& left, const Table& right,
                          JoinKind kind, const OpLimits& limits) {
  const auto shared = SharedColumns(left, right);
  if (shared.empty() && kind == JoinKind::kInner) {
    return CrossProduct(left, right, limits);
  }

  std::vector<size_t> lshared, rshared;
  for (const auto& n : shared) {
    lshared.push_back(*left.ColumnIndex(n));
    rshared.push_back(*right.ColumnIndex(n));
  }
  // Right-only columns appended after left's schema.
  std::vector<size_t> rextra;
  for (size_t rc = 0; rc < right.num_cols(); ++rc) {
    if (!left.HasColumn(right.column_name(rc))) rextra.push_back(rc);
  }

  Table out(left.name() + "⋈" + right.name(), left.dict());
  for (const auto& n : left.column_names()) {
    GENT_RETURN_IF_ERROR(out.AddColumn(n));
  }
  for (size_t rc : rextra) {
    GENT_RETURN_IF_ERROR(out.AddColumn(right.column_name(rc)));
  }

  // Flat open-addressing build side over the right rows' shared-column
  // key; the probe loop walks the left key columns column-major.
  std::vector<const ValueId*> rkey;
  rkey.reserve(rshared.size());
  for (size_t rc : rshared) rkey.push_back(right.column(rc).data());
  JoinKeyTable rindex(std::move(rkey), right.num_rows());
  std::vector<const ValueId*> lkey;
  lkey.reserve(lshared.size());
  for (size_t lc : lshared) lkey.push_back(left.column(lc).data());

  // Pass 1: match lists. Each output row is a (left row, right row)
  // pair with SIZE_MAX / -1 marking the preserved-only side. The limit
  // check runs at exactly the points (and counts) the row-at-a-time
  // emitter checked.
  std::vector<size_t> lrows;
  std::vector<ptrdiff_t> rrows;
  std::vector<bool> right_matched(right.num_rows(), false);
  std::vector<ValueId> tuple(lshared.size());
  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    GENT_RETURN_IF_ERROR(limits.Check(lrows.size()));
    bool matched = false;
    bool null_key = false;
    for (size_t i = 0; i < tuple.size(); ++i) {
      tuple[i] = lkey[i][lr];
      null_key |= tuple[i] == kNull;
    }
    if (!null_key) {
      auto [rows, count] = rindex.Find(tuple.data());
      for (size_t k = 0; k < count; ++k) {
        lrows.push_back(lr);
        rrows.push_back(static_cast<ptrdiff_t>(rows[k]));
        right_matched[rows[k]] = true;
        matched = true;
      }
    }
    if (!matched && kind != JoinKind::kInner) {
      lrows.push_back(lr);  // preserve left tuple
      rrows.push_back(-1);
    }
  }
  if (kind == JoinKind::kFullOuter) {
    for (size_t rr = 0; rr < right.num_rows(); ++rr) {
      GENT_RETURN_IF_ERROR(limits.Check(lrows.size()));
      if (!right_matched[rr]) {
        lrows.push_back(SIZE_MAX);
        rrows.push_back(static_cast<ptrdiff_t>(rr));
      }
    }
  }

  // Pass 2: column-major fill — each output column is one contiguous
  // gather, no per-row vector churn. Right-preserved rows must still
  // fill the shared columns from the right side.
  std::vector<ptrdiff_t> shared_of_left(left.num_cols(), -1);
  for (size_t i = 0; i < lshared.size(); ++i) {
    shared_of_left[lshared[i]] = static_cast<ptrdiff_t>(rshared[i]);
  }
  const size_t m = lrows.size();
  for (size_t lc = 0; lc < left.num_cols(); ++lc) {
    std::vector<ValueId>& col = out.mutable_column(lc);
    col.resize(m);
    const ValueId* src = left.column(lc).data();
    const ptrdiff_t rs = shared_of_left[lc];
    const ValueId* rsrc = rs < 0 ? nullptr : right.column(rs).data();
    for (size_t i = 0; i < m; ++i) {
      if (lrows[i] != SIZE_MAX) {
        col[i] = src[lrows[i]];
      } else {
        col[i] = rsrc != nullptr && rrows[i] >= 0 ? rsrc[rrows[i]] : kNull;
      }
    }
  }
  for (size_t x = 0; x < rextra.size(); ++x) {
    std::vector<ValueId>& col = out.mutable_column(left.num_cols() + x);
    col.resize(m);
    const ValueId* src = right.column(rextra[x]).data();
    for (size_t i = 0; i < m; ++i) {
      col[i] = rrows[i] < 0 ? kNull : src[rrows[i]];
    }
  }
  return out;
}

double EstimateJoinCardinality(const Table& left, const Table& right) {
  if (left.num_rows() == 0 || right.num_rows() == 0) return 0.0;
  const auto shared = SharedColumns(left, right);
  if (shared.empty()) {
    return static_cast<double>(left.num_rows()) *
           static_cast<double>(right.num_rows());
  }
  auto distinct_keys = [&](const Table& t) {
    std::vector<size_t> cols;
    for (const auto& n : shared) cols.push_back(*t.ColumnIndex(n));
    std::unordered_set<KeyTuple, KeyTupleHash> keys;
    KeyTuple key(cols.size());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      bool has_null = false;
      for (size_t i = 0; i < cols.size(); ++i) {
        key[i] = t.cell(r, cols[i]);
        has_null |= key[i] == kNull;
      }
      if (!has_null) keys.insert(key);
    }
    return keys.size();
  };
  size_t dl = distinct_keys(left);
  size_t dr = distinct_keys(right);
  size_t d = std::max(dl, dr);
  if (d == 0) return 0.0;
  return static_cast<double>(left.num_rows()) *
         static_cast<double>(right.num_rows()) / static_cast<double>(d);
}

}  // namespace gent
