#include "src/ops/unary.h"

#include <unordered_set>

#include "src/util/hash.h"

namespace gent {

Result<Table> Project(const Table& table,
                      const std::vector<std::string>& columns) {
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const auto& name : columns) {
    auto c = table.ColumnIndex(name);
    if (!c.has_value()) {
      return Status::NotFound(table.name() + ": no column " + name);
    }
    indices.push_back(*c);
  }
  Table out(table.name(), table.dict());
  for (size_t i = 0; i < columns.size(); ++i) {
    GENT_RETURN_IF_ERROR(out.AddColumn(columns[i]));
    out.mutable_column(i) = table.column(indices[i]);
  }
  // Preserve surviving key columns.
  std::vector<size_t> keys;
  for (size_t kc : table.key_columns()) {
    for (size_t i = 0; i < indices.size(); ++i) {
      if (indices[i] == kc) keys.push_back(i);
    }
  }
  if (keys.size() == table.key_columns().size()) {
    GENT_RETURN_IF_ERROR(out.SetKeyColumns(keys));
  }
  return out;
}

Table Select(const Table& table, const RowPredicate& pred) {
  Table out = table.Clone();
  std::vector<size_t> drop;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!pred(table, r)) drop.push_back(r);
  }
  out.RemoveRows(drop);
  return out;
}

Table SelectValueIn(const Table& table, size_t column,
                    const std::unordered_set<ValueId>& values) {
  return Select(table, [column, &values](const Table& t, size_t r) {
    return values.count(t.cell(r, column)) > 0;
  });
}

std::vector<uint32_t> FirstOccurrenceRows(
    const std::vector<const ValueId*>& cols, size_t num_rows) {
  std::vector<uint32_t> firsts;
  std::vector<uint64_t> hash(num_rows, 0x9e3779b97f4a7c15ULL);
  for (const ValueId* col : cols) {
    for (size_t r = 0; r < num_rows; ++r) {
      hash[r] = SplitMix64(hash[r] ^ col[r]);
    }
  }
  // ~1/2 load; a slot holds the first row seen with its tuple.
  size_t cap = 16;
  while (cap < 2 * num_rows) cap <<= 1;
  const uint64_t mask = cap - 1;
  std::vector<uint32_t> slots(cap, UINT32_MAX);
  auto same_row = [&](uint32_t a, size_t b) {
    if (hash[a] != hash[b]) return false;
    for (const ValueId* col : cols) {
      if (col[a] != col[b]) return false;
    }
    return true;
  };
  for (size_t r = 0; r < num_rows; ++r) {
    uint64_t slot = hash[r] & mask;
    while (true) {
      const uint32_t rep = slots[slot];
      if (rep == UINT32_MAX) {
        slots[slot] = static_cast<uint32_t>(r);
        firsts.push_back(static_cast<uint32_t>(r));
        break;
      }
      if (same_row(rep, r)) break;
      slot = (slot + 1) & mask;
    }
  }
  return firsts;
}

Table Distinct(const Table& table) {
  std::vector<const ValueId*> cols;
  cols.reserve(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    cols.push_back(table.column(c).data());
  }
  const std::vector<uint32_t> keep =
      FirstOccurrenceRows(cols, table.num_rows());
  if (keep.size() == table.num_rows()) return table.Clone();
  Table out(table.name(), table.dict());
  for (const std::string& name : table.column_names()) {
    (void)out.AddColumn(name);  // names are unique
  }
  for (size_t c = 0; c < table.num_cols(); ++c) {
    std::vector<ValueId>& col = out.mutable_column(c);
    col.resize(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) col[i] = cols[c][keep[i]];
  }
  (void)out.SetKeyColumns(table.key_columns());
  return out;
}

RowSet RowsOf(const Table& table) {
  RowSet rows;
  rows.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) rows.insert(table.Row(r));
  return rows;
}

}  // namespace gent
