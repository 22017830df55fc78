#include "src/integration/integrator.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/metrics/similarity.h"
#include "src/ops/fusion.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"

namespace gent {

Result<Table> ProjectSelectOntoSource(const Table& source,
                                      const Table& table) {
  std::vector<std::string> keep;
  for (const auto& name : source.column_names()) {
    if (table.HasColumn(name)) keep.push_back(name);
  }
  if (keep.empty()) {
    return Status::InvalidArgument(table.name() +
                                   " shares no columns with the source");
  }
  GENT_ASSIGN_OR_RETURN(Table projected, Project(table, keep));

  // Keep rows whose full key tuple matches some source key.
  std::vector<size_t> key_cols;
  for (size_t kc : source.key_columns()) {
    auto idx = projected.ColumnIndex(source.column_name(kc));
    if (!idx.has_value()) {
      return Status::InvalidArgument(table.name() +
                                     " does not cover the source key");
    }
    key_cols.push_back(*idx);
  }
  KeyIndex source_keys = source.BuildKeyIndex();
  Table selected = Select(projected, [&](const Table& t, size_t r) {
    KeyTuple key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(t.cell(r, c));
    return source_keys.count(key) > 0;
  });
  selected.set_name(table.name());
  return selected;
}

namespace {

// Labels for protected source nulls, one per (source row, source column),
// shared across all originating tables so complementation can still merge
// agreeing tuples.
class NullLabeler {
 public:
  NullLabeler(const Table& source, DictionaryPtr dict)
      : source_(source), dict_(std::move(dict)),
        source_keys_(source.BuildKeyIndex()) {}

  // Replaces T's nulls with labels at cells where the aligned source
  // tuple is null in the same column (Algorithm 2 line 5).
  void Apply(Table* table) {
    std::vector<size_t> key_cols;
    for (size_t kc : source_.key_columns()) {
      key_cols.push_back(*table->ColumnIndex(source_.column_name(kc)));
    }
    // Source column index for each table column (tables are projected onto
    // source columns already).
    std::vector<size_t> src_col(table->num_cols());
    for (size_t c = 0; c < table->num_cols(); ++c) {
      src_col[c] = *source_.ColumnIndex(table->column_name(c));
    }
    KeyTuple key(key_cols.size());
    for (size_t r = 0; r < table->num_rows(); ++r) {
      for (size_t i = 0; i < key_cols.size(); ++i) {
        key[i] = table->cell(r, key_cols[i]);
      }
      auto it = source_keys_.find(key);
      if (it == source_keys_.end()) continue;
      size_t s_row = it->second.front();  // source key ⇒ unique row
      for (size_t c = 0; c < table->num_cols(); ++c) {
        if (table->cell(r, c) != kNull) continue;
        if (source_.cell(s_row, src_col[c]) != kNull) continue;
        table->set_cell(r, c, LabelFor(s_row, src_col[c]));
      }
    }
  }

 private:
  ValueId LabelFor(size_t row, size_t col) {
    uint64_t key = (static_cast<uint64_t>(row) << 32) | col;
    auto it = labels_.find(key);
    if (it != labels_.end()) return it->second;
    ValueId label = dict_->CreateLabeledNull();
    labels_.emplace(key, label);
    return label;
  }

  const Table& source_;
  DictionaryPtr dict_;
  KeyIndex source_keys_;
  std::unordered_map<uint64_t, ValueId> labels_;
};

// Source-guided complementation: within each group of tuples aligned to
// the same source row, merge complementing pairs only when the merged
// tuple agrees with the source at least as well as both inputs, taking
// the best merge first. Plain κ is greedy and order-dependent: it can
// fuse a clean partial tuple with an erroneous one before the correct
// complement arrives, and the poisoned tuple then blocks the right merge
// forever. Guiding the pairing by the target eliminates that failure
// mode while staying within the operator semantics (every merge is a
// legal complementation).
Result<Table> GuidedComplementation(const Table& table, const Table& source,
                                    const EisOptions& eis_opts) {
  // Column of `table` for each source column (SIZE_MAX if absent).
  std::vector<size_t> col(source.num_cols(), SIZE_MAX);
  for (size_t c = 0; c < source.num_cols(); ++c) {
    auto idx = table.ColumnIndex(source.column_name(c));
    if (idx.has_value()) col[c] = *idx;
  }
  std::vector<size_t> key_cols;
  for (size_t kc : source.key_columns()) {
    if (col[kc] == SIZE_MAX) return table.Clone();  // cannot align
    key_cols.push_back(col[kc]);
  }
  std::vector<size_t> nonkey_cols;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    if (!source.IsKeyColumn(c)) nonkey_cols.push_back(c);
  }

  const auto& dict = *table.dict();
  auto normalized = [&](ValueId v) {
    return (eis_opts.labeled_nulls_match_source_null && v != kNull &&
            dict.IsLabeledNull(v))
               ? kNull
               : v;
  };
  // Row of `table` padded onto source columns (absent columns null).
  auto padded = [&](size_t r) {
    std::vector<ValueId> row(source.num_cols(), kNull);
    for (size_t c = 0; c < source.num_cols(); ++c) {
      if (col[c] != SIZE_MAX) row[c] = table.cell(r, col[c]);
    }
    return row;
  };
  auto sim_to = [&](const std::vector<ValueId>& row, size_t src_row) {
    std::vector<ValueId> s(source.num_cols()), t(source.num_cols());
    for (size_t c = 0; c < source.num_cols(); ++c) {
      s[c] = source.cell(src_row, c);
      t[c] = normalized(row[c]);
    }
    return ErrorAwareTupleSimilarity(s, t, nonkey_cols);
  };

  KeyIndex source_keys = source.BuildKeyIndex();
  std::unordered_map<size_t, std::vector<std::vector<ValueId>>> groups;
  std::vector<std::vector<ValueId>> unaligned;
  KeyTuple key(key_cols.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool null_key = false;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      key[k] = table.cell(r, key_cols[k]);
      null_key |= key[k] == kNull;
    }
    auto it = null_key ? source_keys.end() : source_keys.find(key);
    if (it == source_keys.end()) {
      unaligned.push_back(padded(r));
    } else {
      groups[it->second.front()].push_back(padded(r));
    }
  }

  for (auto& [src_row, rows] : groups) {
    bool merged_any = true;
    while (merged_any && rows.size() > 1) {
      merged_any = false;
      double best_gain = -1.0;
      size_t bi = 0, bj = 0;
      std::vector<ValueId> best_merged;
      for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = i + 1; j < rows.size(); ++j) {
          if (!Complements(rows[i], rows[j])) continue;
          auto merged = MergeComplement(rows[i], rows[j]);
          double sm = sim_to(merged, src_row);
          double floor =
              std::max(sim_to(rows[i], src_row), sim_to(rows[j], src_row));
          if (sm + 1e-12 < floor) continue;  // would poison a better tuple
          if (sm > best_gain) {
            best_gain = sm;
            bi = i;
            bj = j;
            best_merged = std::move(merged);
          }
        }
      }
      if (best_gain >= 0.0) {
        rows[bi] = std::move(best_merged);
        rows.erase(rows.begin() + static_cast<ptrdiff_t>(bj));
        merged_any = true;
      }
    }
  }

  // Rebuild with the source-column layout (the caller's accumulator is
  // re-projected at the end of integration anyway).
  Table out(table.name(), table.dict());
  for (const auto& name : source.column_names()) {
    GENT_RETURN_IF_ERROR(out.AddColumn(name));
  }
  for (const auto& [src_row, rows] : groups) {
    for (const auto& row : rows) out.AddRow(row);
  }
  for (const auto& row : unaligned) out.AddRow(row);
  return out;
}

// Reverts labeled nulls to real nulls (Algorithm 2 line 14).
void RemoveLabeledNulls(Table* table) {
  const auto& dict = *table->dict();
  for (size_t c = 0; c < table->num_cols(); ++c) {
    for (ValueId& v : table->mutable_column(c)) {
      if (v != kNull && dict.IsLabeledNull(v)) v = kNull;
    }
  }
}

}  // namespace

Result<Table> IntegrateTables(const Table& source,
                              const std::vector<Table>& tables,
                              const IntegrationOptions& options) {
  if (!source.has_key()) {
    return Status::InvalidArgument("source table must declare a key");
  }

  // --- Preprocessing (lines 3-6) -----------------------------------------
  std::vector<Table> prepared;
  prepared.reserve(tables.size());
  for (const auto& t : tables) {
    auto ps = ProjectSelectOntoSource(source, t);
    if (!ps.ok()) continue;  // unusable originating table: skip, not fail
    if (ps->num_rows() > 0) prepared.push_back(std::move(ps).value());
  }

  auto empty_result = [&]() -> Result<Table> {
    Table out("reclaimed", source.dict());
    for (const auto& name : source.column_names()) {
      GENT_RETURN_IF_ERROR(out.AddColumn(name));
    }
    return out;
  };
  if (prepared.empty()) return empty_result();

  prepared = InnerUnionBySchema(prepared);

  NullLabeler labeler(source, source.dict());
  if (options.label_source_nulls) {
    for (auto& t : prepared) labeler.Apply(&t);
  }
  for (auto& t : prepared) {
    GENT_ASSIGN_OR_RETURN(t, TakeMinimalForm(t, options.limits));
  }

  // Integrate highest-signal tables first: order by individual EIS.
  EisOptions eis_opts;
  eis_opts.labeled_nulls_match_source_null = true;
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < prepared.size(); ++i) {
    GENT_ASSIGN_OR_RETURN(double s, EisScore(source, prepared[i], eis_opts));
    order.emplace_back(s, i);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  // --- Iterative integration (lines 7-13) --------------------------------
  Table acc = prepared[order[0].second].Clone();
  for (size_t i = 1; i < order.size(); ++i) {
    acc = OuterUnion(acc, prepared[order[i].second]);
    GENT_RETURN_IF_ERROR(options.limits.Check(acc.num_rows()));

    Result<Table> with_kappa =
        options.guard_operators
            ? GuidedComplementation(acc, source, eis_opts)
            : Complementation(acc, options.limits);
    GENT_RETURN_IF_ERROR(with_kappa.status());
    if (options.guard_operators) {
      GENT_ASSIGN_OR_RETURN(double before, EisScore(source, acc, eis_opts));
      GENT_ASSIGN_OR_RETURN(double after,
                            EisScore(source, *with_kappa, eis_opts));
      if (after >= before) acc = std::move(*with_kappa);
    } else {
      acc = std::move(*with_kappa);
    }

    GENT_ASSIGN_OR_RETURN(Table with_beta, Subsumption(acc, options.limits));
    if (options.guard_operators) {
      GENT_ASSIGN_OR_RETURN(double before, EisScore(source, acc, eis_opts));
      GENT_ASSIGN_OR_RETURN(double after,
                            EisScore(source, with_beta, eis_opts));
      if (after >= before) acc = std::move(with_beta);
    } else {
      acc = std::move(with_beta);
    }
  }

  // --- Postprocessing (lines 14-16) ---------------------------------------
  RemoveLabeledNulls(&acc);
  for (const auto& name : source.column_names()) {
    if (!acc.HasColumn(name)) {
      GENT_RETURN_IF_ERROR(acc.AddColumn(name));
    }
  }
  GENT_ASSIGN_OR_RETURN(Table result, Project(acc, source.column_names()));
  result = Distinct(result);
  result.set_name("reclaimed");
  return result;
}

}  // namespace gent
