#include "src/gent/report.h"

#include <algorithm>

namespace gent {

std::string CellVerdictName(CellVerdict v) {
  switch (v) {
    case CellVerdict::kMatched:
      return "matched";
    case CellVerdict::kMissing:
      return "missing";
    case CellVerdict::kContradicting:
      return "contradicting";
    case CellVerdict::kUnderivable:
      return "underivable";
  }
  return "?";
}

Result<ReclamationReport> DiagnoseReclamation(const Table& source,
                                              const Table& reclaimed) {
  if (!source.has_key()) {
    return Status::InvalidArgument("source table must declare a key");
  }
  ReclamationReport report;
  report.source_rows = source.num_rows();

  // Column mapping (reclaimed may be any superset layout of the source).
  std::vector<size_t> rcol(source.num_cols(), SIZE_MAX);
  for (size_t c = 0; c < source.num_cols(); ++c) {
    auto idx = reclaimed.ColumnIndex(source.column_name(c));
    if (idx.has_value()) rcol[c] = *idx;
  }
  bool key_covered = true;
  for (size_t kc : source.key_columns()) {
    key_covered &= rcol[kc] != SIZE_MAX;
  }
  if (!key_covered) {
    // Nothing aligns: every row is underivable.
    report.underivable_rows = source.num_rows();
    for (size_t r = 0; r < source.num_rows(); ++r) {
      report.findings.push_back(
          CellFinding{r, 0, CellVerdict::kUnderivable, ""});
    }
    return report;
  }

  KeyIndex rec_keys;
  {
    KeyTuple key(source.key_columns().size());
    for (size_t r = 0; r < reclaimed.num_rows(); ++r) {
      for (size_t i = 0; i < source.key_columns().size(); ++i) {
        key[i] = reclaimed.cell(r, rcol[source.key_columns()[i]]);
      }
      rec_keys[key].push_back(r);
    }
  }

  for (size_t sr = 0; sr < source.num_rows(); ++sr) {
    auto it = rec_keys.find(source.KeyOf(sr));
    if (it == rec_keys.end()) {
      ++report.underivable_rows;
      report.findings.push_back(
          CellFinding{sr, 0, CellVerdict::kUnderivable, ""});
      continue;
    }
    // Best aligned tuple: most matching cells.
    size_t best = it->second.front(), best_match = 0;
    for (size_t rr : it->second) {
      size_t m = 0;
      for (size_t c = 0; c < source.num_cols(); ++c) {
        if (rcol[c] != SIZE_MAX &&
            reclaimed.cell(rr, rcol[c]) == source.cell(sr, c)) {
          ++m;
        }
      }
      if (m > best_match) {
        best_match = m;
        best = rr;
      }
    }
    for (size_t c = 0; c < source.num_cols(); ++c) {
      if (source.IsKeyColumn(c)) continue;
      ValueId sv = source.cell(sr, c);
      ValueId rv =
          rcol[c] == SIZE_MAX ? kNull : reclaimed.cell(best, rcol[c]);
      if (sv == rv) {
        ++report.matched_cells;
      } else if (rv == kNull) {
        ++report.missing_cells;
        report.findings.push_back(
            CellFinding{sr, c, CellVerdict::kMissing, ""});
      } else {
        ++report.contradicting_cells;
        report.findings.push_back(
            CellFinding{sr, c, CellVerdict::kContradicting,
                        std::string(reclaimed.CellString(best, rcol[c]))});
      }
    }
  }
  return report;
}

std::string ReclamationReport::Summarize(const Table& source,
                                         size_t max_findings) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu/%zu rows derivable; %zu cells matched, %zu missing, "
                "%zu contradicting\n",
                source_rows - underivable_rows, source_rows, matched_cells,
                missing_cells, contradicting_cells);
  out += line;
  size_t shown = 0;
  for (const auto& f : findings) {
    if (shown >= max_findings) {
      std::snprintf(line, sizeof(line), "... (%zu more findings)\n",
                    findings.size() - shown);
      out += line;
      break;
    }
    const std::string_view source_value =
        source.CellString(f.source_row, f.source_col);
    const int source_len = static_cast<int>(source_value.size());
    switch (f.verdict) {
      case CellVerdict::kUnderivable:
        std::snprintf(line, sizeof(line),
                      "row %zu: not derivable from the lake\n", f.source_row);
        break;
      case CellVerdict::kMissing:
        std::snprintf(line, sizeof(line),
                      "row %zu, %s: lake has no value (source: '%.*s')\n",
                      f.source_row,
                      source.column_name(f.source_col).c_str(), source_len,
                      source_value.data());
        break;
      case CellVerdict::kContradicting:
        std::snprintf(line, sizeof(line),
                      "row %zu, %s: lake says '%s', source says '%.*s'\n",
                      f.source_row,
                      source.column_name(f.source_col).c_str(),
                      f.reclaimed_value.c_str(), source_len,
                      source_value.data());
        break;
      case CellVerdict::kMatched:
        continue;
    }
    out += line;
    ++shown;
  }
  return out;
}

}  // namespace gent
