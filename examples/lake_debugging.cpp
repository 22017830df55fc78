// Data-lake debugging: when a source table can only be *partially*
// reclaimed, the per-cell diff between the source and the reclamation
// tells the analyst whether the gap is missing data (nulls the lake
// simply doesn't have) or contradicting data (the lake disagrees) —
// Example 2 of the paper.
//
// This example builds a TP-TR-style benchmark, reclaims one source, and
// prints the cell-level diagnosis.
//
//   $ ./build/examples/lake_debugging

#include <cstdio>

#include "src/benchgen/benchmarks.h"
#include "src/gent/gent.h"
#include "src/metrics/precision_recall.h"
#include "src/metrics/similarity.h"

using namespace gent;

int main() {
  TpTrConfig cfg = TpTrSmallConfig();
  // Crank the damage so the reclamation is visibly partial.
  cfg.variants.null_rate = 0.7;
  cfg.variants.error_rate = 0.7;
  auto bench = MakeTpTrBenchmark("debug", cfg);
  if (!bench.ok()) {
    std::fprintf(stderr, "benchmark build failed\n");
    return 1;
  }

  GenT gent(*bench->lake);
  const Table& source = bench->sources[0].source;
  auto r = gent.Reclaim(source);
  if (!r.ok()) {
    std::fprintf(stderr, "reclamation failed\n");
    return 1;
  }
  const Table& reclaimed = r->reclaimed;

  auto pr = ComputePrecisionRecall(source, reclaimed);
  std::printf("Source '%s' (%zu rows): EIS %.3f, recall %.3f\n\n",
              bench->sources[0].description.c_str(), source.num_rows(),
              EisScore(source, reclaimed).value_or(0), pr.recall);

  // Per-cell diagnosis over the best aligned tuple of each source row.
  KeyIndex aligned;
  std::vector<size_t> rcol(source.num_cols());
  for (size_t c = 0; c < source.num_cols(); ++c) {
    rcol[c] = *reclaimed.ColumnIndex(source.column_name(c));
  }
  for (size_t row = 0; row < reclaimed.num_rows(); ++row) {
    KeyTuple k;
    for (size_t kc : source.key_columns()) {
      k.push_back(reclaimed.cell(row, rcol[kc]));
    }
    aligned[k].push_back(row);
  }

  size_t unreclaimed_rows = 0, missing_cells = 0, contradicting = 0;
  for (size_t sr = 0; sr < source.num_rows(); ++sr) {
    auto it = aligned.find(source.KeyOf(sr));
    if (it == aligned.end()) {
      ++unreclaimed_rows;
      const std::string key(source.CellString(sr, source.key_columns()[0]));
      std::printf("row %-3zu NOT DERIVABLE from the lake (key %s)\n", sr,
                  key.c_str());
      continue;
    }
    // Best aligned tuple: most matching cells.
    size_t best = it->second[0], best_match = 0;
    for (size_t rr : it->second) {
      size_t m = 0;
      for (size_t c = 0; c < source.num_cols(); ++c) {
        m += reclaimed.cell(rr, rcol[c]) == source.cell(sr, c);
      }
      if (m > best_match) {
        best_match = m;
        best = rr;
      }
    }
    for (size_t c = 0; c < source.num_cols(); ++c) {
      ValueId sv = source.cell(sr, c);
      ValueId rv = reclaimed.cell(best, rcol[c]);
      if (sv == rv) continue;
      if (rv == kNull) {
        ++missing_cells;
      } else {
        ++contradicting;
        const std::string lake_value(reclaimed.CellString(best, rcol[c]));
        const std::string source_value(source.CellString(sr, c));
        std::printf("row %-3zu col %-18s lake says '%s', source says '%s'\n",
                    sr, source.column_name(c).c_str(), lake_value.c_str(),
                    source_value.c_str());
      }
    }
  }
  std::printf(
      "\nDiagnosis: %zu source rows not derivable, %zu cells missing from "
      "the lake,\n%zu cells where the lake contradicts the source.\n",
      unreclaimed_rows, missing_cells, contradicting);
  std::printf(
      "Missing cells mean incomplete lake data; contradictions deserve a\n"
      "closer look at the originating tables (%zu returned).\n",
      r->originating.size());
  return 0;
}
