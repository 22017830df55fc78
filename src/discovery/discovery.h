// Candidate table retrieval: Set Similarity with diversification
// (paper §V-A1, Algorithms 3 and 4).
//
// Pipeline per source table:
//   1. Recall stage: top-k lake tables by shared distinct values
//      (stand-in for Starmie; see DESIGN.md substitution #4).
//   2. Per source column, find lake columns with set overlap ≥ τ
//      (JOSIE-style containment via the catalog's postings).
//   3. Diversify rankings so near-duplicate candidates score lower
//      (Algorithm 4 / Eq. 10).
//   4. Greedily assign candidate columns to source columns (implicit
//      schema matching) and verify overlap within aligned tuples.
//   5. Drop candidates subsumed by other candidates; rename mapped
//      columns to their source column names.

#ifndef GENT_DISCOVERY_DISCOVERY_H_
#define GENT_DISCOVERY_DISCOVERY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/column_stats_catalog.h"
#include "src/ops/op_limits.h"
#include "src/util/status.h"

namespace gent {

struct DiscoveryConfig {
  /// Set-overlap threshold τ: minimum fraction of a source column's
  /// distinct values a candidate column must contain.
  double tau = 0.2;
  /// Number of tables the recall stage forwards to Set Similarity.
  size_t top_k = 256;
  /// Enable Algorithm 4 diversification (off = ablation).
  bool diversify = true;
  /// Lake table name excluded from candidacy (leave-one-out protocols,
  /// e.g. the T2D Gold experiment where each corpus table is reclaimed
  /// from the *other* tables).
  std::string exclude_table;
};

/// One discovered candidate table, schema-matched against the source.
struct Candidate {
  /// Index of the original table in the lake.
  size_t lake_index = 0;
  /// Clone of the lake table with mapped columns renamed to the source
  /// column names they matched.
  Table table;
  /// source column name → column index in `table` (post-rename these
  /// coincide, kept explicit for introspection).
  std::unordered_map<std::string, size_t> mapping;
  /// Average diversified overlap score across mapped source columns.
  double score = 0.0;
  /// True if every source key column is mapped.
  bool covers_key = false;
  /// Catalog whose (lake_index, column) stats back this candidate, or
  /// null for ad-hoc candidates (tests, synthetic tables). Discovery
  /// sets it: `table` is a row-identical clone of the lake table
  /// (column renames only), so the catalog's sorted distinct sets and
  /// cardinalities ARE this table's per-column value sets, and
  /// ExpandEngine borrows them instead of recomputing. The catalog must
  /// outlive the candidate; results are bit-identical with or without
  /// it (null just means the one-pass sorted-set fallback).
  const ColumnStatsCatalog* stats = nullptr;

  explicit Candidate(Table t) : table(std::move(t)) {}
};

class Discovery {
 public:
  Discovery(const ColumnStatsCatalog& catalog, DiscoveryConfig config)
      : catalog_(catalog), config_(std::move(config)) {}

  /// Runs Algorithm 3 end to end. `source` must have key columns declared.
  /// Candidates are returned in descending score order.
  Result<std::vector<Candidate>> FindCandidates(const Table& source) const;

  /// Same, under interruption limits: the stage polls
  /// OpLimits::Interrupted() at its checkpoints (after recall, after the
  /// containment scan, per candidate build, before subsumption) and
  /// aborts with Cancelled/Timeout — never a truncated candidate list.
  /// Row budgets (OpLimits::MaxRows) do not apply here; discovery's
  /// cardinality is bounded by the lake itself.
  Result<std::vector<Candidate>> FindCandidates(const Table& source,
                                                const OpLimits& limits) const;

 private:
  const ColumnStatsCatalog& catalog_;
  DiscoveryConfig config_;
};

/// Diversified ranking of candidate columns for one source column
/// (Algorithm 4). Input tuples are (id, source-overlap, sorted value
/// set); output is ids with diversified scores, descending. Exposed for
/// tests.
struct DiversifyInput {
  size_t id;
  double source_overlap;
  ValueSpan values;  // sorted ascending, deduplicated
};
std::vector<std::pair<size_t, double>> DiversifyCandidateColumns(
    std::vector<DiversifyInput> ranked_by_overlap);

}  // namespace gent

#endif  // GENT_DISCOVERY_DISCOVERY_H_
