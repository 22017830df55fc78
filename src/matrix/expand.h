// Expand (paper Algorithm 5 / §V-A2): candidates that do not cover the
// source key are joined — along a best-scoring path in the candidate
// join graph — with candidates that do, so that every table entering
// matrix traversal can align its tuples to source rows by key.
//
// The implementation is the catalog-aware ExpandEngine (DESIGN.md §5.7):
// candidates that are untouched lake tables borrow their sorted distinct
// sets and cardinalities from the shared ColumnStatsCatalog
// (Candidate::stats; zero recomputation), pair containment runs as a
// merge-intersection over sorted id vectors with a cheap upper-bound
// prune (min(|Va|,|Vb|)/max(|Va|,|Vb|) × keyness < threshold skips the
// intersection — exact-safe, the bound dominates the true weight; the
// rest are intersected by descending bound until the bound falls below
// the best weight found), the join graph is built lazily (a node's
// edges are scored when a path search first reaches it, each pair
// once), an edge between two lake tables of one catalog is scored once
// per catalog and then read from the catalog's join-edge memo
// (src/engine/join_edge_memo.h), and the per-candidate set builds and
// path materialization fan out over a thread pool with an index-ordered
// reduction.
//
// A path is late-materialized: each intermediate hop's join output is a
// path relation (one row-id vector per path table its columns read),
// never a gathered table. Only the next hop's join column is gathered,
// and the path's last hop is fused with the projection and Distinct
// that follow it, so it gathers only the kept columns. A hop join
// probes the hop's shared key table once per path row, numbering each
// key group the first time a path row reaches it, and a stable counting
// sort of the path rows by group emits NaturalJoin's row order: no hash
// table is built over the path side. An intermediate hop's column sets
// (what the next hop's pair search reads) are derived from the path
// tables and the rows the relation reaches: a column borrows the
// previous hop's set when every path row matched, otherwise its table's
// own set when every row of that table is reached, and is deduplicated
// over the table's reached rows only when neither holds (DESIGN.md
// §5.7).
//
// Hop sides are shared within a call: each hop's family union is folded
// once, in one pass over the same-schema members, and its join-key table
// per join column and first-occurrence rows per kept column set are
// built once and reused by every path that reaches the hop. A hop join
// decides its row cap before joining, from the full join size minus the
// last left row's multiplicity, both counted by the probe. Mapping
// verification aligns rows through the source's key table. Results are
// bit-identical to the serial reference (tests/expand_reference.h) at
// any thread count.
//
// Edge-choice contract: the best join pair between two tables maximizes
// (weight, intersection size) and breaks remaining ties by the smallest
// (a_col, b_col) column-index pair — explicitly deterministic, never an
// artifact of scan order.

#ifndef GENT_MATRIX_EXPAND_H_
#define GENT_MATRIX_EXPAND_H_

#include <vector>

#include "src/discovery/discovery.h"
#include "src/ops/op_limits.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace gent {

struct ExpandResult {
  /// Every table covers the source key; expanded candidates appear in
  /// their joined ("expanded") form, as the paper returns them.
  std::vector<Table> tables;
  /// How many candidates were expanded via a join path.
  size_t num_expanded = 0;
  /// Candidates dropped because no join path reaches the key.
  size_t num_dropped = 0;
  /// Work counters (they never affect `tables`). Intermediate hop joins
  /// made across every path tried, and their output columns' distinct
  /// sets split by how they were obtained: borrowed (from the previous
  /// hop when every path row matched, or from a path table every row of
  /// which the hop's output reaches), or deduplicated over a path
  /// table's reached rows.
  size_t intermediate_hops = 0;
  size_t hop_sets_borrowed = 0;
  size_t hop_sets_deduped = 0;
  /// Hop sides looked up by the hop joins of every path tried: a hop
  /// table's join-key table per join column, and for a fused last hop
  /// its first-occurrence rows per kept column set. A side is built by
  /// the first path that needs it and reused by every later one (a side
  /// refolded without the start candidate is the path's own, so always
  /// built). The split is a function of the paths, not of the threads.
  size_t hop_sides_built = 0;
  size_t hop_sides_reused = 0;
  /// Cells the hop joins of every path tried wrote: ValueIds gathered
  /// (path join columns, the fused last hop's kept path columns and its
  /// output columns) plus the row ids stored in intermediate path
  /// relations. A function of the paths, not of the threads or of where
  /// the code sits in memory.
  size_t hop_cells_gathered = 0;
  /// Unordered candidate pairs scored for the join graph (BestJoinPair
  /// over the two candidates' column sets). The graph is built lazily,
  /// from the nodes the path searches visit, so this is 0 when every
  /// candidate covers the key and at most n(n−1)/2. A function of the
  /// candidates, not of the threads.
  size_t join_pairs_scored = 0;
  /// Pair scorings this call actually ran (BestJoinPair for a graph
  /// pair or a path's first hop) instead of reading them from the
  /// candidates' catalog's join-edge memo: the memo's misses plus the
  /// pairs it cannot serve (an ad-hoc candidate, or two catalogs). It
  /// depends on what earlier calls over the same catalog stored and on
  /// which of two racing threads scores a pair first, so unlike the
  /// counters above it is history, not a function of the candidates.
  /// Repeating a serial call whose candidates all come from one catalog
  /// computes 0 while that catalog's memo has room.
  size_t join_pairs_computed = 0;
};

struct ExpandOptions {
  /// Worker threads for the per-candidate sorted-set builds and the
  /// per-candidate path searches and materialization (which score the
  /// join graph's pairs as they reach them). 0 = hardware concurrency (uncapped); 1 = serial.
  /// Tiny candidate sets stay serial regardless — spinning a pool costs
  /// more than the scan. Thread count never changes results (per-slot
  /// writes, reduced in candidate-index order).
  size_t num_threads = 0;
};

/// Joins key-less candidates toward key-covering ones (Algorithm 5).
/// Edge weights are containment × keyness of the best value-overlapping
/// column pair. Per keyless start, Dijkstra with edge cost
/// 1 − weight + 0.25 finds the cheapest path to a key-covering candidate,
/// and up to 3 more paths are forced through the strongest
/// schema-distinct neighbors; each materialized path is scored by
/// simulated EIS against the source and the best expansion wins.
Result<ExpandResult> Expand(const Table& source,
                            const std::vector<Candidate>& candidates,
                            const OpLimits& limits = {},
                            const ExpandOptions& options = {});

}  // namespace gent

#endif  // GENT_MATRIX_EXPAND_H_
