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
// intersection — exact-safe, the bound dominates the true weight), the
// join graph is built lazily (a node's edges are scored when a path
// search first reaches it, each pair once), and the per-candidate set
// builds and path materialization fan out over a thread pool with an
// index-ordered reduction. An intermediate hop's column sets (what the
// next hop's pair search reads) are derived from the join's inputs and
// the rows that matched: a fully matched side lends its own sets, a
// partially matched one is deduplicated over its matched rows, and the
// materialized join's cells are never rescanned. A path's last hop is
// fused with the projection and Distinct that follow it, so it never
// materializes the full join (DESIGN.md §5.7).
//
// Hop sides are shared within a call: each hop's family union is folded
// once, in one pass over the same-schema members, and its join-key table
// per join column and first-occurrence rows per kept column set are
// built once and reused by every path that reaches the hop. A hop join
// decides its row cap before joining, from the full join size minus the
// last left row's multiplicity, both counted by probing the shared key
// table from the path side. Mapping verification aligns rows through the
// source's key table. Results are bit-identical to the serial reference
// (tests/expand_reference.h) at any thread count.
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
  /// materialized across every path tried, and their output columns'
  /// distinct sets split by how they were obtained: borrowed from a
  /// fully matched input side, or deduplicated over an input's matched
  /// rows.
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
  /// Unordered candidate pairs scored for the join graph (BestJoinPair
  /// over the two candidates' column sets). The graph is built lazily,
  /// from the nodes the path searches visit, so this is 0 when every
  /// candidate covers the key and at most n(n−1)/2. A function of the
  /// candidates, not of the threads.
  size_t join_pairs_scored = 0;
};

struct ExpandOptions {
  /// Worker threads for the per-candidate sorted-set builds and the
  /// per-candidate path searches and materialization (which score the
  /// join graph's pairs as they reach them). 0 = hardware concurrency (uncapped); 1 = serial.
  /// Tiny candidate sets stay serial regardless — spinning a pool costs
  /// more than the scan. Thread count never changes results (per-slot
  /// writes, reduced in candidate-index order). GENT_DEBUG_EXPAND
  /// forces serial so the trace interleaves deterministically.
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
