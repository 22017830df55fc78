#include "src/matrix/expand.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "src/engine/column_stats_catalog.h"
#include "src/engine/thread_pool.h"
#include "src/matrix/alignment_matrix.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"

namespace gent {

namespace {

// A joinable column pair between two candidate tables, discovered by
// value overlap (lake metadata is unreliable, so edges are value-based:
// "edges = tables that have joinable columns; edge weights = value
// overlap of joinable columns", Algorithm 5).
struct JoinPair {
  size_t a_col = 0;
  size_t b_col = 0;
  double weight = 0.0;  // |Va ∩ Vb| / max(|Va|, |Vb|)
  size_t inter = 0;
};

// Distinct value sets per column as sorted, deduplicated id vectors.
// Views either borrow the shared catalog's immutable sets (untouched
// lake candidates: zero recomputation, zero copies) or point into
// `owned` (ad-hoc candidates and joined intermediates: one
// SortedDistinctValues build per column). Move-safe: moving the outer vectors
// keeps the inner heap buffers, so views survive container moves.
struct ColumnSets {
  std::vector<std::vector<ValueId>> owned;
  std::vector<ValueSpan> views;

  // Move-only: `views` may point into `owned`, so a copy's views would
  // alias the source object's storage and dangle with it. Moves are
  // safe — the outer vectors' heap buffers (the memory views point at)
  // survive the move. Catalog-backed views point into the shared
  // catalog instead and are valid for its lifetime (either backend).
  ColumnSets() = default;
  ColumnSets(const ColumnSets&) = delete;
  ColumnSets& operator=(const ColumnSets&) = delete;
  ColumnSets(ColumnSets&&) = default;
  ColumnSets& operator=(ColumnSets&&) = default;

  size_t size() const { return views.size(); }
  ValueSpan col(size_t c) const { return views[c]; }
};

ColumnSets SetsFromTable(const Table& t) {
  ColumnSets s;
  s.owned.resize(t.num_cols());
  for (size_t c = 0; c < t.num_cols(); ++c) {
    s.owned[c] = SortedDistinctValues(t, c);
  }
  s.views.reserve(s.owned.size());
  for (const auto& v : s.owned) s.views.push_back(ValueSpan(v));
  return s;
}

ColumnSets SetsFromCatalog(const ColumnStatsCatalog& catalog,
                           size_t lake_index, size_t num_cols) {
  ColumnSets s;
  s.views.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    s.views.push_back(catalog.SortedValuesOf(lake_index, c));
  }
  return s;
}

// True when the candidate's per-column stats can be served straight from
// its catalog: discovery produces row-identical clones (renames only),
// so the shape check is a cheap guard against hand-built candidates
// whose rows diverged from the lake table they claim to be.
bool CatalogBacked(const Candidate& cand) {
  if (cand.stats == nullptr) return false;
  const DataLake& lake = cand.stats->lake();
  if (cand.lake_index >= lake.size()) return false;
  const Table& lt = lake.table(cand.lake_index);
  return lt.dict() == cand.table.dict() &&
         lt.num_cols() == cand.table.num_cols() &&
         lt.num_rows() == cand.table.num_rows();
}

// Best joinable pair between tables a and b, or nullopt when no pair is
// strong enough. Pair weight = containment × keyness:
//   containment = |Va ∩ Vb| / max(|Va|, |Vb|) — max-normalization avoids
//     spurious edges from small domains inside large unrelated ones;
//   keyness = max over the two sides of (distinct values / rows) — joins
//     should run into a column that behaves like a key, keeping the path
//     "as close to functional as possible" (Algorithm 5). A low-keyness
//     pair (e.g. a 25-value nation id over 400 rows) is a many-to-many
//     join that attaches rows to unrelated keys.
// Before intersecting, each pair is screened by the upper bound
// min(|Va|,|Vb|)/max(|Va|,|Vb|) × keyness: since |Va ∩ Vb| ≤ min, the
// bound dominates the true weight (division and multiplication by a
// shared non-negative operand are monotone in IEEE), so a sub-threshold
// bound skips the merge without changing any outcome. Ties on (weight,
// intersection) break to the smallest (a_col, b_col) — the documented
// edge-choice contract in expand.h.
std::optional<JoinPair> BestJoinPair(const ColumnSets& a, size_t rows_a,
                                     const ColumnSets& b, size_t rows_b,
                                     double threshold) {
  std::optional<JoinPair> best;
  for (size_t i = 0; i < a.size(); ++i) {
    const ValueSpan va = a.col(i);
    if (va.empty()) continue;
    const double keyness_a =
        rows_a == 0 ? 0.0
                    : static_cast<double>(va.size()) /
                          static_cast<double>(rows_a);
    for (size_t j = 0; j < b.size(); ++j) {
      const ValueSpan vb = b.col(j);
      if (vb.empty()) continue;
      double keyness = std::max(
          keyness_a, rows_b == 0 ? 0.0
                                 : static_cast<double>(vb.size()) /
                                       static_cast<double>(rows_b));
      double max_size =
          static_cast<double>(std::max(va.size(), vb.size()));
      double bound =
          static_cast<double>(std::min(va.size(), vb.size())) / max_size *
          keyness;
      if (bound < threshold) continue;
      size_t inter = SortedIntersectionSize(va, vb);
      if (inter == 0) continue;
      double containment = static_cast<double>(inter) / max_size;
      double w = containment * keyness;
      if (w < threshold) continue;
      bool better;
      if (!best) {
        better = true;
      } else if (w != best->weight) {
        better = w > best->weight;
      } else if (inter != best->inter) {
        better = inter > best->inter;
      } else {
        better = std::make_pair(i, j) <
                 std::make_pair(best->a_col, best->b_col);
      }
      if (better) best = JoinPair{i, j, w, inter};
    }
  }
  return best;
}

// The renames that let a hop join run as a natural join on exactly the
// chosen column pair, resolved on the two name vectors alone: the right
// join column takes the left's name, and colliding non-join columns are
// suffixed out of the way. Collisions on names in `preserve_right` keep
// the RIGHT column (the expansion-start candidate's data) and move the
// left's aside — the left (hop) table's same-named column is usually a
// spurious mapping over an overlapping domain. Afterwards the two sides
// share exactly one name, the join column's. False on a join-column
// collision (unreachable after the collision pass; guarded anyway).
bool ResolveHopNames(std::vector<std::string>* l, std::vector<std::string>* r,
                     size_t left_col, size_t right_col,
                     const std::unordered_set<std::string>& preserve_right) {
  auto has = [](const std::vector<std::string>& names,
                const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (size_t c = 0; c < r->size(); ++c) {
    if (c == right_col) continue;
    const std::string name = (*r)[c];
    auto it = std::find(l->begin(), l->end(), name);
    if (it == l->end()) continue;
    const size_t lc = static_cast<size_t>(it - l->begin());
    const bool move_left = preserve_right.count(name) > 0 && lc != left_col;
    std::string fresh = name + (move_left ? "#hop" : "#dup");
    while (has(*r, fresh) || has(*l, fresh)) fresh += "'";
    (move_left ? (*l)[lc] : (*r)[c]) = std::move(fresh);
  }
  const std::string& join_name = (*l)[left_col];
  if ((*r)[right_col] != join_name) {
    if (has(*r, join_name)) return false;
    (*r)[right_col] = join_name;
  }
  return true;
}

// One output column of a hop join: column `col` of the hop (left) table
// or of the path so far (right), emitted as `name`.
struct HopColumn {
  bool left;
  size_t col;
  std::string name;
};

// Inner join of the hop table `l` with the path so far `r` on
// l[left_col] = r[right_col] (the names resolved by ResolveHopNames),
// emitting the columns `out`.
//
// Without `distinct`, `out` is the whole natural-join schema (l's
// columns, then r's minus its join column) and the result is exactly
// NaturalJoin of the renamed tables: rows by ascending left row, then
// ascending right row within the key group.
//
// With `distinct` (the fused last hop) the result is exactly
// Distinct(Project(that join, out)) without materializing the join.
// Each side keeps only the first occurrence of its projected row, join
// column included. The first appearance of any output tuple comes from
// such a pair: an earlier left row with the same projection would pair
// with the same right row (same key) into an earlier copy of the tuple,
// and symmetrically on the right. Joining the deduplicated sides visits
// a subsequence of the full join's pairs in the same order, so the
// surviving tuples and their order are unchanged. When the join column
// is kept, distinct pairs of first-occurrence rows yield distinct tuples
// and no output deduplication is needed; otherwise one Distinct runs.
//
// The row cap trips exactly where NaturalJoin's would: before each left
// row the budget is checked against the rows the full join would have
// emitted so far (the right side's per-key multiplicities summed over
// the earlier left rows). nullopt when the cap trips, `limits` is
// interrupted, or the join is empty.
std::optional<Table> HopJoin(const Table& l, const Table& r, size_t left_col,
                             size_t right_col,
                             const std::vector<HopColumn>& out,
                             bool distinct, const OpLimits& limits) {
  const ValueId* lkey = l.column(left_col).data();
  const ValueId* rkey = r.column(right_col).data();
  const JoinKeyTable all({rkey}, r.num_rows());
  std::vector<char> lfirst;
  std::optional<JoinKeyTable> rfirst;
  bool join_col_kept = false;
  if (distinct) {
    std::vector<const ValueId*> lcols{lkey}, rcols{rkey};
    for (const HopColumn& h : out) {
      if (h.left && h.col == left_col) {
        join_col_kept = true;
      } else if (h.left) {
        lcols.push_back(l.column(h.col).data());
      } else {
        rcols.push_back(r.column(h.col).data());
      }
    }
    lfirst.assign(l.num_rows(), 0);
    for (uint32_t row : FirstOccurrenceRows(lcols, l.num_rows())) {
      lfirst[row] = 1;
    }
    const std::vector<uint32_t> rrows =
        FirstOccurrenceRows(rcols, r.num_rows());
    rfirst.emplace(std::vector<const ValueId*>{rkey}, r.num_rows(), &rrows);
  }

  std::vector<uint32_t> lrows, rrows;
  uint64_t full_rows = 0;
  for (size_t lr = 0; lr < l.num_rows(); ++lr) {
    if (!limits.Check(full_rows).ok()) return std::nullopt;
    const ValueId v = lkey[lr];
    if (v == kNull) continue;
    auto [rows, count] = all.Find(&v);
    full_rows += count;
    if (distinct) {
      if (!lfirst[lr]) continue;
      std::tie(rows, count) = rfirst->Find(&v);
    }
    for (size_t k = 0; k < count; ++k) {
      lrows.push_back(static_cast<uint32_t>(lr));
      rrows.push_back(rows[k]);
    }
  }
  if (full_rows == 0) return std::nullopt;

  // Column-major gather of only the emitted columns.
  Table joined("", l.dict());
  for (const HopColumn& h : out) {
    if (!joined.AddColumn(h.name).ok()) return std::nullopt;
  }
  for (size_t c = 0; c < out.size(); ++c) {
    const ValueId* src = (out[c].left ? l : r).column(out[c].col).data();
    const std::vector<uint32_t>& at = out[c].left ? lrows : rrows;
    std::vector<ValueId>& col = joined.mutable_column(c);
    col.resize(at.size());
    for (size_t i = 0; i < at.size(); ++i) col[i] = src[at[i]];
  }
  if (distinct && !join_col_kept) joined = Distinct(joined);
  return joined;
}

}  // namespace

Result<ExpandResult> Expand(const Table& source,
                            const std::vector<Candidate>& candidates,
                            const OpLimits& limits,
                            const ExpandOptions& options) {
  constexpr double kJoinThreshold = 0.3;
  const size_t n = candidates.size();
  ExpandResult result;
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // Expansion joins are a means to key coverage, not an end product; a
  // path whose intermediate result explodes is a wrong join (weak pair,
  // many-to-many) and gets dropped rather than materialized. The cap also
  // protects the caller's memory when `limits` is unbounded.
  OpLimits join_limits = limits;
  join_limits.MaxRows(std::min<uint64_t>(limits.max_rows(), 200000));

  const bool debug = getenv("GENT_DEBUG_EXPAND") != nullptr;

  // One pool serves all three parallel phases. Every phase writes only
  // to its own index slot and reduces in candidate-index order, so
  // thread count never changes results. Debug forces serial so the
  // trace on stderr stays in candidate order.
  size_t threads =
      debug ? 1 : std::min(ThreadPool::ResolveThreads(options.num_threads), n);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= 4) pool = std::make_unique<ThreadPool>(threads);

  // Column value sets and canonical (sorted) schemas, once per candidate
  // — catalog-backed candidates borrow the shared sorted sets, the rest
  // get a one-pass sorted build; schema-family comparisons are then
  // plain vector equality.
  std::vector<ColumnSets> sets(n);
  std::vector<std::vector<std::string>> sorted_schemas(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    const Candidate& c = candidates[i];
    sets[i] = CatalogBacked(c)
                  ? SetsFromCatalog(*c.stats, c.lake_index, c.table.num_cols())
                  : SetsFromTable(c.table);
    sorted_schemas[i] = c.table.column_names();
    std::sort(sorted_schemas[i].begin(), sorted_schemas[i].end());
  });
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // Join graph: value-overlap edges with their best column pair. The
  // pairwise scan shards by the lower candidate index; the reduction
  // below rebuilds the adjacency lists in exactly the serial insertion
  // order.
  struct Edge {
    size_t to;
    JoinPair pair;  // pair.a_col indexes the *from* table
  };
  std::vector<std::vector<Edge>> forward(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    for (size_t j = i + 1; j < n; ++j) {
      auto pair =
          BestJoinPair(sets[i], candidates[i].table.num_rows(), sets[j],
                       candidates[j].table.num_rows(), kJoinThreshold);
      if (!pair) continue;
      forward[i].push_back(Edge{j, *pair});
    }
  });
  GENT_RETURN_IF_ERROR(limits.Interrupted());
  std::vector<std::vector<Edge>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (const Edge& e : forward[i]) {
      adj[i].push_back(e);
      adj[e.to].push_back(Edge{i, JoinPair{e.pair.b_col, e.pair.a_col,
                                           e.pair.weight, e.pair.inter}});
    }
  }

  // Hop-family unions, once per candidate: the inner-union of a hop
  // table with its same-schema siblings depends only on the hop (an
  // ascending fold; InnerUnion rejects every other schema), so
  // expansion paths share one precomputed copy instead of refolding the
  // family per (start, hop) pair. The lone exception — the start
  // candidate itself belongs to the hop's family and must be excluded —
  // refolds in build_expansion. Only potentially reachable hops get a
  // union: paths need a keyless start AND a key-covering end to exist
  // at all, and an edgeless candidate appears on no path.
  bool any_keyless = false, any_covers = false;
  for (const Candidate& c : candidates) {
    any_keyless |= !c.covers_key;
    any_covers |= c.covers_key;
  }
  // The ascending inner-union fold of hop `h`'s family, skipping `skip`.
  auto fold_family = [&](size_t h, size_t skip) {
    Table t = candidates[h].table.Clone();
    for (size_t other = 0; other < n; ++other) {
      if (other == h || other == skip) continue;
      auto unioned = InnerUnion(t, candidates[other].table);
      if (unioned.ok()) t = std::move(unioned).value();
    }
    return t;
  };
  std::vector<std::optional<Table>> family_union(n);
  if (any_keyless && any_covers) {
    ParallelFor(pool.get(), n, [&](size_t i) {
      if (!adj[i].empty()) family_union[i] = fold_family(i, SIZE_MAX);
    });
    GENT_RETURN_IF_ERROR(limits.Interrupted());
  }

  if (debug) {
    for (size_t i = 0; i < n; ++i) {
      fprintf(stderr, "[edges] %s:", candidates[i].table.name().c_str());
      for (const Edge& e : adj[i]) {
        fprintf(stderr, " %s(w=%.2f,%s~%s)",
                candidates[e.to].table.name().c_str(), e.pair.weight,
                candidates[i].table.column_name(e.pair.a_col).c_str(),
                candidates[e.to].table.column_name(e.pair.b_col).c_str());
      }
      fprintf(stderr, "\n");
    }
  }
  // Best join path from `start` to any key-covering candidate: Dijkstra
  // with edge cost (1 + penalty - w); `forced_first` optionally pins the
  // first hop (alternative-path enumeration).
  constexpr double kHopPenalty = 0.25;
  auto best_path = [&](size_t start, size_t forced_first) -> std::vector<size_t> {
    std::vector<double> cost(n, 1e18);
    std::vector<size_t> parent(n, SIZE_MAX);
    std::vector<bool> settled(n, false);
    size_t root = start;
    if (forced_first != SIZE_MAX) {
      root = forced_first;
      if (candidates[root].covers_key) return {start, root};
      settled[start] = true;  // never route back through the start
    }
    cost[root] = 0.0;
    size_t end_node = SIZE_MAX;
    while (true) {
      size_t node = SIZE_MAX;
      double bc = 1e18;
      for (size_t v = 0; v < n; ++v) {
        if (!settled[v] && cost[v] < bc) { bc = cost[v]; node = v; }
      }
      if (node == SIZE_MAX) break;
      settled[node] = true;
      if (node != start && candidates[node].covers_key) { end_node = node; break; }
      for (const Edge& e : adj[node]) {
        double c = cost[node] + (1.0 - e.pair.weight) + kHopPenalty;
        if (c < cost[e.to]) { cost[e.to] = c; parent[e.to] = node; }
      }
    }
    if (end_node == SIZE_MAX) return {};
    std::vector<size_t> path;
    for (size_t cur = end_node; cur != SIZE_MAX; cur = parent[cur]) path.push_back(cur);
    if (forced_first != SIZE_MAX) path.push_back(start);
    std::reverse(path.begin(), path.end());
    return path;
  };

  // One key table serves every path's scoring matrix and one key index
  // every path's mapping verification (the source is fixed for the whole
  // expansion). Paths exist only with a keyless start and a key-covering
  // end, so the index is built only then.
  const JoinKeyTable source_keys = SourceKeyTable(source);
  const KeyIndex source_key_index =
      any_keyless && any_covers ? source.BuildKeyIndex() : KeyIndex{};

  // Materializes one expansion along `path`; nullopt = unusable.
  // `preserve` is the start candidate's column-name set (see
  // ResolveHopNames). Intermediate hops materialize the whole join: its
  // column sets (built from its cells — intermediates are not lake tables)
  // feed the next hop's pair search. The last hop is fused with the
  // projection to the start candidate's columns plus the source key and
  // the Distinct over them (HopJoin), so it never materializes the join.
  auto build_expansion = [&](size_t ci, const std::vector<size_t>& path,
                             const std::unordered_set<std::string>& preserve)
      -> std::optional<Table> {
    const Candidate& cand = candidates[ci];
    const Table* joined = &candidates[path[0]].table;
    std::optional<Table> materialized;
    ColumnSets local_sets;
    const ColumnSets* joined_sets = &sets[path[0]];
    for (size_t p = 1; p < path.size(); ++p) {
      // Per-hop checkpoint. An interrupted hop drops the path like any
      // failed join; the driver's terminal Interrupted() check below
      // turns the run into a hard Cancelled/Timeout, so the dropped
      // path can never masquerade as a complete expansion.
      if (!limits.Interrupted().ok()) return std::nullopt;
      size_t next = path[p];
      auto pair = BestJoinPair(*joined_sets, joined->num_rows(), sets[next],
                               candidates[next].table.num_rows(),
                               kJoinThreshold);
      if (!pair) return std::nullopt;
      // Join against the inner-union of the hop table's schema family: a
      // single lake table may be missing join-key values (nulls) that a
      // sibling variant supplies. The start candidate's own rows never
      // join back into its expansion, so it is excluded from the family
      // — when it isn't part of it anyway, the precomputed union serves.
      std::optional<Table> refolded;
      if (sorted_schemas[ci] == sorted_schemas[next]) {
        refolded = fold_family(next, ci);
      }
      const Table& hop = refolded ? *refolded : *family_union[next];
      if (debug) {
        fprintf(stderr, "[hop] %s: %s ~ %s (w=%.2f)\n",
                cand.table.name().c_str(),
                joined->column_name(pair->a_col).c_str(),
                candidates[next].table.column_name(pair->b_col).c_str(),
                pair->weight);
      }
      // Hop table on the LEFT so its column names -- including the mapped
      // source key columns of the path's end table -- survive the rename.
      std::vector<std::string> lnames = hop.column_names();
      std::vector<std::string> rnames = joined->column_names();
      if (!ResolveHopNames(&lnames, &rnames, pair->b_col, pair->a_col,
                           preserve)) {
        return std::nullopt;
      }
      // The natural join's schema: the hop's columns, then the path's
      // minus its join column.
      std::vector<HopColumn> out;
      for (size_t c = 0; c < lnames.size(); ++c) {
        out.push_back(HopColumn{true, c, std::move(lnames[c])});
      }
      for (size_t c = 0; c < rnames.size(); ++c) {
        if (c == pair->a_col) continue;
        out.push_back(HopColumn{false, c, std::move(rnames[c])});
      }
      const bool last = p + 1 == path.size();
      if (last) {
        // Keep only the start candidate's own columns plus the source
        // key: the join partners are candidates in their own right, and
        // carrying their cells here would duplicate (and, for erroneous
        // variants, pollute) what they already contribute directly.
        std::vector<HopColumn> kept;
        auto find = [](const std::vector<HopColumn>& cols,
                       const std::string& name) {
          return std::find_if(cols.begin(), cols.end(),
                              [&](const HopColumn& h) {
                                return h.name == name;
                              });
        };
        for (size_t kc : source.key_columns()) {
          auto it = find(out, source.column_name(kc));
          if (it == out.end()) return std::nullopt;
          kept.push_back(*it);
        }
        for (const auto& name : cand.table.column_names()) {
          auto it = find(out, name);
          if (it != out.end() && find(kept, name) == kept.end()) {
            kept.push_back(*it);
          }
        }
        out = std::move(kept);
      }
      auto j = HopJoin(hop, *joined, pair->b_col, pair->a_col, out,
                       /*distinct=*/last, join_limits);
      if (!j.has_value()) return std::nullopt;
      materialized = std::move(j);
      joined = &*materialized;
      if (!last) {
        local_sets = SetsFromTable(*joined);
        joined_sets = &local_sets;
      }
    }
    // Paths always hold a start and an end (best_path never returns the
    // start alone).
    if (!materialized.has_value()) return std::nullopt;
    Table expanded = std::move(*materialized);

    // Post-expansion mapping verification: now that the table covers the
    // key, aligned rows expose mis-mapped columns (a constant or tiny
    // source domain is trivially "contained" in many unrelated columns).
    // Columns whose aligned values systematically contradict the source
    // are unmapped so they cannot block complementation later.
    {
      std::vector<size_t> key_cols;
      for (size_t kc : source.key_columns()) {
        key_cols.push_back(*expanded.ColumnIndex(source.column_name(kc)));
      }
      std::vector<std::pair<size_t, size_t>> align;
      KeyTuple key(key_cols.size());
      for (size_t r = 0; r < expanded.num_rows(); ++r) {
        bool null_key = false;
        for (size_t k = 0; k < key_cols.size(); ++k) {
          key[k] = expanded.cell(r, key_cols[k]);
          null_key |= key[k] == kNull;
        }
        if (null_key) continue;
        auto it = source_key_index.find(key);
        if (it != source_key_index.end()) {
          align.emplace_back(r, it->second.front());
        }
      }
      for (size_t c = 0; c < expanded.num_cols(); ++c) {
        auto sc = source.ColumnIndex(expanded.column_name(c));
        if (!sc.has_value() || source.IsKeyColumn(*sc)) continue;
        size_t both = 0, eq = 0;
        for (const auto& [jr, sr] : align) {
          ValueId jv = expanded.cell(jr, c);
          ValueId sv = source.cell(sr, *sc);
          if (jv == kNull || sv == kNull) continue;
          ++both;
          eq += jv == sv;
        }
        if (both >= 3 &&
            static_cast<double>(eq) / static_cast<double>(both) < 0.15) {
          std::string neutral = "#mismapped_" + expanded.column_name(c);
          while (expanded.HasColumn(neutral)) neutral += "'";
          (void)expanded.RenameColumn(c, neutral);
        }
      }
    }
    expanded.set_name(cand.table.name() + "+expanded");
    return expanded;
  };

  // Expands one candidate end to end: path enumeration, materialization,
  // and simulated-EIS scoring. Reads only immutable per-run state
  // (candidates, sets, adj, family unions, key lookup) and the shared
  // dictionary (never appended to by join/union/project), so candidates
  // expand concurrently with bit-identical outcomes.
  struct Slot {
    std::optional<Table> table;
    bool expanded = false;
    bool dropped = false;
  };
  std::vector<Slot> slots(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    const Candidate& cand = candidates[i];
    Slot& slot = slots[i];
    // Cooperative abort: leave the slot untouched and let the terminal
    // checkpoint below fail the whole call.
    if (!limits.Interrupted().ok()) return;
    if (cand.covers_key) {
      slot.table = cand.table.Clone();
      return;
    }
    // Alternative paths: the globally best path plus paths forced through
    // the strongest schema-distinct neighbors. Value statistics cannot
    // always tell a true foreign key from a coincidental dense-integer
    // containment, so each materialized alternative is scored against
    // the source (simulated EIS) and the best expansion wins.
    constexpr size_t kMaxAlternativePaths = 4;
    std::vector<std::vector<size_t>> paths;
    auto add_path = [&](std::vector<size_t> p) {
      if (p.empty()) return;
      for (const auto& existing : paths) {
        if (existing == p) return;
      }
      paths.push_back(std::move(p));
    };
    add_path(best_path(i, SIZE_MAX));
    std::vector<const Edge*> neighbors;
    for (const Edge& e : adj[i]) neighbors.push_back(&e);
    std::sort(neighbors.begin(), neighbors.end(),
              [](const Edge* a, const Edge* b) {
                return a->pair.weight > b->pair.weight;
              });
    std::vector<const std::vector<std::string>*> used_hop_schemas;
    for (size_t k = 0;
         k < neighbors.size() && paths.size() < kMaxAlternativePaths; ++k) {
      size_t hop = neighbors[k]->to;
      const std::vector<std::string>& schema = sorted_schemas[hop];
      if (schema == sorted_schemas[i]) continue;  // sibling variant: useless hop
      bool seen = false;
      for (const auto* u : used_hop_schemas) seen = seen || *u == schema;
      if (seen) continue;  // one forced path per neighbor family
      used_hop_schemas.push_back(&schema);
      add_path(best_path(i, hop));
    }
    if (paths.empty()) {
      if (debug) {
        fprintf(stderr, "[drop] %s: no path\n", cand.table.name().c_str());
      }
      slot.dropped = true;
      return;
    }

    const std::unordered_set<std::string> preserve(
        cand.table.column_names().begin(), cand.table.column_names().end());
    std::optional<Table> best_table;
    double best_score = -1.0;
    for (const auto& path : paths) {
      if (!limits.Interrupted().ok()) return;
      if (debug) {
        fprintf(stderr, "[expand] %s path:", cand.table.name().c_str());
        for (size_t pnode : path) {
          fprintf(stderr, " %s", candidates[pnode].table.name().c_str());
        }
        fprintf(stderr, "\n");
      }
      auto expansion = build_expansion(i, path, preserve);
      if (!expansion.has_value()) continue;
      auto matrix =
          InitializeMatrix(source, *expansion, MatrixOptions{}, source_keys);
      if (!matrix.ok()) continue;
      double score = EvaluateMatrixSimilarity(*matrix, source);
      if (debug) {
        fprintf(stderr, "[expand] %s score=%.3f rows=%zu\n",
                cand.table.name().c_str(), score, expansion->num_rows());
      }
      if (score > best_score) {
        best_score = score;
        best_table = std::move(expansion);
      }
    }
    if (!best_table.has_value()) {
      if (debug) {
        fprintf(stderr, "[drop] %s: all paths failed\n",
                cand.table.name().c_str());
      }
      slot.dropped = true;
      return;
    }
    slot.table = std::move(best_table);
    slot.expanded = true;
  });

  // Terminal checkpoint — authoritative. The cancel token and an
  // expired deadline are both permanent, so any path or slot silently
  // dropped by an interruption above is caught here, and a truncated
  // expansion can never escape as an OK result (the discovery cache
  // depends on this: only complete expansions are ever inserted).
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // Deterministic reduction: candidate-index order, exactly the serial
  // emission order.
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (slot.table.has_value()) {
      result.tables.push_back(std::move(*slot.table));
      result.num_expanded += slot.expanded;
    } else if (slot.dropped) {
      ++result.num_dropped;
    }
  }
  return result;
}

}  // namespace gent
