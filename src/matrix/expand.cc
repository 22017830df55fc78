#include "src/matrix/expand.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/engine/column_stats_catalog.h"
#include "src/engine/thread_pool.h"
#include "src/matrix/alignment_matrix.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"

namespace gent {

namespace {

// A joinable column pair between two candidate tables, discovered by
// value overlap (lake metadata is unreliable, so edges are value-based:
// "edges = tables that have joinable columns; edge weights = value
// overlap of joinable columns", Algorithm 5). The catalog's join-edge
// memo stores the same record.
using JoinPair = JoinEdge;

// Distinct value sets per column as sorted, deduplicated id vectors.
// Views either borrow sets that already exist or point into `owned`.
// Borrowed: the shared catalog's immutable sets (untouched lake
// candidates: zero recomputation, zero copies), and, for an
// intermediate hop's output, the previous hop's sets or a fully reached
// path table's own (DeriveHopSets). Owned: one SortedDistinctValues
// build per column of an ad-hoc candidate or a sibling-absorbing family
// union, or per output column of a partially reached path table over
// its reached rows. Move-safe: moving the outer vectors keeps the inner
// heap buffers, so views survive container moves.
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
// bound skips the merge without changing any outcome. The pairs that
// pass are intersected in descending bound order, and the scan stops at
// the first bound below the best weight found: no later pair can reach
// that weight, and ties on weight still intersect. Ties on (weight,
// intersection) break to the smallest (a_col, b_col) — the documented
// edge-choice contract in expand.h. That order is total, so the visit
// order never changes the winner.
std::optional<JoinPair> BestJoinPair(const ColumnSets& a, size_t rows_a,
                                     const ColumnSets& b, size_t rows_b,
                                     double threshold) {
  struct Screened {
    double bound;
    double keyness;
    double max_size;
    size_t i;
    size_t j;
  };
  std::vector<Screened> screened;
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
      screened.push_back(Screened{bound, keyness, max_size, i, j});
    }
  }
  std::sort(screened.begin(), screened.end(),
            [](const Screened& x, const Screened& y) {
              if (x.bound != y.bound) return x.bound > y.bound;
              return std::make_pair(x.i, x.j) < std::make_pair(y.i, y.j);
            });
  std::optional<JoinPair> best;
  for (const Screened& p : screened) {
    if (best && p.bound < best->weight) break;
    size_t inter = SortedIntersectionSize(a.col(p.i), b.col(p.j));
    if (inter == 0) continue;
    double containment = static_cast<double>(inter) / p.max_size;
    double w = containment * p.keyness;
    if (w < threshold) continue;
    bool better;
    if (!best) {
      better = true;
    } else if (w != best->weight) {
      better = w > best->weight;
    } else if (inter != best->inter) {
      better = inter > best->inter;
    } else {
      better = std::make_pair(p.i, p.j) <
               std::make_pair(best->a_col, best->b_col);
    }
    if (better) best = JoinPair{p.i, p.j, w, inter};
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

// Per-path work counters (ExpandResult reports the sums). Intermediate
// hops and their output columns' sets by how they were obtained, the hop
// sides a hop join looked up by whether the lookup built or reused them,
// and the cells the hop joins wrote (ExpandResult::hop_cells_gathered).
struct HopCounts {
  size_t hops = 0;
  size_t borrowed = 0;
  size_t deduped = 0;
  size_t sides_built = 0;
  size_t sides_reused = 0;
  size_t cells = 0;
  HopCounts& operator+=(const HopCounts& o) {
    hops += o.hops;
    borrowed += o.borrowed;
    deduped += o.deduped;
    sides_built += o.sides_built;
    sides_reused += o.sides_reused;
    cells += o.cells;
    return *this;
  }
};

// The hop (left) side of every hop join into one hop table, built lazily
// and shared by all the paths that reach it: one JoinKeyTable per join
// column, and one ascending first-occurrence row list per (join column,
// kept columns) for fused last hops. Each entry is a function of the hop
// table and its key alone and is built once under call_once, so which
// path (or thread) builds it never changes it.
class HopSide {
 public:
  explicit HopSide(const Table& table) : table_(table) {}
  HopSide(const HopSide&) = delete;
  HopSide& operator=(const HopSide&) = delete;

  const Table& table() const { return table_; }

  // Rows grouped by their value in `col` (kNull rows left out).
  const JoinKeyTable& Keys(size_t col, HopCounts* counts) {
    return Shared(&keys_, col, counts, [&] {
      return JoinKeyTable({table_.column(col).data()}, table_.num_rows());
    });
  }

  // FirstOccurrenceRows over `col` plus `kept` (sorted, without `col`):
  // a row set does not depend on the column order, so one list serves
  // every path that keeps the same columns.
  const std::vector<uint32_t>& FirstRows(size_t col,
                                         const std::vector<size_t>& kept,
                                         HopCounts* counts) {
    return Shared(&firsts_, std::make_pair(col, kept), counts, [&] {
      std::vector<const ValueId*> cols{table_.column(col).data()};
      for (size_t c : kept) cols.push_back(table_.column(c).data());
      return FirstOccurrenceRows(cols, table_.num_rows());
    });
  }

 private:
  template <typename T>
  struct Lazy {
    std::once_flag once;
    std::optional<T> value;
  };

  template <typename Key, typename T, typename Build>
  const T& Shared(std::map<Key, Lazy<T>>* cache, const Key& key,
                  HopCounts* counts, Build build) {
    Lazy<T>* slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot = &(*cache)[key];  // map nodes never move
    }
    bool built = false;
    std::call_once(slot->once, [&] {
      slot->value.emplace(build());
      built = true;
    });
    ++(built ? counts->sides_built : counts->sides_reused);
    return *slot->value;
  }

  const Table& table_;
  std::mutex mu_;
  std::map<size_t, Lazy<JoinKeyTable>> keys_;
  std::map<std::pair<size_t, std::vector<size_t>>,
           Lazy<std::vector<uint32_t>>>
      firsts_;
};

// A table of the path as a path relation reads it: `rows` is its row
// under each relation row (empty in the start relation, whose row i is
// row i of its one table). `position` is the table's place in the path
// (0 = the path's start) and `refolded` marks a hop family refolded
// without the start candidate, which has no prebuilt column sets.
struct PathTable {
  const Table* table;
  std::vector<uint32_t> rows;
  size_t position;
  bool refolded;
};

// The path so far, late-materialized: the path's start table before the
// first hop, then each intermediate hop's join output as one row-id
// vector per path table its columns read, never as gathered cells.
// Column k is column cols[k].col of tables[cols[k].table], named
// names[k]. Only the next hop's join column and, at the fused last hop,
// the kept columns are ever gathered.
struct PathRelation {
  struct Column {
    size_t table;
    size_t col;
  };
  std::vector<PathTable> tables;
  std::vector<Column> cols;
  std::vector<std::string> names;
  size_t num_rows = 0;
  bool start = false;  // one table, rows in its own order

  static PathRelation Start(const Table& t) {
    PathRelation r;
    r.tables.push_back(PathTable{&t, {}, 0, false});
    for (size_t c = 0; c < t.num_cols(); ++c) r.cols.push_back({0, c});
    r.names = t.column_names();
    r.num_rows = t.num_rows();
    r.start = true;
    return r;
  }

  // Column k's cells in relation row order: the start relation's are
  // read in place, any other's are gathered into `buf`.
  const ValueId* Gather(size_t k, std::vector<ValueId>* buf,
                        HopCounts* counts) const {
    const PathTable& t = tables[cols[k].table];
    const ValueId* cells = t.table->column(cols[k].col).data();
    if (start) return cells;
    buf->resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) (*buf)[i] = cells[t.rows[i]];
    counts->cells += num_rows;
    return buf->data();
  }
};

// The probe of a hop join of the hop table (left) with the path so far
// (right) on hop[left_col] = the path's join column `rkey`: every path
// row's key looked up in the hop's shared key table. A left key group
// is numbered the first time a path row reaches it, and all its rows
// are marked with that number then, so each group is marked once
// however many path rows reach it.
struct HopProbe {
  std::vector<uint32_t> left_group;   // hop row → group; 0 = unreached
  std::vector<uint32_t> right_group;  // path row → group; 0 = unmatched
  uint32_t groups = 0;                // groups are numbered from 1
  size_t right_matched = 0;
  uint64_t pairs = 0;                 // the full join's size
};

// The row cap is decided here, before anything is joined, and trips
// exactly where NaturalJoin's would. NaturalJoin checks its running
// output count against `max_rows` before each left row; that count is
// the prefix sum, over the earlier left rows, of each row's right-side
// multiplicity. Prefix sums never decrease, so some check fails iff the
// last one does, i.e. iff the full join size minus the last left row's
// multiplicity exceeds `max_rows`. The probe counts both, O(|r|).
// nullopt when the cap trips or the join is empty.
std::optional<HopProbe> ProbeHop(const JoinKeyTable& lkeys, const Table& l,
                                 size_t left_col, const ValueId* rkey,
                                 size_t rrows, uint64_t max_rows) {
  const ValueId* lkey = l.column(left_col).data();
  const ValueId last = l.num_rows() == 0 ? kNull : lkey[l.num_rows() - 1];
  HopProbe probe;
  probe.left_group.assign(l.num_rows(), 0);
  probe.right_group.assign(rrows, 0);
  uint64_t last_rows = 0;
  for (size_t rr = 0; rr < rrows; ++rr) {
    const ValueId v = rkey[rr];
    if (v == kNull) continue;
    auto [rows, count] = lkeys.FindOne(v);
    if (count == 0) continue;
    probe.pairs += count;
    last_rows += v == last;
    uint32_t g = probe.left_group[rows[0]];
    if (g == 0) {
      g = ++probe.groups;
      for (size_t k = 0; k < count; ++k) probe.left_group[rows[k]] = g;
    }
    probe.right_group[rr] = g;
    ++probe.right_matched;
  }
  if (probe.pairs == 0 || probe.pairs - last_rows > max_rows) {
    return std::nullopt;
  }
  return probe;
}

// The probed join's (left row, right row) pairs over the left rows
// `left` and the right rows `right` (every row when null; ascending), in
// NaturalJoin's order: ascending left row, then ascending right row
// within the key group. A stable counting sort buckets the right rows by
// group, so each bucket stays ascending, and a scan of the left rows
// emits each one's bucket: O(|l| + |r| + pairs), with no hash table.
void JoinByGroup(const HopProbe& probe, const std::vector<uint32_t>* left,
                 const std::vector<uint32_t>* right,
                 std::vector<uint32_t>* lrows, std::vector<uint32_t>* rrows) {
  auto each = [](const std::vector<uint32_t>* rows, size_t n, auto&& fn) {
    if (rows != nullptr) {
      for (uint32_t row : *rows) fn(row);
    } else {
      for (size_t row = 0; row < n; ++row) fn(static_cast<uint32_t>(row));
    }
  };
  const size_t nr = probe.right_group.size();
  // Bucket g spans [first[g], first[g + 1]); bucket 0 (unreached) is empty.
  std::vector<uint32_t> first(probe.groups + 2, 0);
  each(right, nr, [&](uint32_t rr) {
    const uint32_t g = probe.right_group[rr];
    if (g != 0) ++first[g + 1];
  });
  for (size_t g = 1; g < first.size(); ++g) first[g] += first[g - 1];
  std::vector<uint32_t> bucket(first.back());
  std::vector<uint32_t> fill(first.begin(), first.end() - 1);
  each(right, nr, [&](uint32_t rr) {
    const uint32_t g = probe.right_group[rr];
    if (g != 0) bucket[fill[g]++] = rr;
  });
  each(left, probe.left_group.size(), [&](uint32_t lr) {
    const uint32_t g = probe.left_group[lr];
    for (uint32_t k = first[g]; k < first[g + 1]; ++k) {
      lrows->push_back(lr);
      rrows->push_back(bucket[k]);
    }
  });
}

// An intermediate hop's output: the natural join of the hop table (left,
// path position `position`) with the path so far `r`, columns `out` (the
// whole natural-join schema), exactly NaturalJoin's rows in its order,
// as a path relation. The hop table's row ids are the pairs' left rows;
// each path table that an output column reads gets its row under each
// pair's right row. A path table read only through the join column
// drops out.
PathRelation JoinRelation(const Table& hop, size_t position, bool refolded,
                          const PathRelation& r, std::vector<uint32_t> lrows,
                          const std::vector<uint32_t>& rrows,
                          const std::vector<HopColumn>& out,
                          HopCounts* counts) {
  PathRelation next;
  next.num_rows = lrows.size();
  counts->cells += lrows.size();
  next.tables.push_back(PathTable{&hop, std::move(lrows), position, refolded});
  std::vector<size_t> slot(r.tables.size(), SIZE_MAX);
  for (const HopColumn& h : out) {
    next.names.push_back(h.name);
    if (h.left) {
      next.cols.push_back({0, h.col});
      continue;
    }
    const PathRelation::Column& c = r.cols[h.col];
    if (slot[c.table] == SIZE_MAX) {
      slot[c.table] = next.tables.size();
      const PathTable& from = r.tables[c.table];
      std::vector<uint32_t> rows(rrows.size());
      for (size_t i = 0; i < rrows.size(); ++i) {
        rows[i] = r.start ? rrows[i] : from.rows[rrows[i]];
      }
      counts->cells += rows.size();
      next.tables.push_back(
          PathTable{from.table, std::move(rows), from.position, from.refolded});
    }
    next.cols.push_back({slot[c.table], c.col});
  }
  return next;
}

// The fused last hop: exactly Distinct(Project(NaturalJoin(hop, r), out))
// without materializing the join. Each side keeps only the first
// occurrence of its projected row, join column included (the hop's list
// is shared; the path's kept columns are gathered once, for this and for
// the output). The first appearance of any output tuple comes from such
// a pair: an earlier left row with the same projection would pair with
// the same right row (same key) into an earlier copy of the tuple, and
// symmetrically on the right. Joining the deduplicated sides visits a
// subsequence of the full join's pairs in the same order, so the
// surviving tuples and their order are unchanged. When the join column
// is kept, distinct pairs of first-occurrence rows yield distinct tuples
// and no output deduplication is needed; otherwise one Distinct runs.
std::optional<Table> FusedHop(HopSide& hop, const PathRelation& r,
                              size_t left_col, const ValueId* rkey,
                              const HopProbe& probe,
                              const std::vector<HopColumn>& out,
                              HopCounts* counts) {
  const Table& l = hop.table();
  bool join_col_kept = false;
  std::vector<size_t> lkept;
  std::vector<const ValueId*> src(out.size());
  std::vector<std::vector<ValueId>> gathered(out.size());
  std::vector<const ValueId*> rcols{rkey};
  for (size_t k = 0; k < out.size(); ++k) {
    const HopColumn& h = out[k];
    if (!h.left) {
      src[k] = r.Gather(h.col, &gathered[k], counts);
      rcols.push_back(src[k]);
      continue;
    }
    src[k] = l.column(h.col).data();
    if (h.col == left_col) {
      join_col_kept = true;
    } else {
      lkept.push_back(h.col);
    }
  }
  std::sort(lkept.begin(), lkept.end());
  const std::vector<uint32_t>& lfirst = hop.FirstRows(left_col, lkept, counts);
  const std::vector<uint32_t> rfirst = FirstOccurrenceRows(rcols, r.num_rows);
  std::vector<uint32_t> lrows, rrows;
  JoinByGroup(probe, &lfirst, &rfirst, &lrows, &rrows);

  // Column-major gather of only the emitted columns.
  Table joined("", l.dict());
  for (const HopColumn& h : out) {
    if (!joined.AddColumn(h.name).ok()) return std::nullopt;
  }
  for (size_t k = 0; k < out.size(); ++k) {
    const std::vector<uint32_t>& at = out[k].left ? lrows : rrows;
    std::vector<ValueId>& col = joined.mutable_column(k);
    col.resize(at.size());
    for (size_t i = 0; i < at.size(); ++i) col[i] = src[k][at[i]];
    counts->cells += at.size();
  }
  if (!join_col_kept) joined = Distinct(joined);
  return joined;
}

// The column sets of an intermediate hop's output relation `next`, whose
// column k is the join's output column out[k], derived from the path
// tables instead of rebuilt from cells. Column k copies column c of one
// path table t over the rows of t that `next` reaches, and no other row
// of t, so its distinct set is exactly the distinct set of t's column c
// over those rows. In order:
//   - a path column borrows the previous relation's set (`path_all`,
//     null unless every path row matched: then every previous row is in
//     `next`, and so is every reached row of each table);
//   - a column of a table whose every row is reached borrows that
//     table's own set (`full_sets`, null for a refolded family);
//   - otherwise it is deduplicated over t's reached rows (at most |t|).
// Borrowed views point into sets that must outlive the result.
template <typename FullSets>
ColumnSets DeriveHopSets(const std::vector<HopColumn>& out,
                         const PathRelation& next, const ColumnSets* path_all,
                         FullSets full_sets, HopCounts* counts) {
  // Per path table, on first need: whether every row is reached, and
  // otherwise the reached rows, ascending.
  struct Reach {
    bool known = false;
    bool all = false;
    std::vector<uint32_t> rows;
  };
  std::vector<Reach> reach(next.tables.size());
  ColumnSets s;
  s.owned.reserve(out.size());
  s.views.reserve(out.size());
  for (size_t k = 0; k < out.size(); ++k) {
    if (!out[k].left && path_all != nullptr) {
      s.views.push_back(path_all->col(out[k].col));
      ++counts->borrowed;
      continue;
    }
    const PathRelation::Column& c = next.cols[k];
    const PathTable& t = next.tables[c.table];
    Reach& r = reach[c.table];
    if (!r.known) {
      const size_t n = t.table->num_rows();
      std::vector<char> seen(n, 0);
      size_t distinct = 0;
      for (uint32_t row : t.rows) {
        distinct += !seen[row];
        seen[row] = 1;
      }
      r.known = true;
      r.all = distinct == n;
      if (!r.all) {
        r.rows.reserve(distinct);
        for (size_t row = 0; row < n; ++row) {
          if (seen[row]) r.rows.push_back(static_cast<uint32_t>(row));
        }
      }
    }
    const ColumnSets* all = r.all ? full_sets(t) : nullptr;
    if (all != nullptr) {
      s.views.push_back(all->col(c.col));
      ++counts->borrowed;
      continue;
    }
    s.owned.push_back(
        SortedDistinctValues(*t.table, c.col, r.all ? nullptr : &r.rows));
    s.views.push_back(ValueSpan(s.owned.back()));
    ++counts->deduped;
  }
  ++counts->hops;
  return s;
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
  const uint64_t join_cap = std::min<uint64_t>(limits.max_rows(), 200000);

  // One pool serves both parallel phases. Every phase writes only to
  // its own index slot (or a call_once slot) and reduces in
  // candidate-index order, so thread count never changes results.
  size_t threads = std::min(ThreadPool::ResolveThreads(options.num_threads), n);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= 4) pool = std::make_unique<ThreadPool>(threads);

  // Column value sets and canonical (sorted) schemas, once per candidate
  // — catalog-backed candidates borrow the shared sorted sets, the rest
  // get a one-pass sorted build; schema-family comparisons are then
  // plain vector equality.
  std::vector<ColumnSets> sets(n);
  std::vector<char> backed(n, 0);
  std::vector<std::vector<std::string>> sorted_schemas(n);
  ParallelFor(pool.get(), n, [&](size_t i) {
    const Candidate& c = candidates[i];
    backed[i] = CatalogBacked(c);
    sets[i] = backed[i]
                  ? SetsFromCatalog(*c.stats, c.lake_index, c.table.num_cols())
                  : SetsFromTable(c.table);
    sorted_schemas[i] = c.table.column_names();
    std::sort(sorted_schemas[i].begin(), sorted_schemas[i].end());
  });
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // The best pair from candidate x's columns to candidate y's. When both
  // are lake tables of one catalog, the edge is a function of the
  // catalog and the two lake tables alone, so it is read from (or, on a
  // miss, scored into) the catalog's join-edge memo under the directed
  // key (lake x, lake y): BestJoinPair's tie-break is not symmetric.
  // Every other pair is scored (DESIGN.md §5.7).
  std::atomic<size_t> pairs_computed{0};
  auto score_pair = [&](size_t x, size_t y) -> std::optional<JoinPair> {
    const Candidate& cx = candidates[x];
    const Candidate& cy = candidates[y];
    JoinEdgeMemo* memo = backed[x] && backed[y] && cx.stats == cy.stats
                             ? &cx.stats->join_edges()
                             : nullptr;
    std::optional<JoinPair> pair;
    if (memo != nullptr && memo->Find(cx.lake_index, cy.lake_index, &pair)) {
      return pair;
    }
    pair = BestJoinPair(sets[x], cx.table.num_rows(), sets[y],
                        cy.table.num_rows(), kJoinThreshold);
    pairs_computed.fetch_add(1, std::memory_order_relaxed);
    if (memo != nullptr) memo->Insert(cx.lake_index, cy.lake_index, pair);
    return pair;
  };

  // Join graph: value-overlap edges with their best column pair, built
  // lazily (DESIGN.md §5.7). A node's adjacency is built the first time
  // Dijkstra or the forced-path neighbor sort asks for it, so pairs that
  // no path search reaches are never scored; with every candidate
  // covering the key, none is. Each unordered pair is read once
  // (score_pair), under call_once, from its lower index: BestJoinPair's
  // (a_col, b_col) tie-break is not symmetric, and the lower-index
  // direction is the one the eager scan scored. The higher index reads
  // it swapped. Neighbors
  // are listed in ascending index order, the order the eager reduction
  // produced, so Dijkstra's relaxations and the neighbor sort's ties are
  // unchanged. Which thread scores a pair or builds an adjacency never
  // changes either.
  struct Edge {
    size_t to;
    JoinPair pair;  // pair.a_col indexes the *from* table
  };
  struct PairSlot {
    std::once_flag once;
    std::optional<JoinPair> pair;
  };
  struct Adjacency {
    std::once_flag once;
    std::vector<Edge> edges;
  };
  std::vector<PairSlot> pair_slots(n * (n - 1) / 2);
  std::vector<Adjacency> adjacency(n);
  std::atomic<size_t> pairs_scored{0};
  auto join_pair = [&](size_t i, size_t j) -> const std::optional<JoinPair>& {
    // i < j; row i of the upper triangle starts at i·n − i(i+1)/2.
    PairSlot& slot = pair_slots[i * n - i * (i + 1) / 2 + (j - i - 1)];
    std::call_once(slot.once, [&] {
      slot.pair = score_pair(i, j);
      pairs_scored.fetch_add(1, std::memory_order_relaxed);
    });
    return slot.pair;
  };
  auto adj = [&](size_t x) -> const std::vector<Edge>& {
    Adjacency& a = adjacency[x];
    std::call_once(a.once, [&] {
      for (size_t y = 0; y < n; ++y) {
        if (y == x) continue;
        const std::optional<JoinPair>& p =
            x < y ? join_pair(x, y) : join_pair(y, x);
        if (!p) continue;
        a.edges.push_back(
            x < y ? Edge{y, *p}
                  : Edge{y, JoinPair{p->b_col, p->a_col, p->weight,
                                     p->inter}});
      }
    });
    return a.edges;
  };

  // Hop-family unions: the inner-union of a hop table with its
  // same-schema siblings depends only on the hop (an ascending fold;
  // InnerUnion rejects every other schema), so expansion paths share one
  // copy instead of refolding the family per (start, hop) pair. The lone
  // exception — the start candidate itself belongs to the hop's family
  // and must be excluded — refolds in build_expansion.
  // The ascending inner-union fold of hop `h`'s family, skipping `skip`,
  // in one pass: InnerUnion accepts exactly the tables whose column-name
  // set is the hop's (names are unique, so equal widths and containment
  // mean equal sets) and appends their rows by name onto the hop's column
  // order, so the fold is h's rows, then each member's ascending. nullopt
  // when no member has a row to add: the union is the candidate itself.
  auto fold_family = [&](size_t h, size_t skip) -> std::optional<Table> {
    const Table& head = candidates[h].table;
    std::vector<size_t> members;
    size_t rows = head.num_rows();
    for (size_t other = 0; other < n; ++other) {
      if (other == h || other == skip) continue;
      if (sorted_schemas[other] != sorted_schemas[h]) continue;
      if (candidates[other].table.num_rows() == 0) continue;
      members.push_back(other);
      rows += candidates[other].table.num_rows();
    }
    if (members.empty()) return std::nullopt;
    Table t(head.name(), head.dict());
    for (const std::string& name : head.column_names()) {
      (void)t.AddColumn(name);  // names are unique
    }
    for (size_t c = 0; c < head.num_cols(); ++c) {
      std::vector<ValueId>& col = t.mutable_column(c);
      col.reserve(rows);
      col.assign(head.column(c).begin(), head.column(c).end());
      for (size_t m : members) {
        const Table& src = candidates[m].table;
        const std::vector<ValueId>& from =
            src.column(*src.ColumnIndex(head.column_name(c)));
        col.insert(col.end(), from.begin(), from.end());
      }
    }
    return t;
  };
  // Per hop, its family union, the union's join side (HopSide) and the
  // union's column sets (for a fully reached hop table, DeriveHopSets),
  // each built at most once per Expand on first use by any path, so hops
  // no path reaches cost nothing. call_once: each is a function of the
  // hop alone, so which thread builds it never changes it. A union that
  // adds no rows is the candidate's own table and shares its sets.
  struct Family {
    std::once_flag union_once;
    std::optional<Table> union_table;
    std::optional<HopSide> side;
    std::once_flag sets_once;
    ColumnSets sets;
  };
  std::vector<Family> families(n);
  auto family_side = [&](size_t h) -> HopSide& {
    Family& f = families[h];
    std::call_once(f.union_once, [&] {
      f.union_table = fold_family(h, SIZE_MAX);
      f.side.emplace(f.union_table ? *f.union_table : candidates[h].table);
    });
    return *f.side;
  };
  auto union_sets = [&](size_t h) -> const ColumnSets* {
    Family& f = families[h];
    family_side(h);
    if (!f.union_table) return &sets[h];
    std::call_once(f.sets_once,
                   [&] { f.sets = SetsFromTable(*f.union_table); });
    return &f.sets;
  };

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
      for (const Edge& e : adj(node)) {
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

  // One key table serves every path's scoring matrix and mapping
  // verification (the source is fixed for the whole expansion).
  const JoinKeyTable source_keys = SourceKeyTable(source);

  // Materializes one expansion along `path`; nullopt = unusable.
  // `preserve` is the start candidate's column-name set (see
  // ResolveHopNames). Intermediate hops stay late-materialized path
  // relations (JoinRelation): row ids into the path tables, of which
  // only the next hop's join column is gathered. Their column sets feed
  // the next hop's pair search and are derived from the path tables and
  // the rows the relation reaches (DeriveHopSets), never from cells. The
  // last hop is fused with the projection to the start candidate's
  // columns plus the source key and the Distinct over them (FusedHop),
  // so it never materializes the join.
  auto build_expansion = [&](size_t ci, const std::vector<size_t>& path,
                             const std::unordered_set<std::string>& preserve,
                             HopCounts* counts) -> std::optional<Table> {
    const Candidate& cand = candidates[ci];
    PathRelation rel = PathRelation::Start(candidates[path[0]].table);
    // Families refolded without the start, alive until the last hop:
    // every later relation may still read their rows.
    std::deque<Table> refolds;
    // One entry per intermediate hop, alive for the whole path: a hop's
    // sets may borrow views from the previous hop's.
    std::vector<ColumnSets> hop_sets;
    hop_sets.reserve(path.size());
    const ColumnSets* rel_sets = &sets[path[0]];
    // A path table's sets over all its rows: the start candidate's, or a
    // shared family union's. A refolded family has none.
    auto full_sets = [&](const PathTable& t) -> const ColumnSets* {
      if (t.refolded) return nullptr;
      return t.position == 0 ? &sets[path[0]] : union_sets(path[t.position]);
    };
    std::optional<Table> fused;
    for (size_t p = 1; p < path.size(); ++p) {
      // Per-hop checkpoint. An interrupted hop drops the path like any
      // failed join; the driver's terminal Interrupted() check below
      // turns the run into a hard Cancelled/Timeout, so the dropped
      // path can never masquerade as a complete expansion.
      if (!limits.Interrupted().ok()) return std::nullopt;
      size_t next = path[p];
      // The first hop joins the start candidate itself, so its pair is
      // the directed edge (path[0], next), usually memoized already.
      auto pair = p == 1 ? score_pair(path[0], next)
                         : BestJoinPair(*rel_sets, rel.num_rows, sets[next],
                                        candidates[next].table.num_rows(),
                                        kJoinThreshold);
      if (!pair) return std::nullopt;
      // Join against the inner-union of the hop table's schema family: a
      // single lake table may be missing join-key values (nulls) that a
      // sibling variant supplies. The start candidate's own rows never
      // join back into its expansion, so it is excluded from the family
      // — when it isn't part of it anyway, the shared union serves. A
      // refolded family's side is this path's own.
      const bool refold = sorted_schemas[ci] == sorted_schemas[next];
      std::optional<HopSide> refolded_side;
      if (refold) {
        std::optional<Table> folded = fold_family(next, ci);
        if (folded) refolds.push_back(std::move(*folded));
        refolded_side.emplace(folded ? refolds.back() : candidates[next].table);
      }
      HopSide& side = refold ? *refolded_side : family_side(next);
      const Table& hop = side.table();
      // Hop table on the LEFT so its column names -- including the mapped
      // source key columns of the path's end table -- survive the rename.
      std::vector<std::string> lnames = hop.column_names();
      std::vector<std::string> rnames = rel.names;
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
      std::vector<ValueId> key_cells;
      const ValueId* rkey = rel.Gather(pair->a_col, &key_cells, counts);
      const std::optional<HopProbe> probe =
          ProbeHop(side.Keys(pair->b_col, counts), hop, pair->b_col, rkey,
                   rel.num_rows, join_cap);
      if (!probe.has_value()) return std::nullopt;
      if (last) {
        fused = FusedHop(side, rel, pair->b_col, rkey, *probe, out, counts);
        break;
      }
      std::vector<uint32_t> lrows, rrows;
      lrows.reserve(probe->pairs);
      rrows.reserve(probe->pairs);
      JoinByGroup(*probe, nullptr, nullptr, &lrows, &rrows);
      PathRelation joined = JoinRelation(hop, p, refold, rel, std::move(lrows),
                                         rrows, out, counts);
      const ColumnSets* path_all =
          probe->right_matched == rel.num_rows ? rel_sets : nullptr;
      hop_sets.push_back(
          DeriveHopSets(out, joined, path_all, full_sets, counts));
      rel_sets = &hop_sets.back();
      rel = std::move(joined);
    }
    // Paths always hold a start and an end (best_path never returns the
    // start alone), so only a failed last hop leaves this empty.
    if (!fused.has_value()) return std::nullopt;
    Table expanded = std::move(*fused);

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
      // Each row aligns to the first source row carrying its key.
      std::vector<std::pair<size_t, size_t>> align;
      std::vector<ValueId> key(key_cols.size());
      for (size_t r = 0; r < expanded.num_rows(); ++r) {
        bool null_key = false;
        for (size_t k = 0; k < key_cols.size(); ++k) {
          key[k] = expanded.cell(r, key_cols[k]);
          null_key |= key[k] == kNull;
        }
        if (null_key) continue;
        auto [rows, count] = source_keys.Find(key.data());
        if (count > 0) align.emplace_back(r, rows[0]);
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
  // (candidates, sets, key lookup), the join graph's pairs and
  // adjacencies, family unions and their sets (each built once, under
  // call_once, as a function of its endpoints or hop alone)
  // and the shared dictionary (never appended to by join/union/project),
  // so candidates expand concurrently with bit-identical outcomes.
  struct Slot {
    std::optional<Table> table;
    bool expanded = false;
    bool dropped = false;
    HopCounts hop_counts;
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
    for (const Edge& e : adj(i)) neighbors.push_back(&e);
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
      slot.dropped = true;
      return;
    }

    const std::unordered_set<std::string> preserve(
        cand.table.column_names().begin(), cand.table.column_names().end());
    std::optional<Table> best_table;
    double best_score = -1.0;
    for (const auto& path : paths) {
      if (!limits.Interrupted().ok()) return;
      auto expansion = build_expansion(i, path, preserve, &slot.hop_counts);
      if (!expansion.has_value()) continue;
      auto matrix =
          InitializeMatrix(source, *expansion, MatrixOptions{}, source_keys);
      if (!matrix.ok()) continue;
      double score = EvaluateMatrixSimilarity(*matrix, source);
      if (score > best_score) {
        best_score = score;
        best_table = std::move(expansion);
      }
    }
    if (!best_table.has_value()) {
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
  HopCounts hop_counts;
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    hop_counts += slot.hop_counts;
    if (slot.table.has_value()) {
      result.tables.push_back(std::move(*slot.table));
      result.num_expanded += slot.expanded;
    } else if (slot.dropped) {
      ++result.num_dropped;
    }
  }
  result.intermediate_hops = hop_counts.hops;
  result.hop_sets_borrowed = hop_counts.borrowed;
  result.hop_sets_deduped = hop_counts.deduped;
  result.hop_sides_built = hop_counts.sides_built;
  result.hop_sides_reused = hop_counts.sides_reused;
  result.hop_cells_gathered = hop_counts.cells;
  result.join_pairs_scored = pairs_scored.load(std::memory_order_relaxed);
  result.join_pairs_computed = pairs_computed.load(std::memory_order_relaxed);
  return result;
}

}  // namespace gent
