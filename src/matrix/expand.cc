#include "src/matrix/expand.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
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
// overlap of joinable columns", Algorithm 5).
struct JoinPair {
  size_t a_col = 0;
  size_t b_col = 0;
  double weight = 0.0;  // |Va ∩ Vb| / max(|Va|, |Vb|)
  size_t inter = 0;
};

// Distinct value sets per column as sorted, deduplicated id vectors.
// Views either borrow sets that already exist or point into `owned`.
// Borrowed: the shared catalog's immutable sets (untouched lake
// candidates: zero recomputation, zero copies), and, for an
// intermediate hop's join output, its input's sets when every row of
// that input matched (DeriveHopSets). Owned: one SortedDistinctValues
// build per column of an ad-hoc candidate or a sibling-absorbing family
// union, or per partially matched output column over its input's
// matched rows. Move-safe: moving the outer vectors keeps the inner
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

// The rows of each HopJoin input that reach its output (matched at least
// once), ascending.
struct HopMatches {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

// Per-path work counters (ExpandResult reports the sums). Intermediate
// hops and their output columns' sets by how they were obtained, and the
// hop sides HopJoin looked up by whether the lookup built or reused them.
struct HopCounts {
  size_t hops = 0;
  size_t borrowed = 0;
  size_t deduped = 0;
  size_t sides_built = 0;
  size_t sides_reused = 0;
  HopCounts& operator+=(const HopCounts& o) {
    hops += o.hops;
    borrowed += o.borrowed;
    deduped += o.deduped;
    sides_built += o.sides_built;
    sides_reused += o.sides_reused;
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

// Inner join of the hop table `hop` with the path so far `r` on
// hop[left_col] = r[right_col] (the names resolved by ResolveHopNames),
// emitting the columns `out`.
//
// Without `distinct`, `out` is the whole natural-join schema (the hop's
// columns, then r's minus its join column) and the result is exactly
// NaturalJoin of the renamed tables: rows by ascending left row, then
// ascending right row within the key group. Only the left rows whose key
// some right row carries are visited: the right side marks them through
// the hop's shared key table. `matches` receives the rows of each side
// that the join emitted, for DeriveHopSets.
//
// With `distinct` (the fused last hop) the result is exactly
// Distinct(Project(that join, out)) without materializing the join.
// Each side keeps only the first occurrence of its projected row, join
// column included (the hop's list is shared). The first appearance of
// any output tuple comes from such a pair: an earlier left row with the
// same projection would pair with the same right row (same key) into an
// earlier copy of the tuple, and symmetrically on the right. Joining the
// deduplicated sides visits a subsequence of the full join's pairs in
// the same order, so the surviving tuples and their order are unchanged.
// When the join column is kept, distinct pairs of first-occurrence rows
// yield distinct tuples and no output deduplication is needed; otherwise
// one Distinct runs. `matches` is ignored (the fused hop's sets are never
// read).
//
// The row cap is decided before anything is joined, and trips exactly
// where NaturalJoin's would. NaturalJoin checks its running output count
// against `max_rows` before each left row; that count is the prefix sum,
// over the earlier left rows, of each row's right-side multiplicity.
// Prefix sums never decrease, so some check fails iff the last one does,
// i.e. iff the full join size minus the last left row's multiplicity
// exceeds `max_rows`. Both numbers come from one pass over the right
// rows probing the hop's key table, O(|r|). nullopt when the cap trips
// or the join is empty.
std::optional<Table> HopJoin(HopSide& hop, const Table& r, size_t left_col,
                             size_t right_col,
                             const std::vector<HopColumn>& out, bool distinct,
                             uint64_t max_rows, HopMatches* matches,
                             HopCounts* counts) {
  const Table& l = hop.table();
  const JoinKeyTable& lkeys = hop.Keys(left_col, counts);
  const ValueId* lkey = l.column(left_col).data();
  const ValueId* rkey = r.column(right_col).data();
  const ValueId last = l.num_rows() == 0 ? kNull : lkey[l.num_rows() - 1];
  // Left rows whose key some right row carries (intermediate hops only).
  std::vector<char> lmarked(distinct ? 0 : l.num_rows(), 0);
  uint64_t full_rows = 0, last_rows = 0;
  for (size_t rr = 0; rr < r.num_rows(); ++rr) {
    const ValueId v = rkey[rr];
    if (v == kNull) continue;
    auto [rows, count] = lkeys.Find(&v);
    if (count == 0) continue;
    full_rows += count;
    last_rows += v == last;
    if (distinct) continue;
    matches->right.push_back(static_cast<uint32_t>(rr));
    // A key's left rows are all marked together, so its first row tells
    // whether the group is already marked.
    if (!lmarked[rows[0]]) {
      for (size_t k = 0; k < count; ++k) lmarked[rows[k]] = 1;
    }
  }
  if (full_rows == 0 || full_rows - last_rows > max_rows) return std::nullopt;

  std::vector<uint32_t> lrows, rrows;
  bool join_col_kept = false;
  if (distinct) {
    std::vector<size_t> lkept;
    std::vector<const ValueId*> rcols{rkey};
    for (const HopColumn& h : out) {
      if (h.left && h.col == left_col) {
        join_col_kept = true;
      } else if (h.left) {
        lkept.push_back(h.col);
      } else {
        rcols.push_back(r.column(h.col).data());
      }
    }
    std::sort(lkept.begin(), lkept.end());
    const std::vector<uint32_t>& lfirst =
        hop.FirstRows(left_col, lkept, counts);
    const std::vector<uint32_t> rfirst_rows =
        FirstOccurrenceRows(rcols, r.num_rows());
    const JoinKeyTable rfirst({rkey}, r.num_rows(), &rfirst_rows);
    for (uint32_t lr : lfirst) {
      const ValueId v = lkey[lr];
      if (v == kNull) continue;
      auto [rows, count] = rfirst.Find(&v);
      for (size_t k = 0; k < count; ++k) {
        lrows.push_back(lr);
        rrows.push_back(rows[k]);
      }
    }
  } else {
    const JoinKeyTable rkeys({rkey}, r.num_rows());
    lrows.reserve(full_rows);
    rrows.reserve(full_rows);
    for (size_t lr = 0; lr < l.num_rows(); ++lr) {
      if (!lmarked[lr]) continue;
      matches->left.push_back(static_cast<uint32_t>(lr));
      auto [rows, count] = rkeys.Find(&lkey[lr]);
      for (size_t k = 0; k < count; ++k) {
        lrows.push_back(static_cast<uint32_t>(lr));
        rrows.push_back(rows[k]);
      }
    }
  }

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

// The column sets of an intermediate hop's join output, derived from its
// inputs instead of rebuilt from its cells. Output column k copies input
// column c of one side over that side's matched rows: every matched row
// appears in the output at least once and no other row does, so the
// output column's distinct set is exactly the distinct set of c over
// the matched rows. When every row of a side matched, that is the
// side's own set and is borrowed (`left_all` / `right_all`, null when
// unknown or when not every row matched); otherwise it is deduplicated
// over the matched rows, O(input rows) instead of O(output rows). The
// borrowed views point into the input sets, which must outlive the
// result.
ColumnSets DeriveHopSets(const std::vector<HopColumn>& out, const Table& l,
                         const Table& r, const HopMatches& matches,
                         const ColumnSets* left_all,
                         const ColumnSets* right_all, HopCounts* counts) {
  ColumnSets s;
  s.owned.reserve(out.size());
  s.views.reserve(out.size());
  for (const HopColumn& h : out) {
    const ColumnSets* all = h.left ? left_all : right_all;
    if (all != nullptr) {
      s.views.push_back(all->col(h.col));
      ++counts->borrowed;
      continue;
    }
    const Table& t = h.left ? l : r;
    const std::vector<uint32_t>& rows = h.left ? matches.left : matches.right;
    s.owned.push_back(SortedDistinctValues(
        t, h.col, rows.size() == t.num_rows() ? nullptr : &rows));
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

  const bool debug = getenv("GENT_DEBUG_EXPAND") != nullptr;

  // One pool serves both parallel phases. Every phase writes only to
  // its own index slot (or a call_once slot) and reduces in
  // candidate-index order, so thread count never changes results. Debug
  // forces serial so the trace on stderr stays in candidate order.
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

  // Join graph: value-overlap edges with their best column pair, built
  // lazily (DESIGN.md §5.7). A node's adjacency is built the first time
  // Dijkstra or the forced-path neighbor sort asks for it, so pairs that
  // no path search reaches are never scored; with every candidate
  // covering the key, none is. Each unordered pair is scored once, under
  // call_once, from its lower index: BestJoinPair's (a_col, b_col)
  // tie-break is not symmetric, and the lower-index direction is the one
  // the eager scan scored. The higher index reads it swapped. Neighbors
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
      slot.pair =
          BestJoinPair(sets[i], candidates[i].table.num_rows(), sets[j],
                       candidates[j].table.num_rows(), kJoinThreshold);
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
  // union's column sets (for a fully matched hop side, DeriveHopSets),
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

  if (debug) {
    for (size_t i = 0; i < n; ++i) {
      fprintf(stderr, "[edges] %s:", candidates[i].table.name().c_str());
      for (const Edge& e : adj(i)) {
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
  // ResolveHopNames). Intermediate hops materialize the whole join, and
  // its column sets feed the next hop's pair search. They are derived
  // from the join's two inputs and the rows that matched (DeriveHopSets),
  // never rebuilt from the join's cells. The last hop is fused with the
  // projection to the start candidate's columns plus the source key and
  // the Distinct over them (HopJoin), so it never materializes the join.
  auto build_expansion = [&](size_t ci, const std::vector<size_t>& path,
                             const std::unordered_set<std::string>& preserve,
                             HopCounts* counts) -> std::optional<Table> {
    const Candidate& cand = candidates[ci];
    const Table* joined = &candidates[path[0]].table;
    std::optional<Table> materialized;
    // One entry per intermediate hop, alive for the whole path: a hop's
    // sets may borrow views from the previous hop's.
    std::vector<ColumnSets> hop_sets;
    hop_sets.reserve(path.size());
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
      // — when it isn't part of it anyway, the shared union serves. A
      // refolded family's side is this path's own.
      const bool refold = sorted_schemas[ci] == sorted_schemas[next];
      std::optional<Table> refolded;
      std::optional<HopSide> refolded_side;
      if (refold) {
        refolded = fold_family(next, ci);
        refolded_side.emplace(refolded ? *refolded : candidates[next].table);
      }
      HopSide& side = refold ? *refolded_side : family_side(next);
      const Table& hop = side.table();
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
      HopMatches matches;
      auto j = HopJoin(side, *joined, pair->b_col, pair->a_col, out,
                       /*distinct=*/last, join_cap, &matches, counts);
      if (!j.has_value()) return std::nullopt;
      if (!last) {
        // A refolded family has no prebuilt sets, so its side always
        // dedups over its matched rows.
        const ColumnSets* left_all =
            !refold && matches.left.size() == hop.num_rows()
                ? union_sets(next)
                : nullptr;
        const ColumnSets* right_all =
            matches.right.size() == joined->num_rows() ? joined_sets : nullptr;
        hop_sets.push_back(DeriveHopSets(out, hop, *joined, matches, left_all,
                                         right_all, counts));
        joined_sets = &hop_sets.back();
      }
      // Replacing `materialized` frees the previous intermediate, which
      // the derivation above reads, so it runs first.
      materialized = std::move(j);
      joined = &*materialized;
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
      auto expansion = build_expansion(i, path, preserve, &slot.hop_counts);
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
  result.join_pairs_scored = pairs_scored.load(std::memory_order_relaxed);
  return result;
}

}  // namespace gent
