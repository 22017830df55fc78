// Shared, immutable per-lake column statistics (the engine layer's
// read-only backbone; DESIGN.md §5).
//
// A ColumnStatsCatalog is built exactly once per data lake and owns the
// three structures every candidate-retrieval query needs:
//
//   1. the sorted distinct value set of every lake column (nulls and
//      labeled nulls excluded),
//   2. per-column cardinalities derived from those sets, and
//   3. a CSR-layout postings index mapping each distinct lake value to
//      the dense ids of the columns containing it.
//
// Two storage backends sit behind one accessor surface (DESIGN.md
// §5.10). The default builds everything in RAM from the lake. The
// mapped backend (OpenMapped) instead borrows the catalog sections of a
// v2 snapshot through an mmap + buffer pool: open cost is O(footer +
// prefaulting the hot spine), and per-column runs and CSR payload fault
// in on first touch. Every accessor returns ValueSpan views, which both
// backends satisfy and which stay valid for the mapping's lifetime
// (src/storage/span.h); all read results are bit-identical between
// backends at any thread count — the backend is a residency decision,
// never a semantics decision.
//
// Because the catalog is immutable after construction, any number of
// threads may query it concurrently without synchronization — this is
// the contract ReclaimService and its batch engine build on (a
// ReclaimService shard is exactly one catalog plus its lake; runtime
// shard replacement swaps whole catalogs, never mutates one). The
// mapped backend preserves this: the only mutable state behind a read
// is the buffer pool's residency bookkeeping, which is internally
// synchronized and invisible to results. The one other mutable member
// is the join-edge memo (join_edges(), DESIGN.md §5.7): Expand's
// scored edges between this catalog's lake tables, kept for the
// catalog's lifetime. It too is internally synchronized and invisible
// to results: a stored edge is exactly what scoring returns, and a
// new catalog starts with an empty memo. Overlap computation is
// merge-based throughout: queries arrive as sorted, deduplicated
// ValueId vectors and are intersected against the sorted postings /
// value sets with linear merges instead of hash probing, so hot scans
// touch memory sequentially and never build per-query hash sets for
// lake columns.
//
// Thread-safety and determinism summary (details per method): every
// public method is const, safe to call concurrently from any number of
// threads, and every method's result is a pure function of (lake
// content, arguments) — no iteration order, scheduling, hashing, or
// storage backend leaks into any output.

#ifndef GENT_ENGINE_COLUMN_STATS_CATALOG_H_
#define GENT_ENGINE_COLUMN_STATS_CATALOG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/join_edge_memo.h"
#include "src/lake/data_lake.h"
#include "src/storage/catalog_pager.h"
#include "src/storage/span.h"

namespace gent {

/// Borrowed view of a sorted ValueId run — what every catalog read path
/// returns. Implicitly constructible from std::vector<ValueId>, so
/// ad-hoc vectors (query sets, test fixtures) flow through unchanged.
using ValueSpan = storage::Span<ValueId>;

/// A (table, column) coordinate in the lake.
struct ColumnRef {
  uint32_t table = 0;
  uint32_t column = 0;

  bool operator==(const ColumnRef& o) const {
    return table == o.table && column == o.column;
  }
};

struct ColumnRefHash {
  size_t operator()(const ColumnRef& c) const {
    return (static_cast<uint64_t>(c.table) << 32) | c.column;
  }
};

class ColumnStatsCatalog {
 public:
  /// Builds stats for every column of every table in `lake`, in RAM.
  /// The catalog holds a reference; the lake must outlive it.
  explicit ColumnStatsCatalog(const DataLake& lake);

  /// Opens the built catalog sections of the v2 snapshot at `path` as
  /// this lake's catalog — O(open + fault-in), no rebuild. The caller
  /// must ensure the snapshot's id space IS the lake's (LoadSnapshot
  /// reports this as SnapshotLoadInfo::identity_remap); the file's
  /// geometry is validated here, its content by checksums at load (or
  /// at open when `options.verify_checksums`). Fails with
  /// InvalidArgument on a v1 snapshot or a column-count mismatch with
  /// the lake, IOError on corruption.
  static Result<std::shared_ptr<const ColumnStatsCatalog>> OpenMapped(
      const DataLake& lake, const std::string& path,
      const storage::MappedCatalog::Options& options);

  /// Owning run-catalog arrays for the tables [first_table, lake.size())
  /// — what AppendSnapshotDelta serializes as one delta run and what
  /// WithAppended layers over a base catalog. Column ids are GLOBAL
  /// dense ids (they continue the lake's layout), so the run's postings
  /// compose with any catalog over tables [0, first_table).
  struct DeltaRunArrays {
    uint64_t first_col = 0;
    std::vector<std::vector<ValueId>> values;  // per appended column
    std::vector<ValueId> spine;                // run's own distinct set
    std::vector<uint32_t> post_offsets;        // spine.size() + 1
    std::vector<uint32_t> post_cols;           // global dense col ids
    storage::DeltaRunCatalogViews views() const;
  };

  /// Builds the run catalog for `lake`'s tables [first_table,
  /// lake.size()) with exactly the algorithm the full constructor uses
  /// per table, so folding runs into a rebuilt catalog is bit-identical
  /// to having built over all tables at once. Deterministic in (lake
  /// content, first_table).
  static DeltaRunArrays BuildDeltaRun(const DataLake& lake,
                                      size_t first_table);

  /// Layers a freshly built run catalog for `lake`'s tables
  /// [first_table, lake.size()) over `base` (whose catalog covers
  /// [0, first_table) of the SAME content — `lake` is base->lake() plus
  /// appended tables in the same id space). The result serves reads
  /// over the union through the run-merge layer, bit-identical to a
  /// full rebuild over `lake`, for both base backends. `base` is kept
  /// alive by the returned catalog; `lake` must outlive it. Fails with
  /// InvalidArgument when the column layouts do not chain.
  static Result<std::shared_ptr<const ColumnStatsCatalog>> WithAppended(
      std::shared_ptr<const ColumnStatsCatalog> base, const DataLake& lake,
      size_t first_table);

  const DataLake& lake() const { return lake_; }

  /// Total number of columns across all lake tables (dense id space).
  size_t num_columns() const { return col_refs_.size(); }

  /// Dense column id of `ref` (tables laid out consecutively).
  uint32_t ColumnIdOf(ColumnRef ref) const {
    return table_offsets_[ref.table] + ref.column;
  }
  ColumnRef RefOf(uint32_t col_id) const { return col_refs_[col_id]; }

  /// Sorted distinct values of one lake column (ascending, null-free).
  /// The span stays valid for the catalog's lifetime (both backends).
  ValueSpan SortedValues(ColumnRef ref) const {
    const ValueSpan s = cols_[ColumnIdOf(ref)];
    TouchSpan(s);
    return s;
  }

  /// Sorted-set handle by (table, column) index — what ExpandEngine
  /// borrows for candidates that are untouched lake tables, so the
  /// join-graph build recomputes nothing.
  ValueSpan SortedValuesOf(size_t table, size_t column) const {
    const ValueSpan s = cols_[table_offsets_[table] + column];
    TouchSpan(s);
    return s;
  }

  /// Distinct non-null count of one lake column. Never faults.
  size_t Cardinality(ColumnRef ref) const {
    return cols_[ColumnIdOf(ref)].size();
  }

  /// One column's overlap with a query value set.
  struct Overlap {
    ColumnRef ref;
    uint32_t count = 0;
  };

  /// For a sorted, deduplicated, null-free query value set: the number of
  /// query values present in each lake column sharing at least one value.
  /// Results are ordered by dense column id (deterministic). Thread-safe
  /// (immutable state only).
  std::vector<Overlap> OverlapCounts(ValueSpan sorted_query) const;

  /// Top-k lake tables ranked by distinct shared values with the whole
  /// query table (count descending, table index ascending on ties);
  /// tables sharing no value are never returned. Thread-safe;
  /// deterministic in (lake, query, k).
  std::vector<size_t> TopKTables(const Table& query, size_t k) const;

  /// True if any `sorted_query` value (sorted, deduplicated, null-free)
  /// occurs anywhere in the lake — a postings-spine merge that returns
  /// at the first shared value, no per-column work. False means
  /// discovery on this lake can produce no candidate for that query set
  /// (the recall stage ranks by shared values and forwards only tables
  /// sharing at least one), which is the invariant ReclaimService's
  /// fan-out prefilter relies on to skip whole shards without
  /// changing results. Thread-safe; deterministic in (lake, query).
  bool SharesAnyValue(ValueSpan sorted_query) const;

  /// Borrowed views of the built arrays in snapshot-v2 section layout —
  /// what SaveSnapshotV2 serializes. Valid for the catalog's lifetime.
  /// Only meaningful for a single-region catalog (a fresh RAM build or
  /// a mapped snapshot without runs); a layered catalog cannot be
  /// serialized as one base section set — rebuild first
  /// (CompactSnapshotV2 does exactly that).
  storage::CatalogSectionViews section_views() const;

  /// Number of postings regions behind the read paths: 1 for a fresh
  /// build, 1 + runs for a catalog carrying delta runs. Reads are
  /// region-count-invariant; this exists for tests and residency
  /// reporting.
  size_t num_regions() const { return regions_.size(); }

  /// Expand's memo of scored join-graph edges between this catalog's
  /// lake tables (src/engine/join_edge_memo.h). Empty until the first
  /// insert, at most kJoinEdgeMemoBytes of slots, alive as long as the
  /// catalog; a layered catalog (WithAppended) has its own. Safe to use
  /// from any number of threads; it never changes a result.
  JoinEdgeMemo& join_edges() const { return join_edges_; }

  /// Storage-residency counters for one catalog (surfaced per shard by
  /// ReclaimService::residency_stats). For the RAM backend everything
  /// is trivially resident and the pool counters stay zero.
  struct Residency {
    bool mapped = false;
    uint64_t bytes_total = 0;     // catalog array bytes (both backends)
    uint64_t bytes_resident = 0;  // physically resident catalog bytes
    uint64_t pool_hits = 0;
    uint64_t pool_faults = 0;
    uint64_t pool_read_faults = 0;  // sticky I/O faults (storage_health)
    // This catalog's own join-edge memo (a layered catalog's base keeps
    // its own, which this catalog never reads): stored edges and the
    // slot bytes they occupy, outside bytes_total.
    uint64_t join_edges = 0;
    uint64_t join_edge_bytes = 0;
  };
  Residency residency() const;

  /// Sticky storage-health verdict of this catalog's backing store.
  /// The RAM backend is trivially healthy; the mapped backend reports
  /// the buffer pool's first prefault I/O fault (IOError) forever once
  /// one occurs. Cheap (one relaxed atomic load when healthy) — the
  /// service polls it after serving each request to drive shard
  /// quarantine (DESIGN.md §5.11). A layered catalog (WithAppended)
  /// forwards to its base: the appended arrays live in RAM.
  Status storage_health() const {
    if (mapped_ != nullptr) return mapped_->health();
    return base_ != nullptr ? base_->storage_health() : Status::OK();
  }

 private:
  explicit ColumnStatsCatalog(const DataLake& lake, int)  // mapped-backend
      : lake_(lake) {}

  /// One postings region: a sorted value spine with its CSR lists over
  /// GLOBAL dense column ids. Region 0 is the base catalog; each delta
  /// run adds one region whose columns are disjoint from all earlier
  /// regions' (a run carries only its own appended tables), so
  /// per-column and per-table accumulation across regions reproduces a
  /// rebuilt catalog's counts exactly.
  struct SpineRegion {
    ValueSpan spine;
    storage::Span<uint32_t> post_offsets;  // spine.size() + 1
    storage::Span<uint32_t> post_cols;     // global dense col ids
  };

  /// Dense col-id layout shared by both backends.
  void BuildColumnLayout();

  /// residency() without the join-edge memo: the catalog arrays and,
  /// for the mapped backend, the buffer pool.
  Residency StorageResidency() const;

  /// Mapped-backend fault-in hook; no-op for the RAM backend. A layered
  /// catalog forwards to its base, whose pool ignores pointers outside
  /// its mapping (the appended arrays).
  void TouchBytes(const void* p, size_t bytes) const {
    if (mapped_ != nullptr) {
      mapped_->Touch(p, bytes);
    } else if (base_ != nullptr) {
      base_->TouchBytes(p, bytes);
    }
  }
  void TouchSpan(ValueSpan s) const {
    TouchBytes(s.data(), s.size() * sizeof(ValueId));
  }

  /// Spine positions (indices into `rg.spine`) of the values shared
  /// between `sorted_query` and that region's spine, ascending. Dense
  /// queries (≥ 1/kSpineMergeRatio of the spine) run the dispatched
  /// block intersection; sparse ones keep the galloping spine walk.
  /// Both emit the identical index sequence — strategy is perf-only.
  void MatchedSpineIndices(const SpineRegion& rg, ValueSpan sorted_query,
                           std::vector<uint32_t>* out) const;

  /// Query-to-spine density bound for MatchedSpineIndices: block-merge
  /// when |query| · kSpineMergeRatio ≥ |spine|. Below that the merge
  /// streams mostly-unmatched spine values that the galloping walk
  /// skips in O(log gap) (the BENCH_microops "gallop" sweep shows the
  /// same crossover shape as Kernels::gallop_skew_ratio; 8 is
  /// conservative because spine misses also pay posting-list cache
  /// pulls on the walk side).
  static constexpr size_t kSpineMergeRatio = 8;

  const DataLake& lake_;
  std::vector<uint32_t> table_offsets_;  // table -> first dense col id
  std::vector<ColumnRef> col_refs_;      // dense col id -> (table, column)

  // Backend-agnostic views the read paths operate on. For the RAM
  // backend they point into the owned vectors below; for the mapped
  // backend into the snapshot mapping; for a layered catalog into the
  // base (kept alive by base_) plus this object's owned run arrays.
  std::vector<ValueSpan> cols_;  // by dense col id, sorted distinct runs
  // Postings regions (see SpineRegion): region 0 is the base, one more
  // per delta run, in generation order.
  std::vector<SpineRegion> regions_;

  // RAM backend storage (empty for the mapped backend). For a layered
  // catalog these hold the run's arrays only.
  std::vector<std::vector<ValueId>> owned_values_;  // by dense col id
  std::vector<ValueId> owned_spine_;
  std::vector<uint32_t> owned_post_offsets_;
  std::vector<uint32_t> owned_post_cols_;

  // Mapped backend (null for the RAM backend).
  std::unique_ptr<storage::MappedCatalog> mapped_;
  // Layered backend (WithAppended): the catalog whose views regions
  // [0, base_->num_regions()) and cols [0, first_col) borrow.
  std::shared_ptr<const ColumnStatsCatalog> base_;

  mutable JoinEdgeMemo join_edges_;
};

/// Sorted distinct values of column `c` of `t`, excluding kNull and
/// labeled nulls (a lake of integration outputs would otherwise carry
/// pathological posting lists of label values). With `rows`, only those
/// rows' cells are read: the result equals SortedDistinctValues of the
/// sub-table that keeps exactly those rows. `rows` should be ascending
/// (for locality; any order gives the same result) and in range.
/// Cells whose entry ids (nulls and labeled nulls aside) span at most
/// 64 ids per cell are marked in a bitmap over that span (no hashing,
/// no sort); wider spans go through a flat hash set and sort only the
/// distinct ids.
std::vector<ValueId> SortedDistinctValues(
    const Table& t, size_t c, const std::vector<uint32_t>* rows = nullptr);

/// Sorted distinct non-null values across ALL columns of `query` — the
/// whole-table query set. This is the one construction shared by the
/// recall stage (TopKTables) and ReclaimService's fan-out prefilter;
/// the prefilter is result-preserving precisely because both
/// build the query set identically, so neither may drift alone.
std::vector<ValueId> SortedQueryValues(const Table& query);

/// |a ∩ b| for sorted, deduplicated runs — the merge-intersect helper
/// shared by discovery, diversification, and ExpandEngine. Balanced
/// inputs run the dispatched block merge (src/util/simd.h); pairs more
/// skewed than the active kernel table's gallop_skew_ratio (32 scalar,
/// 128 AVX2 — each merge implementation carries its own measured
/// crossover, see Kernels::gallop_skew_ratio) gallop the smaller side
/// over the larger with advancing binary searches. Argument order never
/// matters.
size_t SortedIntersectionSize(ValueSpan a, ValueSpan b);

/// Membership in a sorted run.
inline bool SortedContains(ValueSpan sorted, ValueId v) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  return it != sorted.end() && *it == v;
}

}  // namespace gent

#endif  // GENT_ENGINE_COLUMN_STATS_CATALOG_H_
