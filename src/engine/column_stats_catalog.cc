#include "src/engine/column_stats_catalog.h"

#include <algorithm>

#include "src/lake/snapshot.h"
#include "src/util/hash.h"
#include "src/util/simd.h"

namespace gent {

std::vector<ValueId> SortedDistinctValues(const Table& t, size_t c,
                                          const std::vector<uint32_t>* rows) {
  const std::vector<ValueId>& col = t.column(c);
  // Every cell, or only the cells of `rows`: both branches below scan
  // the same sequence, so a subset is one more loop shape, not a second
  // dedup.
  auto for_each_cell = [&](auto&& fn) {
    if (rows == nullptr) {
      for (ValueId v : col) fn(v);
    } else {
      for (uint32_t r : *rows) fn(col[r]);
    }
  };
  const size_t cells = rows == nullptr ? col.size() : rows->size();
  // The id range of the non-null cells, in one pass: kNull is 0, so it
  // never raises `hi`, and `v - 1` wraps it above every real id. A
  // labeled null (its id above every entry's) can only raise `hi`; when
  // one did, a second pass takes `hi` over the entries alone. Every
  // cell outside [lo, hi] is then a null or a label.
  ValueId lo_minus_1 = ~ValueId{0}, hi = kNull;
  for_each_cell([&](ValueId v) {
    lo_minus_1 = std::min<ValueId>(lo_minus_1, v - 1);
    hi = std::max(hi, v);
  });
  if (hi >= kFirstLabeledNull) {
    hi = kNull;
    for_each_cell([&](ValueId v) {
      if (v < kFirstLabeledNull) hi = std::max(hi, v);
    });
  }
  if (hi == kNull) return {};  // no cells, or only nulls and labels
  const ValueId lo = lo_minus_1 + 1;
  const size_t range = static_cast<size_t>(hi - lo) + 1;
  std::vector<ValueId> vals;
  if (range <= 64 * cells) {
    // Dense range (at most one bitmap word per cell — usual, because a
    // table's values are interned together and so get nearby ids): mark
    // ids in a bitmap over [lo, hi] and scan it — O(cells + range/64),
    // and the scan emits ascending order directly, with no hashing and
    // no sort. The dispatched popcount kernel sizes the output exactly,
    // so the emit loop never reallocates.
    std::vector<uint64_t> bits((range + 63) / 64, 0);
    for_each_cell([&](ValueId v) {
      const ValueId d = v - lo;  // kNull wraps above the range
      if (d >= range) return;
      bits[d >> 6] |= uint64_t{1} << (d & 63);
    });
    vals.reserve(
        static_cast<size_t>(simd::PopcountWords(bits.data(), bits.size())));
    for (size_t w = 0; w < bits.size(); ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        unsigned b = static_cast<unsigned>(CountTrailingZeros64(word));
        word &= word - 1;
        vals.push_back(lo + static_cast<ValueId>((w << 6) | b));
      }
    }
  } else {
    // Sparse range (ids scattered over the dictionary, e.g. a column
    // mixing values interned by many tables): deduplicate through a flat
    // ~1/2-load set first, then sort only the distinct ids. kNull marks
    // an empty slot; nulls and labels never enter the set.
    size_t cap = 16;
    while (cap < 2 * cells) cap <<= 1;
    const uint64_t mask = cap - 1;
    std::vector<ValueId> slots(cap, kNull);
    for_each_cell([&](ValueId v) {
      if (v - 1 >= hi) return;  // kNull wraps above `hi`
      uint64_t slot = SplitMix64(v) & mask;
      while (slots[slot] != kNull && slots[slot] != v) {
        slot = (slot + 1) & mask;
      }
      if (slots[slot] == kNull) {
        slots[slot] = v;
        vals.push_back(v);
      }
    });
    std::sort(vals.begin(), vals.end());
  }
  return vals;
}

size_t SortedIntersectionSize(ValueSpan a, ValueSpan b) {
  if (a.size() > b.size()) return SortedIntersectionSize(b, a);
  // Skewed pairs (a tiny query set against a huge lake column) gallop:
  // each small-side value advances a lower_bound over the remaining big
  // side, O(|a| log |b|) instead of O(|a| + |b|). Balanced pairs run
  // the dispatched block merge (AVX2 shuffle intersection when the CPU
  // has it, the classic linear merge on the scalar level); both sides
  // compute the same exact count, so the crossover is perf-only — and
  // it belongs to the merge implementation, so the active kernel table
  // carries it (the AVX2 merge stays ahead of galloping to ~4x higher
  // skew than the scalar merge; see Kernels::gallop_skew_ratio).
  if (a.size() * simd::ActiveKernels().gallop_skew_ratio < b.size()) {
    size_t n = 0;
    auto it = b.begin();
    for (ValueId v : a) {
      it = std::lower_bound(it, b.end(), v);
      if (it == b.end()) break;
      if (*it == v) {
        ++n;
        ++it;
      }
    }
    return n;
  }
  return simd::SortedIntersectSize(a.data(), a.size(), b.data(), b.size());
}

void ColumnStatsCatalog::BuildColumnLayout() {
  // Dense column id space: tables laid out consecutively.
  table_offsets_.reserve(lake_.size());
  for (size_t t = 0; t < lake_.size(); ++t) {
    table_offsets_.push_back(static_cast<uint32_t>(col_refs_.size()));
    for (size_t c = 0; c < lake_.table(t).num_cols(); ++c) {
      col_refs_.push_back(
          ColumnRef{static_cast<uint32_t>(t), static_cast<uint32_t>(c)});
    }
  }
}

namespace {

// The one catalog-array construction, shared by the full build
// (first_table = 0) and BuildDeltaRun: per-column sorted distinct sets
// for tables [first_table, lake.size()) with dense ids starting at
// `first_col`, plus the CSR postings over exactly those columns.
// Sharing it is what makes "fold the runs and rebuild" bit-identical to
// "append and merge at read time" — there is no second algorithm to
// drift.
void BuildRegionArrays(const DataLake& lake, size_t first_table,
                       uint32_t first_col,
                       std::vector<std::vector<ValueId>>* values,
                       std::vector<ValueId>* spine,
                       std::vector<uint32_t>* post_offsets,
                       std::vector<uint32_t>* post_cols) {
  // Per-column sorted distinct sets (nulls excluded).
  size_t total_postings = 0;
  for (size_t t = first_table; t < lake.size(); ++t) {
    for (size_t c = 0; c < lake.table(t).num_cols(); ++c) {
      values->push_back(SortedDistinctValues(lake.table(t), c));
      total_postings += values->back().size();
    }
  }

  // CSR postings, sorted by (value, dense column id). Appending column
  // ids in ascending order and stable-sorting by value keeps each
  // posting list ascending by column id.
  std::vector<std::pair<ValueId, uint32_t>> pairs;
  pairs.reserve(total_postings);
  for (size_t i = 0; i < values->size(); ++i) {
    for (ValueId v : (*values)[i]) {
      pairs.emplace_back(v, first_col + static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  post_cols->reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].first != pairs[i - 1].first) {
      spine->push_back(pairs[i].first);
      post_offsets->push_back(static_cast<uint32_t>(i));
    }
    post_cols->push_back(pairs[i].second);
  }
  post_offsets->push_back(static_cast<uint32_t>(pairs.size()));
}

}  // namespace

ColumnStatsCatalog::ColumnStatsCatalog(const DataLake& lake) : lake_(lake) {
  BuildColumnLayout();
  BuildRegionArrays(lake, 0, 0, &owned_values_, &owned_spine_,
                    &owned_post_offsets_, &owned_post_cols_);

  // Wire the backend-agnostic views at the owned arrays. The vectors
  // never change size after this point, so the views never dangle.
  cols_.reserve(owned_values_.size());
  for (const std::vector<ValueId>& v : owned_values_) cols_.emplace_back(v);
  SpineRegion rg;
  rg.spine = ValueSpan(owned_spine_);
  rg.post_offsets = storage::Span<uint32_t>(owned_post_offsets_);
  rg.post_cols = storage::Span<uint32_t>(owned_post_cols_);
  regions_.push_back(rg);
}

storage::DeltaRunCatalogViews ColumnStatsCatalog::DeltaRunArrays::views()
    const {
  storage::DeltaRunCatalogViews v;
  v.first_col = first_col;
  v.columns.reserve(values.size());
  for (const std::vector<ValueId>& col : values) {
    v.columns.push_back(storage::Span<uint32_t>(col.data(), col.size()));
  }
  v.spine = storage::Span<uint32_t>(spine.data(), spine.size());
  v.post_offsets = storage::Span<uint32_t>(post_offsets);
  v.post_cols = storage::Span<uint32_t>(post_cols);
  return v;
}

ColumnStatsCatalog::DeltaRunArrays ColumnStatsCatalog::BuildDeltaRun(
    const DataLake& lake, size_t first_table) {
  DeltaRunArrays run;
  for (size_t t = 0; t < first_table && t < lake.size(); ++t) {
    run.first_col += lake.table(t).num_cols();
  }
  BuildRegionArrays(lake, first_table, static_cast<uint32_t>(run.first_col),
                    &run.values, &run.spine, &run.post_offsets,
                    &run.post_cols);
  return run;
}

Result<std::shared_ptr<const ColumnStatsCatalog>>
ColumnStatsCatalog::WithAppended(
    std::shared_ptr<const ColumnStatsCatalog> base, const DataLake& lake,
    size_t first_table) {
  if (base == nullptr || first_table > lake.size()) {
    return Status::InvalidArgument("WithAppended: bad base or split point");
  }
  auto cat = std::shared_ptr<ColumnStatsCatalog>(
      new ColumnStatsCatalog(lake, /*mapped tag*/ 0));
  cat->BuildColumnLayout();
  const uint32_t first_col =
      first_table < lake.size() ? cat->table_offsets_[first_table]
                                : static_cast<uint32_t>(cat->col_refs_.size());
  if (base->num_columns() != first_col) {
    return Status::InvalidArgument(
        "WithAppended: base catalog has " +
        std::to_string(base->num_columns()) + " columns but tables [0, " +
        std::to_string(first_table) + ") have " + std::to_string(first_col));
  }

  // Borrow the base's views (base_ keeps them alive) and build the run
  // region over the appended tables in RAM.
  cat->cols_ = base->cols_;
  cat->regions_ = base->regions_;
  BuildRegionArrays(lake, first_table, first_col, &cat->owned_values_,
                    &cat->owned_spine_, &cat->owned_post_offsets_,
                    &cat->owned_post_cols_);
  for (const std::vector<ValueId>& v : cat->owned_values_) {
    cat->cols_.emplace_back(v);
  }
  SpineRegion rg;
  rg.spine = ValueSpan(cat->owned_spine_);
  rg.post_offsets = storage::Span<uint32_t>(cat->owned_post_offsets_);
  rg.post_cols = storage::Span<uint32_t>(cat->owned_post_cols_);
  cat->regions_.push_back(rg);
  cat->base_ = std::move(base);
  return std::shared_ptr<const ColumnStatsCatalog>(std::move(cat));
}

Status CompactSnapshotV2(const std::string& path, size_t* runs_folded) {
  DataLake lake;
  SnapshotLoadInfo info;
  GENT_RETURN_IF_ERROR(LoadSnapshot(lake, path, &info));
  if (runs_folded != nullptr) *runs_folded = info.delta_runs;
  if (info.delta_runs == 0) return Status::OK();
  // Rebuilding over the merged lake and rewriting (temp + rename, the
  // SaveSnapshotV2 commit) is bit-identical to a one-shot save by
  // construction: load order IS append order, and the builder is the
  // same code path either way.
  const ColumnStatsCatalog catalog(lake);
  return SaveSnapshotV2(lake, catalog.section_views(), path);
}

Result<std::shared_ptr<const ColumnStatsCatalog>>
ColumnStatsCatalog::OpenMapped(const DataLake& lake, const std::string& path,
                               const storage::MappedCatalog::Options& options) {
  auto mapped = storage::MappedCatalog::Open(path, options);
  if (!mapped.ok()) return mapped.status();

  // Mapped backend: the snapshot's arrays stand in for the built ones.
  // The only consistency the file cannot prove about itself is that it
  // describes THIS lake; the column count is the load-bearing check —
  // every dense column id in the CSR payload was written < num_columns,
  // so matching counts bound every index the read paths ever use.
  auto cat = std::shared_ptr<ColumnStatsCatalog>(
      new ColumnStatsCatalog(lake, /*mapped tag*/ 0));
  cat->BuildColumnLayout();
  const storage::CatalogSectionViews& v = (*mapped)->views();
  const std::vector<storage::MappedCatalog::RunViews>& runs =
      (*mapped)->delta_runs();
  size_t total_cols = v.columns.size();
  for (const storage::MappedCatalog::RunViews& rv : runs) {
    total_cols += rv.catalog.columns.size();
  }
  if (total_cols != cat->col_refs_.size()) {
    return Status::InvalidArgument(
        "snapshot catalog has " + std::to_string(total_cols) +
        " columns but the lake has " + std::to_string(cat->col_refs_.size()));
  }
  cat->cols_.reserve(total_cols);
  for (const storage::Span<uint32_t>& col : v.columns) {
    cat->cols_.push_back(ValueSpan(col.data(), col.size()));
  }
  SpineRegion base_rg;
  base_rg.spine = ValueSpan(v.spine.data(), v.spine.size());
  base_rg.post_offsets = v.post_offsets;
  base_rg.post_cols = v.post_cols;
  cat->regions_.push_back(base_rg);
  // Delta runs: one region each, columns chaining onto the base (the
  // pager validated first_col continuity; total count is checked above,
  // which together bound every dense id the CSR payloads carry).
  for (const storage::MappedCatalog::RunViews& rv : runs) {
    for (const storage::Span<uint32_t>& col : rv.catalog.columns) {
      cat->cols_.push_back(ValueSpan(col.data(), col.size()));
    }
    SpineRegion rg;
    rg.spine = ValueSpan(rv.catalog.spine.data(), rv.catalog.spine.size());
    rg.post_offsets = rv.catalog.post_offsets;
    rg.post_cols = rv.catalog.post_cols;
    cat->regions_.push_back(rg);
  }
  cat->mapped_ = std::move(*mapped);
  return std::shared_ptr<const ColumnStatsCatalog>(std::move(cat));
}

storage::CatalogSectionViews ColumnStatsCatalog::section_views() const {
  storage::CatalogSectionViews v;
  v.columns.reserve(cols_.size());
  for (const ValueSpan& c : cols_) {
    v.columns.push_back(storage::Span<uint32_t>(c.data(), c.size()));
  }
  const SpineRegion& rg = regions_.front();
  v.spine = storage::Span<uint32_t>(rg.spine.data(), rg.spine.size());
  v.post_offsets = rg.post_offsets;
  v.post_cols = rg.post_cols;
  return v;
}

ColumnStatsCatalog::Residency ColumnStatsCatalog::residency() const {
  Residency r = StorageResidency();
  const JoinEdgeMemo::Stats memo = join_edges_.stats();
  r.join_edges = memo.entries;
  r.join_edge_bytes = memo.bytes;
  return r;
}

ColumnStatsCatalog::Residency ColumnStatsCatalog::StorageResidency() const {
  Residency r;
  uint64_t array_bytes = 0;
  for (const ValueSpan& c : cols_) array_bytes += c.size() * sizeof(ValueId);
  for (const SpineRegion& rg : regions_) {
    array_bytes += rg.spine.size() * sizeof(ValueId);
    array_bytes += rg.post_offsets.size() * sizeof(uint32_t);
    array_bytes += rg.post_cols.size() * sizeof(uint32_t);
  }
  if (base_ != nullptr) {
    // Layered catalog: the base's accounting plus this object's RAM
    // run arrays, which are trivially resident.
    r = base_->StorageResidency();
    uint64_t run_bytes = 0;
    for (const std::vector<ValueId>& c : owned_values_) {
      run_bytes += c.size() * sizeof(ValueId);
    }
    run_bytes += owned_spine_.size() * sizeof(ValueId);
    run_bytes += owned_post_offsets_.size() * sizeof(uint32_t);
    run_bytes += owned_post_cols_.size() * sizeof(uint32_t);
    r.bytes_total += run_bytes;
    r.bytes_resident += run_bytes;
    return r;
  }
  if (mapped_ == nullptr) {
    r.bytes_total = array_bytes;
    r.bytes_resident = array_bytes;
    return r;
  }
  r.mapped = true;
  // Mapped backend: report at pool granularity (whole blocks under
  // management vs blocks read in so far), so resident ≤ total.
  r.bytes_total = mapped_->region_bytes();
  const storage::BufferPool::Stats s = mapped_->pool().stats();
  r.bytes_resident = mapped_->pool().resident_bytes();
  r.pool_hits = s.hits;
  r.pool_faults = s.faults;
  r.pool_read_faults = s.read_faults;
  return r;
}

void ColumnStatsCatalog::MatchedSpineIndices(const SpineRegion& rg,
                                             ValueSpan sorted_query,
                                             std::vector<uint32_t>* out) const {
  const ValueSpan spine = rg.spine;
  out->clear();
  if (sorted_query.empty() || spine.empty()) return;
  if (sorted_query.size() * kSpineMergeRatio >= spine.size()) {
    // Dense query: one dispatched block intersection over the whole
    // spine (the per-pair merge the kAvx2 level vectorizes).
    out->resize(std::min(sorted_query.size(), spine.size()));
    size_t n = simd::SortedIntersectIndices(
        sorted_query.data(), sorted_query.size(), spine.data(), spine.size(),
        out->data());
    out->resize(n);
    return;
  }
  // Sparse query: walk the spine, galloping over gaps with lower_bound
  // (query sets are tiny relative to the lake's value universe).
  size_t i = 0, j = 0;
  while (i < sorted_query.size() && j < spine.size()) {
    if (sorted_query[i] < spine[j]) {
      ++i;
    } else if (spine[j] < sorted_query[i]) {
      j = static_cast<size_t>(
          std::lower_bound(spine.begin() + static_cast<ptrdiff_t>(j),
                           spine.end(), sorted_query[i]) -
          spine.begin());
    } else {
      out->push_back(static_cast<uint32_t>(j));
      ++i;
      ++j;
    }
  }
}

std::vector<ColumnStatsCatalog::Overlap> ColumnStatsCatalog::OverlapCounts(
    ValueSpan sorted_query) const {
  // Each column's postings live in exactly one region (a delta run
  // carries only its own appended tables), so accumulating per-column
  // counts region by region reproduces a rebuilt catalog's counts
  // exactly; the final sort by dense id erases accumulation order.
  std::vector<uint32_t> matched;
  std::vector<uint32_t> counts(num_columns(), 0);
  std::vector<uint32_t> touched;
  for (const SpineRegion& rg : regions_) {
    MatchedSpineIndices(rg, sorted_query, &matched);
    for (uint32_t j : matched) {
      const uint32_t begin = rg.post_offsets[j], end = rg.post_offsets[j + 1];
      if (end > begin) {
        TouchBytes(rg.post_cols.data() + begin,
                   (end - begin) * sizeof(uint32_t));
      }
      for (uint32_t p = begin; p < end; ++p) {
        uint32_t col = rg.post_cols[p];
        if (counts[col]++ == 0) touched.push_back(col);
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  std::vector<Overlap> out;
  out.reserve(touched.size());
  for (uint32_t col : touched) {
    out.push_back(Overlap{col_refs_[col], counts[col]});
  }
  return out;
}

bool ColumnStatsCatalog::SharesAnyValue(ValueSpan sorted_query) const {
  // Same spine walk as OverlapCounts, but stopping at the first shared
  // value — the routing prefilter only needs existence, and overlapping
  // shards (the common case) usually match within a few steps. The
  // spines (base and runs) are prefaulted at open in the mapped
  // backend, so this route never faults.
  for (const SpineRegion& rg : regions_) {
    const ValueSpan spine = rg.spine;
    size_t i = 0, j = 0;
    while (i < sorted_query.size() && j < spine.size()) {
      if (sorted_query[i] < spine[j]) {
        ++i;
      } else if (spine[j] < sorted_query[i]) {
        j = static_cast<size_t>(
            std::lower_bound(spine.begin() + static_cast<ptrdiff_t>(j),
                             spine.end(), sorted_query[i]) -
            spine.begin());
      } else {
        return true;
      }
    }
  }
  return false;
}

std::vector<ValueId> SortedQueryValues(const Table& query) {
  std::vector<ValueId> values;
  for (size_t c = 0; c < query.num_cols(); ++c) {
    for (ValueId v : query.column(c)) {
      if (v != kNull) values.push_back(v);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::vector<size_t> ColumnStatsCatalog::TopKTables(const Table& query,
                                                   size_t k) const {
  const std::vector<ValueId> qvalues = SortedQueryValues(query);

  // Count distinct shared values per table (a value hitting multiple
  // columns of one table counts once; posting lists are ascending by
  // dense column id, hence grouped by table). A table's columns live in
  // exactly one region, so summing the per-region counts equals the
  // rebuilt catalog's count per table; the rank sort's total order
  // (count desc, index asc) erases region iteration order.
  std::vector<uint32_t> matched;
  std::vector<size_t> per_table(lake_.size(), 0);
  std::vector<uint32_t> seen_tables;
  for (const SpineRegion& rg : regions_) {
    MatchedSpineIndices(rg, qvalues, &matched);
    for (uint32_t j : matched) {
      const uint32_t begin = rg.post_offsets[j], end = rg.post_offsets[j + 1];
      if (end > begin) {
        TouchBytes(rg.post_cols.data() + begin,
                   (end - begin) * sizeof(uint32_t));
      }
      uint32_t last_table = UINT32_MAX;
      for (uint32_t p = begin; p < end; ++p) {
        uint32_t table = col_refs_[rg.post_cols[p]].table;
        if (table != last_table) {
          if (per_table[table]++ == 0) seen_tables.push_back(table);
          last_table = table;
        }
      }
    }
  }

  std::vector<std::pair<size_t, size_t>> ranked;
  ranked.reserve(seen_tables.size());
  for (uint32_t t : seen_tables) ranked.emplace_back(t, per_table[t]);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  std::vector<size_t> out;
  out.reserve(std::min(k, ranked.size()));
  for (size_t r = 0; r < ranked.size() && r < k; ++r) {
    out.push_back(ranked[r].first);
  }
  return out;
}

}  // namespace gent
