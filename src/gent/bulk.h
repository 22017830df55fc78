// Bulk reclamation: many source tables against one lake, in parallel.
//
// The paper's evaluation reclaims 26+ sources per benchmark and up to
// 515 sources in the T2D experiment (§VI-D), each independently. The
// per-source pipeline is single-threaded (as in the paper's runtime
// measurements); BulkReclaim spins up a one-shot, single-shard
// ReclaimService (src/engine/reclaim_service.h) over the lake — one
// ColumnStatsCatalog build shared by all workers, a discovery cache for
// repeated sources — and delegates to its ReclaimBatch. Long-lived
// callers should hold a ReclaimService directly and keep the catalog
// and cache resident across calls.
//
// Thread-safety contract: the per-source pipeline is const and touches
// only immutable state (lake, catalog, config) plus the shared
// ValueDictionary, which is internally synchronized (see
// src/value/dictionary.h) — integration mutates it when creating
// labeled nulls. Results are returned in input order regardless of
// completion order (bit-identical to serial GenT::Reclaim calls; see
// gent.h), and a failed source carries its Status instead of poisoning
// the batch.

#ifndef GENT_GENT_BULK_H_
#define GENT_GENT_BULK_H_

#include <vector>

#include "src/gent/gent.h"
#include "src/util/status.h"

namespace gent {

struct BulkOptions {
  /// Worker threads. 0 = hardware concurrency (uncapped). Thread count
  /// never changes results — only wall-clock time.
  size_t threads = 0;
  /// Per-source wall-clock budget, seconds (0 = unlimited).
  double timeout_seconds = 0.0;
  /// Per-source intermediate row budget.
  uint64_t max_rows = 2'000'000;
  /// Discovery-cache entries for the run's one-shot service (0 disables
  /// caching; only repeated sources in one bulk run benefit). Plumbed to
  /// ServiceOptions::cache_capacity.
  size_t cache_capacity = 256;
  /// Leave-one-out protocols (e.g. T2D Gold): exclude the lake table
  /// whose name equals the source's name from its own candidacy.
  bool exclude_source_name = false;
};

/// Reclaims every source against `lake`. Sources must declare keys.
/// Output[i] is sources[i]'s reclamation or its per-source error
/// (Timeout etc.).
std::vector<Result<ReclamationResult>> BulkReclaim(
    const DataLake& lake, const std::vector<Table>& sources,
    const GenTConfig& config = {}, const BulkOptions& options = {});

}  // namespace gent

#endif  // GENT_GENT_BULK_H_
