// Gen-T: end-to-end table reclamation (paper Fig. 2).
//
//   Source Table ──► Discovery (Set Similarity + diversification)
//                ──► Expand (key-covering joins)
//                ──► Matrix Traversal (originating-table selection)
//                ──► Table Integration (⊎, σ, π, κ, β)
//                ──► Reclaimed Source Table + originating tables
//
// Usage:
//   DataLake lake;                       // register tables...
//   GenT gent(lake);                     // builds the stats catalog once
//   auto result = gent.Reclaim(source);  // per-source reclamation
//   double eis = EisScore(source, result->reclaimed).value();
//
// Batches go through BulkReclaim (src/gent/bulk.h, one-shot) or a
// resident ReclaimService (src/engine/reclaim_service.h). The service
// holds catalogs, not GenT objects: per request it runs Discovery on
// each routed shard's catalog, Expand over the merged candidates and
// the free function ReclaimFromExpanded below, which GenT::Reclaim
// calls too. Their results are bit-identical to serial Reclaim calls
// in input order. One
// caveat: a per-source wall-clock budget is inherently
// scheduling-dependent — under contention a deadline can fire that would
// not fire serially. Use row budgets (max_rows) where strict
// reproducibility matters; see DESIGN.md §5.2.

#ifndef GENT_GENT_GENT_H_
#define GENT_GENT_GENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/integration/integrator.h"
#include "src/lake/data_lake.h"
#include "src/matrix/expand.h"
#include "src/matrix/traversal.h"
#include "src/util/status.h"

namespace gent {

struct GenTConfig {
  DiscoveryConfig discovery;
  ExpandOptions expand;
  TraversalOptions traversal;
  IntegrationOptions integration;
  /// Ablation: bypass matrix traversal and integrate every candidate
  /// (what ALITE-style direct integration does).
  bool skip_traversal = false;
};

/// Everything a reclamation run produces.
struct ReclamationResult {
  /// The reclaimed table, with exactly the source's schema.
  Table reclaimed;
  /// The originating tables, in selection order, in their integrated
  /// (projected/expanded) form.
  std::vector<Table> originating;
  /// Lake names of the originating tables (pre-expansion identity).
  std::vector<std::string> originating_names;
  /// EIS the matrix traversal predicted for the integration.
  double predicted_eis = 0.0;
  /// Phase timings, seconds. On a ReclaimService discovery-cache hit
  /// no phase runs: discovery_seconds is the fingerprint + lookup +
  /// clone time, and traversal_seconds and integration_seconds are 0.
  double discovery_seconds = 0.0;
  double traversal_seconds = 0.0;
  double integration_seconds = 0.0;
  /// True only when ReclaimService answered from its discovery cache (a
  /// copy of the answer stored by an earlier identical request; every
  /// other field equals what the full pipeline would return). False on
  /// every pipeline run, including GenT::Reclaim.
  bool cache_hit = false;

  explicit ReclamationResult(Table r) : reclaimed(std::move(r)) {}
};

class GenT {
 public:
  /// Builds the column-stats catalog over `lake` (shared across Reclaim
  /// calls and threads). The lake must outlive this object.
  explicit GenT(const DataLake& lake, GenTConfig config = {});

  /// Shares a prebuilt catalog (no per-instance rebuild). The catalog's
  /// lake must outlive this object.
  explicit GenT(std::shared_ptr<const ColumnStatsCatalog> catalog,
                GenTConfig config = {});

  /// Reclaims one source table (must declare a key).
  Result<ReclamationResult> Reclaim(const Table& source) const;

  /// Reclaim with per-call operator limits (e.g. a fresh wall-clock
  /// budget per source; OpLimits deadlines are fixed at construction so
  /// the config-level limits cannot express per-call timeouts). Runs
  /// DiscoverCandidates → Expand → ReclaimFromExpanded (below) with the
  /// construction-time config.
  Result<ReclamationResult> Reclaim(const Table& source,
                                    const OpLimits& limits) const;

  /// The discovery stage alone (recall + Set Similarity +
  /// diversification + schema matching), under interruption limits:
  /// discovery polls OpLimits::Interrupted() at its stage checkpoints
  /// and aborts with Cancelled/Timeout (never a truncated candidate
  /// list). Exposed so callers can time the stages apart.
  Result<std::vector<Candidate>> DiscoverCandidates(
      const Table& source, const DiscoveryConfig& discovery,
      const OpLimits& limits) const;

  const ColumnStatsCatalog& catalog() const { return *catalog_; }
  const GenTConfig& config() const { return config_; }

 private:
  GenTConfig config_;
  std::shared_ptr<const ColumnStatsCatalog> catalog_;
};

/// The pipeline downstream of expansion (Matrix Traversal →
/// Integration) over the expanded, key-covering candidate tables, shared
/// by GenT::Reclaim and ReclaimService (which expands the candidates it
/// merged across shards). Reads config.skip_traversal, config.traversal
/// and config.integration. Deterministic in (source, tables, config):
/// bit-identical to running the full pipeline whose expansion produced
/// `tables`. `discovery_seconds` is carried into the result's phase
/// timings.
Result<ReclamationResult> ReclaimFromExpanded(const Table& source,
                                              std::vector<Table> tables,
                                              const GenTConfig& config,
                                              const OpLimits& limits,
                                              double discovery_seconds = 0.0);

}  // namespace gent

#endif  // GENT_GENT_GENT_H_
