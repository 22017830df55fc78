#include "src/gent/gent.h"

#include <chrono>

namespace gent {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

GenT::GenT(const DataLake& lake, GenTConfig config)
    : config_(std::move(config)),
      catalog_(std::make_shared<ColumnStatsCatalog>(lake)) {}

GenT::GenT(std::shared_ptr<const ColumnStatsCatalog> catalog,
           GenTConfig config)
    : config_(std::move(config)),
      catalog_(std::move(catalog)) {}

Result<ReclamationResult> GenT::Reclaim(const Table& source) const {
  return Reclaim(source, config_.integration.limits);
}

Result<ReclamationResult> GenT::Reclaim(const Table& source,
                                        const OpLimits& limits) const {
  auto t0 = std::chrono::steady_clock::now();
  GENT_ASSIGN_OR_RETURN(auto candidates,
                        DiscoverCandidates(source, config_.discovery, limits));
  GENT_ASSIGN_OR_RETURN(auto expanded,
                        Expand(source, candidates, limits, config_.expand));
  return ReclaimFromExpanded(source, std::move(expanded.tables), config_,
                             limits, SecondsSince(t0));
}

Result<std::vector<Candidate>> GenT::DiscoverCandidates(
    const Table& source, const DiscoveryConfig& discovery_config,
    const OpLimits& limits) const {
  // --- Table Discovery (paper §V-A) ---------------------------------------
  Discovery discovery(*catalog_, discovery_config);
  return discovery.FindCandidates(source, limits);
}

Result<ReclamationResult> ReclaimFromExpanded(const Table& source,
                                              std::vector<Table> tables,
                                              const GenTConfig& config,
                                              const OpLimits& limits,
                                              double discovery_seconds) {
  // --- Matrix Traversal (Algorithm 1) -------------------------------------
  auto t1 = std::chrono::steady_clock::now();
  std::vector<Table> originating;
  double predicted = 0.0;
  if (config.skip_traversal) {
    originating = std::move(tables);
  } else {
    GENT_ASSIGN_OR_RETURN(
        auto traversal,
        MatrixTraversal(source, tables, config.traversal, limits));
    predicted = traversal.final_score;
    originating.reserve(traversal.selected.size());
    for (size_t i : traversal.selected) {
      originating.push_back(tables[i].Clone());
    }
  }
  double traversal_s = SecondsSince(t1);

  // --- Table Integration (Algorithm 2) -------------------------------------
  auto t2 = std::chrono::steady_clock::now();
  IntegrationOptions integration = config.integration;
  integration.limits = limits;
  GENT_ASSIGN_OR_RETURN(Table reclaimed,
                        IntegrateTables(source, originating, integration));
  double integration_s = SecondsSince(t2);

  ReclamationResult result(std::move(reclaimed));
  result.predicted_eis = predicted;
  for (const auto& t : originating) {
    result.originating_names.push_back(t.name());
  }
  result.originating = std::move(originating);
  result.discovery_seconds = discovery_seconds;
  result.traversal_seconds = traversal_s;
  result.integration_seconds = integration_s;
  return result;
}

}  // namespace gent
