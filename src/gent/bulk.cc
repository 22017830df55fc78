#include "src/gent/bulk.h"

#include "src/engine/reclaim_service.h"

namespace gent {

std::vector<Result<ReclamationResult>> BulkReclaim(
    const DataLake& lake, const std::vector<Table>& sources,
    const GenTConfig& config, const BulkOptions& options) {
  // A one-shot, single-shard ReclaimService: one catalog build shared
  // by all workers, plus the discovery cache (repeated sources in a
  // bulk run skip discovery; results are bit-identical either way).
  ServiceOptions service_options;
  service_options.config = config;
  service_options.num_threads = options.threads;
  service_options.cache_capacity = options.cache_capacity;
  service_options.dict = lake.dict();
  ReclaimService service(service_options);

  if (Status s = service.AddLakeView("lake", lake); !s.ok()) {
    std::vector<Result<ReclamationResult>> failed;
    failed.reserve(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) failed.emplace_back(s);
    return failed;
  }

  ReclaimRequest request;
  request.timeout_seconds = options.timeout_seconds;
  request.max_rows = options.max_rows;
  request.exclude_source_name = options.exclude_source_name;
  return service.ReclaimBatch(sources, request);
}

}  // namespace gent
