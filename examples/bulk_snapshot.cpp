// Bulk reclamation + lake snapshots: the operational workflow.
//
// A team that reclaims dashboards nightly does not want to re-parse the
// lake's CSVs per run or reclaim sources one at a time. This example
// shows the production path: build a lake once, persist it as a binary
// snapshot, reload it (parse-free), and reclaim a whole batch of source
// tables across a worker pool with BulkReclaim — one ColumnStatsCatalog
// build per run, results bit-identical to a serial run.
//
//   $ ./build/bulk_snapshot

#include <chrono>
#include <cstdio>

#include "src/benchgen/benchmarks.h"
#include "src/gent/bulk.h"
#include "src/lake/snapshot.h"
#include "src/metrics/similarity.h"

using namespace gent;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  // A TP-TR-style playground: 32 lake tables, 6 keyed sources.
  TpTrConfig config = TpTrSmallConfig();
  config.queries.num_sources = 6;
  auto bench = MakeTpTrBenchmark("demo", config);
  if (!bench.ok()) {
    std::fprintf(stderr, "benchmark generation failed\n");
    return 1;
  }

  // Persist and reload the lake through a snapshot.
  const std::string snap = "/tmp/gent_bulk_demo.snap";
  if (Status s = SaveSnapshot(*bench->lake, snap); !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }
  DataLake lake;
  auto t0 = std::chrono::steady_clock::now();
  if (Status s = LoadSnapshot(lake, snap); !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("snapshot reload: %zu tables in %.3fs\n", lake.size(),
              SecondsSince(t0));

  // Reclaim all sources: sequential vs parallel, each run over one
  // shared catalog.
  std::vector<Table> sources;
  for (const SourceSpec& spec : bench->sources) {
    sources.push_back(spec.source.Clone());
  }
  std::vector<std::vector<Result<ReclamationResult>>> runs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    BulkOptions options;
    options.threads = threads;
    options.max_rows = 2'000'000;
    t0 = std::chrono::steady_clock::now();
    auto results = BulkReclaim(lake, sources, {}, options);
    const double elapsed = SecondsSince(t0);
    size_t ok = 0;
    double eis_sum = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) continue;
      ++ok;
      eis_sum += EisScore(sources[i], results[i]->reclaimed).value_or(0);
    }
    std::printf("%zu thread(s): %zu/%zu reclaimed, avg EIS %.3f, %.2fs\n",
                threads, ok, results.size(),
                ok ? eis_sum / static_cast<double>(ok) : 0.0, elapsed);
    runs.push_back(std::move(results));
  }

  // The batch contract: scheduling never changes the answer.
  bool identical = true;
  for (size_t i = 0; i < sources.size() && identical; ++i) {
    const auto& a = runs[0][i];
    const auto& b = runs[1][i];
    identical = a.ok() == b.ok() &&
                (!a.ok() || TablesBitIdentical(a->reclaimed, b->reclaimed));
  }
  std::printf("parallel results bit-identical to serial: %s\n",
              identical ? "yes" : "NO");
  std::remove(snap.c_str());
  return identical ? 0 : 1;
}
