// Resident reclamation service: the server-shaped workflow.
//
// Batch tools (BulkReclaim) rebuild the column-stats catalog per run. A
// service that answers reclamation requests continuously keeps the
// expensive state resident instead: several lakes registered as catalog
// shards, a bounded per-source discovery cache, and one worker pool.
// This example registers two shards, routes requests to a named lake,
// fans a request out across all shards (with and without the stats
// prefilter), shows the discovery cache absorbing repeated sources,
// submits work through the async admission queue, and removes a shard
// while the service keeps serving.
//
//   $ ./build/reclaim_service

#include <chrono>
#include <cstdio>

#include "src/benchgen/benchmarks.h"
#include "src/engine/reclaim_service.h"
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
  // Two TP-TR-style lakes sharing one dictionary (the precondition for
  // cross-shard fan-out: value ids must be comparable across shards).
  TpTrConfig config = TpTrSmallConfig();
  config.queries.num_sources = 4;
  auto tp = MakeTpTrBenchmark("tp", config);
  if (!tp.ok()) {
    std::fprintf(stderr, "benchmark generation failed\n");
    return 1;
  }

  ServiceOptions options;
  options.dict = tp->lake->dict();
  options.cache_capacity = 64;
  ReclaimService service(options);
  // Shard "tp" borrows the benchmark lake; shard "web" owns a second
  // lake built on the same dictionary (a snapshot or CSV directory via
  // AddLakeFromSnapshot/AddLakeFromDirectory works the same way).
  if (Status s = service.AddLakeView("tp", *tp->lake); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  DataLake web(service.dict());
  auto web_bench = MakeWebBenchmark("web", WebBenchConfig{.t2d_tables = 40});
  if (web_bench.ok()) {
    for (const Table& t : web_bench->lake->tables()) {
      (void)web.AddTable(TranslateToDictionary(t, service.dict()));
    }
  }
  if (Status s = service.AddLakeView("web", web); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("resident service: %zu shards, %zu pool threads\n",
              service.num_lakes(), service.num_threads());

  // Route each source to the shard that holds its originating tables;
  // then fan one source out across the shards (the merged candidate set
  // is scored as one pool).
  ReclaimRequest to_tp;
  to_tp.lake = "tp";
  to_tp.max_rows = 2'000'000;
  ReclaimRequest fan_out;  // empty lake = all shards
  fan_out.max_rows = 2'000'000;

  double cold_s = 0.0, warm_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    auto t0 = std::chrono::steady_clock::now();
    size_t ok = 0;
    double eis_sum = 0.0;
    for (const SourceSpec& spec : tp->sources) {
      auto result = service.Reclaim(spec.source, to_tp);
      if (!result.ok()) continue;
      ++ok;
      eis_sum += EisScore(spec.source, result->reclaimed).value_or(0);
    }
    (pass == 0 ? cold_s : warm_s) = SecondsSince(t0);
    std::printf("%s pass: %zu/%zu reclaimed, avg EIS %.3f, %.3fs\n",
                pass == 0 ? "cold" : "warm", ok, tp->sources.size(),
                ok ? eis_sum / static_cast<double>(ok) : 0.0,
                pass == 0 ? cold_s : warm_s);
  }
  auto stats = service.cache_stats();
  std::printf("discovery cache: %llu hits, %llu misses, %zu entries"
              " (warm pass %.1fx faster)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.entries,
              warm_s > 0 ? cold_s / warm_s : 0.0);

  // The fan-out skips shards that share no value with the source (here,
  // "web" for a TP-TR source) before discovery runs; they could not
  // contribute a candidate, so the answer is that of every shard.
  auto fanned = service.Reclaim(tp->sources[0].source, fan_out);
  auto routing = service.routing_stats();
  std::printf("fan-out across all shards: %s (%llu shards pruned so far)\n",
              fanned.ok() ? "ok" : fanned.status().ToString().c_str(),
              static_cast<unsigned long long>(routing.shards_pruned));

  // Async admission: submit every source, collect tickets, wait. The
  // admission queue is bounded (ServiceOptions::admission_capacity);
  // each ticket's result is bit-identical to a synchronous Reclaim.
  std::vector<ReclaimTicket> tickets;
  for (const SourceSpec& spec : tp->sources) {
    auto ticket = service.SubmitReclaim(spec.source.Clone(), to_tp);
    if (ticket.ok()) tickets.push_back(std::move(*ticket));
  }
  size_t async_ok = 0;
  for (auto& ticket : tickets) {
    if (ticket.Wait().ok()) ++async_ok;
  }
  std::printf("async admission: %zu/%zu tickets resolved ok\n", async_ok,
              tickets.size());

  // Runtime shard lifecycle: retire "web" while the service keeps
  // serving. In-flight requests pinned to the old registry epoch drain
  // on it; new requests no longer see the shard.
  const uint64_t epoch_before = service.registry_epoch();
  if (Status s = service.RemoveLake("web"); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto after = service.Reclaim(tp->sources[0].source, to_tp);
  std::printf("removed shard 'web' (epoch %llu -> %llu), %zu shard(s) left, "
              "serving: %s\n",
              static_cast<unsigned long long>(epoch_before),
              static_cast<unsigned long long>(service.registry_epoch()),
              service.num_lakes(),
              after.ok() ? "ok" : after.status().ToString().c_str());

  return stats.hits > 0 && fanned.ok() && after.ok() &&
                 async_ok == tickets.size()
             ? 0
             : 1;
}
