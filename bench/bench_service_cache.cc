// ReclaimService discovery-cache benchmark (fig. 8 companion).
//
// Runs the same source set through one resident ReclaimService twice —
// a cold pass (every source misses the discovery cache) and a warm pass
// (every source hits) — verifies the two passes return the same answer
// on every field (reclaimed table, originating tables and names,
// predicted EIS: the service determinism contract), and reports
// per-source latency and the warm/cold speedup. A final pass submits
// the same sources through the async admission queue (SubmitReclaim)
// and verifies the tickets resolve to the same answers too. Results are written to
// BENCH_service_cache.json (machine-readable; uploaded as a CI artifact
// to record the cache's perf trajectory over time; schema in
// bench/README.md).
//
// Environment knobs: GENT_SOURCES (default 8), GENT_REPEATS (default 3,
// min-of-reps per pass), GENT_NOISE (default 0 distractor tables).

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench/bench_common.h"
#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/lake/snapshot.h"

using namespace gent;
using namespace gent::bench;

namespace {

// The whole cached answer: the reclaimed table, every originating table
// (cells, name, key columns), the originating names and the predicted
// EIS.
bool SameAnswer(const ReclamationResult& a, const ReclamationResult& b) {
  const auto same_table = [](const Table& x, const Table& y) {
    return x.name() == y.name() && x.key_columns() == y.key_columns() &&
           TablesBitIdentical(x, y);
  };
  if (!same_table(a.reclaimed, b.reclaimed) ||
      a.originating.size() != b.originating.size()) {
    return false;
  }
  for (size_t i = 0; i < a.originating.size(); ++i) {
    if (!same_table(a.originating[i], b.originating[i])) return false;
  }
  return a.originating_names == b.originating_names &&
         a.predicted_eis == b.predicted_eis;
}

struct PassTiming {
  double total_s = 0.0;
  std::vector<double> per_source_s;
};

// One pass over the sources; bypass toggles the discovery cache.
PassTiming RunPass(const ReclaimService& service,
                   const std::vector<Table>& sources, bool bypass,
                   std::vector<Result<ReclamationResult>>* out) {
  ReclaimRequest request;
  request.lake = "lake";
  request.max_rows = 2'000'000;  // row budget: deterministic, no deadline
  request.bypass_cache = bypass;
  PassTiming timing;
  out->clear();
  auto pass_start = std::chrono::steady_clock::now();
  for (const Table& source : sources) {
    auto t0 = std::chrono::steady_clock::now();
    out->push_back(service.Reclaim(source, request));
    timing.per_source_s.push_back(Seconds(t0));
  }
  timing.total_s = Seconds(pass_start);
  return timing;
}

double MinTotal(const std::vector<PassTiming>& reps) {
  double best = reps.empty() ? 0.0 : reps[0].total_s;
  for (const PassTiming& r : reps) best = std::min(best, r.total_s);
  return best;
}

// --- Warm start: rebuild vs mapped open + fault-in (BENCH_warmstart.json) ---
//
// Measures what a shard restart costs on the TP-TR Med lake, from one
// v2 snapshot served two ways:
//   * rebuild — LoadSnapshot + AddLake: body load + full catalog REBUILD
//     (what a v1 file or a foreign id space costs),
//   * open — AddLakeFromSnapshot: body load + mapped catalog OPEN,
// plus the component-level pair underneath the acceptance claim
// (catalog rebuild vs MappedCatalog open: O(rebuild) vs O(open)), the
// first post-open query (pays pool fault-in), and a repeat of the same
// query fully warm. The mapped results must be bit-identical to the
// rebuilt shard's.
int RunWarmStart(size_t repeats) {
  auto bench = BuildMed();
  if (!bench.ok()) {
    std::fprintf(stderr, "warmstart: benchmark generation failed: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  const DataLake& lake = *bench->lake;
  const std::string v2_path = "warmstart_v2.snap";

  // The one catalog build the rebuild path repeats on every restart;
  // reuse it to emit the v2 snapshot.
  auto tb = std::chrono::steady_clock::now();
  GenT gent(lake);
  double rebuild_s = Seconds(tb);
  if (Status s = SaveSnapshotV2(lake, gent.catalog().section_views(), v2_path);
      !s.ok()) {
    std::fprintf(stderr, "warmstart: %s\n", s.ToString().c_str());
    return 1;
  }

  // Component pair, min over repeats: rebuild from a loaded lake vs
  // mapped open of the v2 file (the service's exact open call).
  DataLake loaded;
  if (Status s = LoadSnapshot(loaded, v2_path); !s.ok()) {
    std::fprintf(stderr, "warmstart: %s\n", s.ToString().c_str());
    return 1;
  }
  double open_s = 0.0;
  bool mapped_ok = true;
  for (size_t r = 0; r < repeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    auto mapped = ColumnStatsCatalog::OpenMapped(
        loaded, v2_path,
        {/*verify_checksums=*/false, /*pool_capacity_blocks=*/0});
    const double elapsed = Seconds(t0);
    if (!mapped.ok()) {
      mapped_ok = false;
      break;
    }
    if (r == 0 || elapsed < open_s) open_s = elapsed;
    t0 = std::chrono::steady_clock::now();
    ColumnStatsCatalog again(loaded);
    rebuild_s = std::min(rebuild_s, Seconds(t0));
  }

  // End-to-end restart along each path, min over repeats, a fresh
  // service (fresh dictionary → identity remap) each time.
  auto time_add = [&](bool rebuild, std::unique_ptr<ReclaimService>* keep) {
    double best = 0.0;
    for (size_t r = 0; r < repeats; ++r) {
      ServiceOptions options;
      options.cache_capacity = 0;  // measure the catalog path, not the cache
      auto service = std::make_unique<ReclaimService>(std::move(options));
      auto t0 = std::chrono::steady_clock::now();
      Status s;
      if (rebuild) {
        DataLake body(service->dict());
        s = LoadSnapshot(body, v2_path);
        if (s.ok()) s = service->AddLake("lake", std::move(body));
      } else {
        s = service->AddLakeFromSnapshot("lake", v2_path);
      }
      if (!s.ok()) {
        std::fprintf(stderr, "warmstart: %s\n", s.ToString().c_str());
        return -1.0;
      }
      const double elapsed = Seconds(t0);
      if (r == 0 || elapsed < best) best = elapsed;
      *keep = std::move(service);
    }
    return best;
  };
  std::unique_ptr<ReclaimService> rebuild_service, v2_service;
  const double rebuild_add_s = time_add(/*rebuild=*/true, &rebuild_service);
  const double v2_add_s = time_add(/*rebuild=*/false, &v2_service);
  std::remove(v2_path.c_str());
  if (rebuild_add_s < 0 || v2_add_s < 0) return 1;
  const auto residency = v2_service->residency_stats();
  const bool mapped = mapped_ok && !residency.empty() &&
                      residency[0].catalog.mapped;

  // First query after the v2 open pays pool fault-in; the repeat is the
  // fully warm floor. Bit-identity against the rebuilt backend is the
  // backend-parity contract, measured end to end.
  ReclaimRequest request;
  request.lake = "lake";
  request.max_rows = 2'000'000;
  const Table& probe = bench->sources[0].source;
  auto t0 = std::chrono::steady_clock::now();
  auto first = v2_service->Reclaim(probe.Clone(), request);
  const double first_query_s = Seconds(t0);
  t0 = std::chrono::steady_clock::now();
  auto warm = v2_service->Reclaim(probe.Clone(), request);
  const double warm_query_s = Seconds(t0);
  auto rebuilt = rebuild_service->Reclaim(probe.Clone(), request);
  const bool identical =
      first.ok() && warm.ok() && rebuilt.ok() &&
      TablesBitIdentical(first->reclaimed, rebuilt->reclaimed) &&
      TablesBitIdentical(warm->reclaimed, rebuilt->reclaimed) &&
      first->originating_names == rebuilt->originating_names;
  const auto after = v2_service->residency_stats();
  const auto& cat = after.empty() ? ColumnStatsCatalog::Residency{}
                                  : after[0].catalog;

  const double open_speedup = open_s > 0 ? rebuild_s / open_s : 0.0;
  std::printf("\n=== Warm start (%s, min of %zu reps) ===\n",
              bench->name.c_str(), repeats);
  std::printf("LoadSnapshot + AddLake (rebuild): %8.3fs\n", rebuild_add_s);
  std::printf("AddLakeFromSnapshot (mapped):     %8.3fs\n", v2_add_s);
  std::printf("catalog rebuild vs mapped open:   %8.3fs vs %.6fs "
              "(%.1fx)\n",
              rebuild_s, open_s, open_speedup);
  std::printf("first query (fault-in):           %8.3fs\n", first_query_s);
  std::printf("repeat query (fully warm):        %8.3fs\n", warm_query_s);
  std::printf("mapped backend active: %s; mapped results bit-identical to "
              "rebuilt: %s\n",
              mapped ? "yes" : "NO", identical ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_warmstart.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_warmstart.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"warmstart\",\n");
  WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"benchmark\": \"%s\",\n  \"repeats\": %zu,\n",
               bench->name.c_str(), repeats);
  std::fprintf(f, "  \"lake_tables\": %zu,\n", lake.size());
  std::fprintf(f,
               "  \"rebuild_add_lake_seconds\": %.6f,\n"
               "  \"v2_add_lake_seconds\": %.6f,\n",
               rebuild_add_s, v2_add_s);
  std::fprintf(f,
               "  \"rebuild_catalog_seconds\": %.6f,\n"
               "  \"v2_catalog_open_seconds\": %.6f,\n"
               "  \"open_speedup\": %.3f,\n",
               rebuild_s, open_s, open_speedup);
  std::fprintf(f,
               "  \"first_query_seconds\": %.6f,\n"
               "  \"warm_query_seconds\": %.6f,\n",
               first_query_s, warm_query_s);
  std::fprintf(f,
               "  \"catalog_bytes_total\": %llu,\n"
               "  \"catalog_bytes_resident\": %llu,\n"
               "  \"pool_faults\": %llu,\n  \"pool_hits\": %llu,\n",
               static_cast<unsigned long long>(cat.bytes_total),
               static_cast<unsigned long long>(cat.bytes_resident),
               static_cast<unsigned long long>(cat.pool_faults),
               static_cast<unsigned long long>(cat.pool_hits));
  std::fprintf(f, "  \"mapped\": %s,\n  \"bit_identical\": %s\n}\n",
               mapped ? "true" : "false", identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_warmstart.json\n");
  return identical ? 0 : 1;
}

// --- Fault recovery: quarantine + self-heal under load ----------------------
//
// Splits the TP-TR Small lake into two v2-mapped shards, runs fan-out
// traffic from two threads, then damages shard B's snapshot tail and
// probes it (CheckShardHealth quarantines synchronously), restores the
// file, and waits for background recovery to heal the shard. Measures
// time-to-quarantine, time-to-heal, and how many requests were served
// during the outage — every result must be bit-identical to the
// two-shard reference or the A-only reference (the DESIGN.md §5.11
// serving contract). Writes BENCH_faultrecovery.json.
int RunFaultRecovery(size_t max_sources) {
  auto bench = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  if (!bench.ok()) {
    std::fprintf(stderr, "faultrecovery: benchmark generation failed: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  const DictionaryPtr dict = bench->lake->dict();
  DataLake a_lake(dict);
  DataLake b_lake(dict);
  for (size_t i = 0; i < bench->lake->size(); ++i) {
    DataLake& target = (i % 2 == 0) ? a_lake : b_lake;
    if (Status s = target.AddTable(bench->lake->table(i).Clone()); !s.ok()) {
      std::fprintf(stderr, "faultrecovery: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const std::string a_path = "faultrec_a.snap";
  const std::string b_path = "faultrec_b.snap";
  const auto cleanup = [&] {
    std::remove(a_path.c_str());
    std::remove(b_path.c_str());
  };
  for (const auto& [lake, path] :
       {std::pair<const DataLake*, const std::string*>{&a_lake, &a_path},
        {&b_lake, &b_path}}) {
    GenT g(*lake);
    if (Status s = SaveSnapshotV2(*lake, g.catalog().section_views(), *path);
        !s.ok()) {
      std::fprintf(stderr, "faultrecovery: %s\n", s.ToString().c_str());
      cleanup();
      return 1;
    }
  }

  ShardHealthOptions health;
  health.backoff_initial_seconds = 0.02;
  health.backoff_max_seconds = 0.1;
  const auto make_service = [&](bool with_b) {
    ServiceOptions options;
    options.dict = dict;
    options.num_threads = 1;
    options.cache_capacity = 0;
    options.health = health;
    auto service = std::make_unique<ReclaimService>(std::move(options));
    Status s = service->AddLakeFromSnapshot("shard_a", a_path);
    if (s.ok() && with_b) s = service->AddLakeFromSnapshot("shard_b", b_path);
    if (!s.ok()) {
      std::fprintf(stderr, "faultrecovery: %s\n", s.ToString().c_str());
      service.reset();
    }
    return service;
  };
  auto service = make_service(/*with_b=*/true);
  if (service == nullptr) {
    cleanup();
    return 1;
  }
  if (!service->residency_stats()[0].catalog.mapped) {
    std::printf("\n=== Fault recovery === skipped (mmap unavailable)\n");
    cleanup();
    return 0;
  }

  std::vector<Table> sources;
  for (size_t i = 0; i < bench->sources.size() && i < max_sources; ++i) {
    sources.push_back(bench->sources[i].source.Clone());
  }

  // References: full two-shard answers and A-only answers (what the
  // service must serve while B is quarantined).
  ReclaimRequest fan;  // empty lake = fan out
  fan.max_rows = 2'000'000;
  std::vector<ReclamationResult> ref_full, ref_a_only;
  {
    auto reference = make_service(true);
    auto a_only = make_service(false);
    if (reference == nullptr || a_only == nullptr) {
      cleanup();
      return 1;
    }
    for (const Table& source : sources) {
      auto rf = reference->Reclaim(source, fan);
      auto ra = a_only->Reclaim(source, fan);
      if (!rf.ok() || !ra.ok()) {
        std::fprintf(stderr, "faultrecovery: reference pass failed\n");
        cleanup();
        return 1;
      }
      ref_full.push_back(std::move(*rf));
      ref_a_only.push_back(std::move(*ra));
    }
  }
  const auto same = [](const ReclamationResult& x, const ReclamationResult& y) {
    return TablesBitIdentical(x.reclaimed, y.reclaimed) &&
           x.originating_names == y.originating_names;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total{0}, outage_served{0}, errors{0}, mismatches{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t idx = i++ % sources.size();
        auto r = service->Reclaim(sources[idx], fan);
        if (!r.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        total.fetch_add(1, std::memory_order_relaxed);
        if (same(*r, ref_full[idx])) continue;
        if (same(*r, ref_a_only[idx])) {
          outage_served.fetch_add(1, std::memory_order_relaxed);
        } else {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // warm traffic

  // Damage shard B's catalog tail on disk, probe, restore.
  const auto flip_tail = [&] {
    const auto size = std::filesystem::file_size(b_path);
    std::fstream f(b_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 12));
    char bytes[8];
    f.read(bytes, sizeof bytes);
    for (char& c : bytes) c = static_cast<char>(c ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size - 12));
    f.write(bytes, sizeof bytes);
  };
  const auto health_of = [&](const std::string& name) {
    for (const auto& h : service->health_stats()) {
      if (h.name == name) return h;
    }
    return ReclaimService::ShardHealthStats{};
  };
  flip_tail();
  auto fault_at = std::chrono::steady_clock::now();
  const bool probe_failed = !service->CheckShardHealth("shard_b").ok();
  const double time_to_quarantine_s = Seconds(fault_at);
  flip_tail();  // restore: the next recovery attempt can fully reopen

  bool healed = false;
  auto heal_deadline = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < heal_deadline) {
    const auto h = health_of("shard_b");
    if (h.state != ShardHealth::kQuarantined && h.recoveries >= 1) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double time_to_heal_s = Seconds(fault_at);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // post-heal
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : load) t.join();
  const auto final_health = health_of("shard_b");
  cleanup();

  const bool ok = probe_failed && healed && errors.load() == 0 &&
                  mismatches.load() == 0 && total.load() > 0;
  std::printf("\n=== Fault recovery (%s, %zu sources, 2 shards) ===\n",
              bench->name.c_str(), sources.size());
  std::printf("time to quarantine (probe):  %8.3fms\n",
              1e3 * time_to_quarantine_s);
  std::printf("time to heal (fault->serve): %8.3fms\n", 1e3 * time_to_heal_s);
  std::printf("requests served total:       %8llu\n",
              static_cast<unsigned long long>(total.load()));
  std::printf("served during outage (A-only, bit-identical): %llu\n",
              static_cast<unsigned long long>(outage_served.load()));
  std::printf("errors: %llu, mismatches: %llu, recoveries: %llu, "
              "degraded: %s\n",
              static_cast<unsigned long long>(errors.load()),
              static_cast<unsigned long long>(mismatches.load()),
              static_cast<unsigned long long>(final_health.recoveries),
              final_health.state == ShardHealth::kDegraded ? "yes" : "no");
  std::printf("contract held (all results bit-identical to a reference): "
              "%s\n",
              ok ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_faultrecovery.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_faultrecovery.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"faultrecovery\",\n");
  WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"benchmark\": \"%s\",\n  \"sources\": %zu,\n",
               bench->name.c_str(), sources.size());
  std::fprintf(f,
               "  \"time_to_quarantine_seconds\": %.6f,\n"
               "  \"time_to_heal_seconds\": %.6f,\n",
               time_to_quarantine_s, time_to_heal_s);
  std::fprintf(f,
               "  \"requests_total\": %llu,\n"
               "  \"requests_during_outage\": %llu,\n"
               "  \"errors\": %llu,\n  \"mismatches\": %llu,\n",
               static_cast<unsigned long long>(total.load()),
               static_cast<unsigned long long>(outage_served.load()),
               static_cast<unsigned long long>(errors.load()),
               static_cast<unsigned long long>(mismatches.load()));
  std::fprintf(f,
               "  \"recoveries\": %llu,\n  \"rebuilt_from_body\": %s,\n",
               static_cast<unsigned long long>(final_health.recoveries),
               final_health.rebuilt_from_body ? "true" : "false");
  std::fprintf(f,
               "  \"backoff_initial_seconds\": %.3f,\n"
               "  \"backoff_max_seconds\": %.3f,\n",
               health.backoff_initial_seconds, health.backoff_max_seconds);
  std::fprintf(f, "  \"healed\": %s,\n  \"bit_identical\": %s\n}\n",
               healed ? "true" : "false",
               mismatches.load() == 0 ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_faultrecovery.json\n");
  return ok ? 0 : 1;
}

// --- Incremental ingest: append-delta vs full reload ------------------------
//
// Registers half the TP-TR Small lake as a v2-mapped shard, then grows
// it to full size through AppendTablesToLake in batches while reader
// threads keep reclaiming through the shard. Measures per-batch append
// latency (run build + durable delta append + catalog layering +
// publish) against the full-reload alternative (catalog rebuild + v2
// save + fresh open) and the online compaction fold. After every batch
// the grown shard is checked bit-identical to a one-shot service over
// the same tables — the "zero query mismatches during concurrent
// appends" acceptance line. Writes BENCH_ingest.json.
int RunIngest(size_t max_sources) {
  auto bench = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  if (!bench.ok()) {
    std::fprintf(stderr, "ingest: benchmark generation failed: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  const DictionaryPtr dict = bench->lake->dict();
  const size_t total_tables = bench->lake->size();
  const size_t base_tables = std::max<size_t>(1, total_tables / 2);
  constexpr size_t kBatches = 4;

  DataLake base(dict);
  for (size_t i = 0; i < base_tables; ++i) {
    if (Status s = base.AddTable(bench->lake->table(i).Clone()); !s.ok()) {
      std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::vector<std::vector<Table>> batches(kBatches);
  for (size_t i = base_tables; i < total_tables; ++i) {
    batches[(i - base_tables) % kBatches].push_back(
        bench->lake->table(i).Clone());
  }

  const std::string path = "ingest.snap";
  const auto cleanup = [&] { std::remove(path.c_str()); };
  {
    GenT gent(base);
    if (Status s = SaveSnapshotV2(base, gent.catalog().section_views(), path);
        !s.ok()) {
      std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  ServiceOptions options;
  options.dict = dict;
  options.cache_capacity = 64;
  options.storage.compact_after_runs = 0;  // timed explicitly below
  ReclaimService service(std::move(options));
  auto t0 = std::chrono::steady_clock::now();
  if (Status s = service.AddLakeFromSnapshot("lake", path); !s.ok()) {
    std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
    cleanup();
    return 1;
  }
  const double open_s = Seconds(t0);
  const bool opened_mapped = service.residency_stats()[0].catalog.mapped;

  std::vector<Table> sources;
  for (size_t i = 0; i < bench->sources.size() && i < max_sources; ++i) {
    sources.push_back(bench->sources[i].source.Clone());
  }

  // Readers hammer the shard for the whole ingest window; every result
  // must be OK (some pre-, some post-append — both are valid
  // generations, each internally consistent via the pinned registry).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ReclaimRequest request;
      request.lake = "lake";
      request.max_rows = 2'000'000;
      size_t i = r;
      while (!stop.load(std::memory_order_acquire)) {
        auto res = service.Reclaim(sources[i % sources.size()], request);
        (res.ok() ? served : failed).fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Grow the shard batch by batch; after each publish, check the grown
  // shard against a one-shot reference over the identical table set.
  DataLake accumulated(base);
  std::vector<double> append_s;
  size_t appended_tables = 0;
  uint64_t mismatches = 0;
  ReclaimRequest probe_request;
  probe_request.lake = "lake";
  probe_request.max_rows = 2'000'000;
  probe_request.bypass_cache = true;
  for (size_t b = 0; b < kBatches; ++b) {
    if (batches[b].empty()) continue;
    appended_tables += batches[b].size();
    for (const Table& t : batches[b]) {
      if (Status s = accumulated.AddTable(t.Clone()); !s.ok()) {
        std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
        stop.store(true, std::memory_order_release);
        for (auto& th : readers) th.join();
        cleanup();
        return 1;
      }
    }
    t0 = std::chrono::steady_clock::now();
    Status s = service.AppendTablesToLake("lake", std::move(batches[b]));
    append_s.push_back(Seconds(t0));
    if (!s.ok()) {
      std::fprintf(stderr, "ingest: append %zu: %s\n", b,
                   s.ToString().c_str());
      stop.store(true, std::memory_order_release);
      for (auto& th : readers) th.join();
      cleanup();
      return 1;
    }

    ServiceOptions ref_options;
    ref_options.dict = dict;
    ref_options.cache_capacity = 0;
    ReclaimService reference(std::move(ref_options));
    if (Status rs = reference.AddLakeView("lake", accumulated); !rs.ok()) {
      std::fprintf(stderr, "ingest: %s\n", rs.ToString().c_str());
      stop.store(true, std::memory_order_release);
      for (auto& th : readers) th.join();
      cleanup();
      return 1;
    }
    for (const Table& source : sources) {
      auto grown = service.Reclaim(source.Clone(), probe_request);
      auto expect = reference.Reclaim(source.Clone(), probe_request);
      const bool same =
          grown.ok() == expect.ok() &&
          (!grown.ok() ||
           (TablesBitIdentical(grown->reclaimed, expect->reclaimed) &&
            grown->originating_names == expect->originating_names));
      if (!same) ++mismatches;
    }
  }

  // Online fold: same content, one region, chain released.
  t0 = std::chrono::steady_clock::now();
  const Status compact = service.CompactShardSnapshot("lake");
  const double compact_s = Seconds(t0);
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  if (!compact.ok()) {
    std::fprintf(stderr, "ingest: compact: %s\n", compact.ToString().c_str());
    cleanup();
    return 1;
  }
  // The fold writes the served lake and maps the new file over it, in
  // the service's ids: the folded shard stays mapped (when the open
  // was), and its file reloads into this service's dictionary with the
  // identity remap.
  const bool folded_mapped = service.residency_stats()[0].catalog.mapped;
  bool folded_identity = false;
  {
    DataLake probe(dict);
    SnapshotLoadInfo info;
    folded_identity =
        LoadSnapshot(probe, path, &info).ok() && info.identity_remap;
  }
  if (folded_mapped != opened_mapped || !folded_identity) {
    std::fprintf(stderr,
                 "ingest: folded shard mapped=%d (opened mapped=%d), file "
                 "reloads with identity remap=%d\n",
                 folded_mapped, opened_mapped, folded_identity);
    cleanup();
    return 1;
  }

  // The alternative this replaces: rebuild the catalog over the full
  // lake, save a fresh v2 snapshot, open it in a fresh service.
  double full_reload_s = 0.0;
  {
    const std::string reload_path = "ingest_reload.snap";
    t0 = std::chrono::steady_clock::now();
    GenT full(accumulated);
    if (Status s = SaveSnapshotV2(accumulated,
                                  full.catalog().section_views(),
                                  reload_path);
        !s.ok()) {
      std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
      cleanup();
      return 1;
    }
    ServiceOptions reload_options;
    reload_options.dict = dict;
    ReclaimService fresh(std::move(reload_options));
    if (Status s = fresh.AddLakeFromSnapshot("lake", reload_path); !s.ok()) {
      std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
      cleanup();
      return 1;
    }
    full_reload_s = Seconds(t0);
    std::remove(reload_path.c_str());
  }
  cleanup();

  double append_total_s = 0.0;
  double append_max_s = 0.0;
  for (double s : append_s) {
    append_total_s += s;
    append_max_s = std::max(append_max_s, s);
  }
  const double append_mean_s =
      append_s.empty() ? 0.0 : append_total_s / append_s.size();
  const double speedup =
      append_mean_s > 0 ? full_reload_s / append_mean_s : 0.0;

  std::printf("\n=== Incremental ingest (%s) ===\n", bench->name.c_str());
  std::printf("base tables: %zu, appended: %zu in %zu batches\n",
              base_tables, appended_tables, append_s.size());
  std::printf("v2 open: %.3fs; append mean %.4fs max %.4fs; "
              "full reload %.3fs (%.1fx vs append)\n",
              open_s, append_mean_s, append_max_s, full_reload_s, speedup);
  std::printf("compaction fold: %.3fs (mapped: %s)\n", compact_s,
              folded_mapped ? "yes" : "no");
  std::printf("concurrent queries: %llu ok, %llu failed; "
              "post-append mismatches: %llu\n",
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(mismatches));

  std::FILE* f = std::fopen("BENCH_ingest.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ingest.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ingest\",\n");
  WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"benchmark\": \"%s\",\n", bench->name.c_str());
  std::fprintf(f,
               "  \"base_tables\": %zu,\n  \"appended_tables\": %zu,\n"
               "  \"batches\": %zu,\n  \"sources\": %zu,\n",
               base_tables, appended_tables, append_s.size(),
               sources.size());
  std::fprintf(f, "  \"v2_open_seconds\": %.6f,\n", open_s);
  std::fprintf(f, "  \"append_seconds\": [");
  for (size_t i = 0; i < append_s.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", append_s[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f,
               "  \"append_mean_seconds\": %.6f,\n"
               "  \"append_max_seconds\": %.6f,\n"
               "  \"full_reload_seconds\": %.6f,\n"
               "  \"reload_over_append_speedup\": %.3f,\n"
               "  \"compact_seconds\": %.6f,\n"
               "  \"compact_mapped\": %s,\n",
               append_mean_s, append_max_s, full_reload_s, speedup,
               compact_s, folded_mapped ? "true" : "false");
  std::fprintf(f,
               "  \"concurrent_queries_ok\": %llu,\n"
               "  \"concurrent_queries_failed\": %llu,\n"
               "  \"query_mismatches\": %llu,\n"
               "  \"bit_identical\": %s\n}\n",
               static_cast<unsigned long long>(served.load()),
               static_cast<unsigned long long>(failed.load()),
               static_cast<unsigned long long>(mismatches),
               (mismatches == 0 && failed.load() == 0) ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_ingest.json\n");
  return (mismatches == 0 && failed.load() == 0) ? 0 : 1;
}

}  // namespace

int main() {
  const size_t max_sources = EnvSize("GENT_SOURCES", 8);
  const size_t repeats = std::max<size_t>(1, EnvSize("GENT_REPEATS", 3));
  const size_t noise = EnvSize("GENT_NOISE", 0);

  auto bench = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  if (!bench.ok()) {
    std::fprintf(stderr, "benchmark generation failed: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  if (noise > 0) {
    auto embedded = EmbedInNoiseLake(*bench, noise, 99);
    if (embedded.ok()) bench = std::move(embedded);
  }

  std::vector<Table> sources;
  for (size_t i = 0; i < bench->sources.size() && i < max_sources; ++i) {
    sources.push_back(bench->sources[i].source.Clone());
  }

  ServiceOptions options;
  options.dict = bench->lake->dict();
  options.cache_capacity = 2 * sources.size() + 16;
  ReclaimService service(options);
  if (Status s = service.AddLakeView("lake", *bench->lake); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Cold reps bypass the cache (every rep pays full discovery); one
  // priming pass fills the cache; warm reps then hit on every source.
  std::vector<Result<ReclamationResult>> reference, warmed;
  std::vector<PassTiming> cold_reps, warm_reps;
  for (size_t r = 0; r < repeats; ++r) {
    cold_reps.push_back(RunPass(service, sources, /*bypass=*/true,
                                &reference));
  }
  (void)RunPass(service, sources, /*bypass=*/false, &warmed);  // prime
  for (size_t r = 0; r < repeats; ++r) {
    warm_reps.push_back(RunPass(service, sources, /*bypass=*/false,
                                &warmed));
  }

  // Async admission pass: the same sources through SubmitReclaim (warm
  // cache — this measures queue + scheduling overhead on top of the
  // warm path, min over repeats).
  double async_s = 0.0;
  bool async_identical = true;
  {
    ReclaimRequest request;
    request.lake = "lake";
    request.max_rows = 2'000'000;
    for (size_t r = 0; r < repeats; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      std::vector<ReclaimTicket> tickets;
      tickets.reserve(sources.size());
      for (const Table& source : sources) {
        auto ticket = service.SubmitReclaim(source.Clone(), request);
        if (!ticket.ok()) {
          async_identical = false;
          break;
        }
        tickets.push_back(std::move(*ticket));
      }
      for (size_t i = 0; i < tickets.size(); ++i) {
        const auto& got = tickets[i].Wait();
        if (!got.ok() || !reference[i].ok() ||
            !SameAnswer(*got, *reference[i])) {
          async_identical = false;
        }
      }
      double elapsed = Seconds(t0);
      if (r == 0 || elapsed < async_s) async_s = elapsed;
    }
  }

  // The determinism contract: warm results bit-identical to cold.
  bool identical = reference.size() == warmed.size();
  for (size_t i = 0; identical && i < reference.size(); ++i) {
    if (reference[i].ok() != warmed[i].ok()) {
      identical = false;
    } else if (reference[i].ok()) {
      identical = SameAnswer(*reference[i], *warmed[i]);
    }
  }

  const double cold_s = MinTotal(cold_reps);
  const double warm_s = MinTotal(warm_reps);
  const double speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
  const auto stats = service.cache_stats();
  const size_t n = sources.size();
  std::printf("=== ReclaimService discovery cache (%s, %zu sources, "
              "min of %zu reps) ===\n",
              bench->name.c_str(), n, repeats);
  std::printf("cold pass (cache bypassed): %8.3fs  (%7.2f ms/source)\n",
              cold_s, n ? 1e3 * cold_s / static_cast<double>(n) : 0.0);
  std::printf("warm pass (cache hits):     %8.3fs  (%7.2f ms/source)\n",
              warm_s, n ? 1e3 * warm_s / static_cast<double>(n) : 0.0);
  std::printf("warm/cold speedup:          %8.2fx\n", speedup);
  std::printf("async pass (admission q.):  %8.3fs  (%7.2f ms/source, "
              "identical %s)\n",
              async_s, n ? 1e3 * async_s / static_cast<double>(n) : 0.0,
              async_identical ? "yes" : "NO");
  std::printf("cache: %llu hits, %llu misses, %zu entries\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.entries);
  std::printf("warm results bit-identical to cold: %s\n",
              identical ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_service_cache.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_service_cache.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"service_cache\",\n");
  WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"benchmark\": \"%s\",\n", bench->name.c_str());
  std::fprintf(f, "  \"sources\": %zu,\n  \"repeats\": %zu,\n", n, repeats);
  std::fprintf(f, "  \"cold_seconds\": %.6f,\n  \"warm_seconds\": %.6f,\n",
               cold_s, warm_s);
  std::fprintf(f,
               "  \"cold_ms_per_source\": %.3f,\n"
               "  \"warm_ms_per_source\": %.3f,\n",
               n ? 1e3 * cold_s / static_cast<double>(n) : 0.0,
               n ? 1e3 * warm_s / static_cast<double>(n) : 0.0);
  std::fprintf(f, "  \"warm_cold_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"async_seconds\": %.6f,\n", async_s);
  std::fprintf(f, "  \"async_ms_per_source\": %.3f,\n",
               n ? 1e3 * async_s / static_cast<double>(n) : 0.0);
  std::fprintf(f, "  \"async_bit_identical\": %s,\n",
               async_identical ? "true" : "false");
  std::fprintf(f, "  \"cache_hits\": %llu,\n  \"cache_misses\": %llu,\n",
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses));
  std::fprintf(f, "  \"bit_identical\": %s,\n", identical ? "true" : "false");
  std::fprintf(f, "  \"per_source_cold_s\": [");
  const PassTiming& cold_last = cold_reps.back();
  for (size_t i = 0; i < cold_last.per_source_s.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", cold_last.per_source_s[i]);
  }
  std::fprintf(f, "],\n  \"per_source_warm_s\": [");
  const PassTiming& warm_last = warm_reps.back();
  for (size_t i = 0; i < warm_last.per_source_s.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", warm_last.per_source_s[i]);
  }
  std::fprintf(f, "]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_service_cache.json\n");

  const int warmstart_rc = RunWarmStart(repeats);
  const int faultrecovery_rc = RunFaultRecovery(max_sources);
  const int ingest_rc = RunIngest(max_sources);
  return identical && async_identical && warmstart_rc == 0 &&
                 faultrecovery_rc == 0 && ingest_rc == 0
             ? 0
             : 1;
}
