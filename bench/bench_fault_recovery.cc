// ReclaimService fault-recovery benchmark: quarantine and self-heal
// under load (DESIGN.md §5.11).
//
// Splits the TP-TR Small lake into two v2-mapped shards, runs fan-out
// traffic from two threads, then damages shard B's snapshot tail and
// probes it (CheckShardHealth quarantines synchronously), restores the
// file, and waits for background recovery to heal the shard. Measures
// time-to-quarantine, time-to-heal, and how many requests were served
// during the outage — every result must be bit-identical to the
// two-shard reference or the A-only reference. Writes
// BENCH_faultrecovery.json (schema in bench/README.md) and exits
// nonzero if the probe did not quarantine, the shard did not heal, or
// any request failed or mismatched.
//
// Environment knob: GENT_SOURCES (default 8).

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

}  // namespace

int main() { return RunFaultRecovery(EnvSize("GENT_SOURCES", 8)); }
