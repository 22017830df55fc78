// Delta-parity harness for incremental shard ingest (DESIGN.md §5.12).
//
// The contract under test: a catalog grown by append — run-merge layer
// in RAM (ColumnStatsCatalog::WithAppended), delta runs on disk
// (AppendSnapshotDelta), or the service path (AppendTablesToLake) — is
// BIT-IDENTICAL to one built over all the tables at once, before and
// after compaction, for RAM and mapped backends, at every thread count.
// Randomized: lakes, split points, and batch counts are drawn from
// seeded RNGs, so every run sweeps fresh shapes deterministically.
//
// ServeWhileAppendingIsRaceFree doubles as the TSan target wired into
// CI's thread-sanitizer job: readers reclaim through the registry while
// appends and a compaction republish the shard under them.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/column_stats_catalog.h"
#include "src/engine/discovery_cache.h"
#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/lake/snapshot.h"
#include "src/table/table_builder.h"
#include "tests/snapshot_fixtures.h"

namespace gent {
namespace {

class IncrementalIngestTest : public ::testing::Test {
 protected:
  IncrementalIngestTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_ingest_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~IncrementalIngestTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // A service on `dict` that folds only when told to, with no cache
  // and no background recovery.
  static ServiceOptions ExplicitFoldOptions(const DictionaryPtr& dict) {
    ServiceOptions opts;
    opts.dict = dict;
    opts.cache_capacity = 0;
    opts.storage.compact_after_runs = 0;
    opts.health.auto_recover = false;
    return opts;
  }

  static std::string BytesOf(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  // One random table. Values come from a small shared pool so tables
  // overlap (exercising the postings merge) with occasional fresh
  // strings (exercising dictionary growth across runs).
  Table MakeRandomTable(const DictionaryPtr& dict, const std::string& name,
                        std::mt19937& rng) {
    std::uniform_int_distribution<int> ncols(1, 4);
    std::uniform_int_distribution<int> nrows(0, 16);
    std::uniform_int_distribution<int> pool(0, 23);
    std::uniform_int_distribution<int> fresh(0, 9);
    const int cols = ncols(rng);
    TableBuilder b(dict, name);
    std::vector<std::string> col_names;
    for (int c = 0; c < cols; ++c) {
      col_names.push_back("c" + std::to_string(c));
    }
    b.Columns(col_names);
    const int rows = nrows(rng);
    for (int r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < cols; ++c) {
        if (fresh(rng) == 0) {
          row.push_back(name + "_only_" + std::to_string(r) + "_" +
                        std::to_string(c));
        } else {
          row.push_back("pool" + std::to_string(pool(rng)));
        }
      }
      b.Row(row);
    }
    return b.Build();
  }

  std::vector<Table> MakeRandomTables(const DictionaryPtr& dict, size_t n,
                                      const std::string& prefix,
                                      std::mt19937& rng) {
    std::vector<Table> out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(MakeRandomTable(dict, prefix + std::to_string(i), rng));
    }
    return out;
  }

  // A sorted, deduplicated, null-free query set over pool values —
  // what OverlapCounts/SharesAnyValue expect.
  std::vector<ValueId> MakeQuerySet(const DictionaryPtr& dict,
                                    std::mt19937& rng) {
    std::uniform_int_distribution<int> nvals(1, 8);
    std::uniform_int_distribution<int> pool(0, 29);  // some miss the lake
    std::vector<ValueId> q;
    const int n = nvals(rng);
    for (int i = 0; i < n; ++i) {
      q.push_back(dict->Intern("pool" + std::to_string(pool(rng))));
    }
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    return q;
  }

  // Full query-surface parity: every SortedValuesOf span, OverlapCounts
  // and SharesAnyValue over random query sets, TopKTables over a probe
  // table. EXPECT (not ASSERT) so one mismatch shows every divergence.
  void ExpectCatalogParity(const ColumnStatsCatalog& layered,
                           const ColumnStatsCatalog& rebuilt,
                           const DataLake& lake, const DictionaryPtr& dict,
                           std::mt19937& rng, const std::string& context) {
    ASSERT_EQ(layered.num_columns(), rebuilt.num_columns()) << context;
    for (size_t t = 0; t < lake.size(); ++t) {
      for (size_t c = 0; c < lake.table(t).num_cols(); ++c) {
        const ValueSpan a = layered.SortedValuesOf(t, c);
        const ValueSpan b = rebuilt.SortedValuesOf(t, c);
        ASSERT_EQ(a.size(), b.size()) << context << " t" << t << " c" << c;
        for (size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << context << " t" << t << " c" << c;
        }
      }
    }
    for (int probe = 0; probe < 8; ++probe) {
      const std::vector<ValueId> q = MakeQuerySet(dict, rng);
      const ValueSpan qs(q.data(), q.size());
      EXPECT_EQ(layered.SharesAnyValue(qs), rebuilt.SharesAnyValue(qs))
          << context << " probe " << probe;
      const auto oa = layered.OverlapCounts(qs);
      const auto ob = rebuilt.OverlapCounts(qs);
      ASSERT_EQ(oa.size(), ob.size()) << context << " probe " << probe;
      for (size_t i = 0; i < oa.size(); ++i) {
        EXPECT_TRUE(oa[i].ref == ob[i].ref) << context << " probe " << probe;
        EXPECT_EQ(oa[i].count, ob[i].count) << context << " probe " << probe;
      }
    }
    TableBuilder probe(dict, "probe");
    probe.Columns({"p"});
    for (int i = 0; i < 10; ++i) {
      probe.Row({"pool" + std::to_string(i * 3 % 24)});
    }
    const Table pt = probe.Build();
    for (size_t k : {size_t{1}, size_t{3}, size_t{100}}) {
      EXPECT_EQ(layered.TopKTables(pt, k), rebuilt.TopKTables(pt, k))
          << context << " k=" << k;
    }
  }

  // Sources with known fragments in the lake, so service-level Reclaim
  // has real work: source s splits vertically into two fragments.
  void AddFragments(std::vector<Table>* tables, const DictionaryPtr& dict,
                    const std::string& tag) {
    TableBuilder sb(dict, "source_" + tag);
    sb.Columns({"k", "a", "b"});
    TableBuilder fa(dict, tag + "_frag_a");
    fa.Columns({"k", "a"});
    TableBuilder fb(dict, tag + "_frag_b");
    fb.Columns({"k", "b"});
    for (int r = 0; r < 10; ++r) {
      const std::string k = tag + "_k" + std::to_string(r);
      const std::string a = tag + "_a" + std::to_string(r % 5);
      const std::string b = tag + "_b" + std::to_string(r);
      sb.Row({k, a, b});
      fa.Row({k, a});
      fb.Row({k, b});
    }
    sources_.push_back(sb.Key({"k"}).Build());
    tables->push_back(fa.Build());
    tables->push_back(fb.Build());
  }

  static void ExpectResultsIdentical(const Result<ReclamationResult>& a,
                                     const Result<ReclamationResult>& b,
                                     const std::string& context) {
    ASSERT_EQ(a.ok(), b.ok()) << context << ": " << a.status().ToString()
                              << " vs " << b.status().ToString();
    if (!a.ok()) return;
    EXPECT_TRUE(TablesBitIdentical(a->reclaimed, b->reclaimed)) << context;
    EXPECT_EQ(a->originating_names, b->originating_names) << context;
    EXPECT_DOUBLE_EQ(a->predicted_eis, b->predicted_eis) << context;
  }

  std::vector<Table> sources_;
  std::filesystem::path dir_;
};

TEST_F(IncrementalIngestTest, ShardRouteTagProperties) {
  // Generation 0 is the bare uid: pre-ingest tags stay valid.
  EXPECT_EQ(ShardRouteTag(42, 0), 42u);
  EXPECT_EQ(ShardRouteTag(7, 0), 7u);
  // Appends move the tag; every generation is distinct.
  std::vector<uint64_t> tags;
  for (uint64_t g = 0; g < 16; ++g) tags.push_back(ShardRouteTag(42, g));
  for (size_t i = 0; i < tags.size(); ++i) {
    for (size_t j = i + 1; j < tags.size(); ++j) {
      EXPECT_NE(tags[i], tags[j]) << i << " vs " << j;
    }
  }
  // Deterministic, and uid still matters at every generation.
  EXPECT_EQ(ShardRouteTag(42, 3), ShardRouteTag(42, 3));
  EXPECT_NE(ShardRouteTag(42, 3), ShardRouteTag(43, 3));
}

// Randomized core property: base + K appended batches, served through
// the run-merge layer, is query-for-query bit-identical to one catalog
// built over the final lake.
TEST_F(IncrementalIngestTest, LayeredCatalogMatchesRebuilt) {
  for (uint32_t seed : {1u, 7u, 1234u, 99991u}) {
    std::mt19937 rng(seed);
    DictionaryPtr dict = MakeDictionary();
    std::uniform_int_distribution<size_t> ntables(2, 10);
    std::uniform_int_distribution<size_t> nbatches(1, 4);

    const size_t base_n = ntables(rng);
    const size_t batches = nbatches(rng);

    DataLake lake(dict);
    for (Table& t : MakeRandomTables(dict, base_n, "base", rng)) {
      ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
    }
    std::shared_ptr<const ColumnStatsCatalog> layered =
        std::make_shared<ColumnStatsCatalog>(lake);

    for (size_t b = 0; b < batches; ++b) {
      const size_t first = lake.size();
      const size_t add = ntables(rng) / 2 + 1;
      for (Table& t : MakeRandomTables(
               dict, add, "batch" + std::to_string(b) + "_", rng)) {
        ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
      }
      auto grown = ColumnStatsCatalog::WithAppended(layered, lake, first);
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
      layered = *grown;
    }
    EXPECT_EQ(layered->num_regions(), batches + 1);

    ColumnStatsCatalog rebuilt(lake);
    ExpectCatalogParity(*layered, rebuilt, lake, dict, rng,
                        "seed " + std::to_string(seed));
  }
}

// File-level parity: a v2 snapshot grown by AppendSnapshotDelta loads
// (and verifies) exactly like the lake it accreted, and the mapped open
// sees the runs.
TEST_F(IncrementalIngestTest, AppendedSnapshotLoadsLikeOneShot) {
  std::mt19937 rng(2024);
  DictionaryPtr dict = MakeDictionary();
  DataLake lake(dict);
  for (Table& t : MakeRandomTables(dict, 5, "base", rng)) {
    ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
  }
  GenT base(lake);
  const std::string snap = Path("grow.snap");
  ASSERT_TRUE(
      SaveSnapshotV2(lake, base.catalog().section_views(), snap).ok());

  const size_t kRuns = 3;
  for (size_t b = 0; b < kRuns; ++b) {
    const size_t first = lake.size();
    for (Table& t : MakeRandomTables(dict, 2, "run" + std::to_string(b) + "_",
                                     rng)) {
      ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
    }
    const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, first);
    size_t runs_total = 0;
    ASSERT_TRUE(
        AppendSnapshotDelta(lake, first, run.views(), snap, &runs_total).ok());
    EXPECT_EQ(runs_total, b + 1);
  }
  ASSERT_TRUE(VerifySnapshotIntegrity(snap).ok());

  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, snap, &info).ok());
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.delta_runs, kRuns);
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(loaded.table(i), lake.table(i))) << i;
  }

  // Mapped open reads base + runs through the same merge layer.
  auto mapped = ColumnStatsCatalog::OpenMapped(loaded, snap, {});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->num_regions(), kRuns + 1);
  ColumnStatsCatalog rebuilt(lake);
  ExpectCatalogParity(**mapped, rebuilt, lake, dict, rng, "mapped");
}

// Compaction folds runs into base sections; content must be
// indistinguishable before and after, and a second fold is a no-op.
TEST_F(IncrementalIngestTest, CompactionPreservesParityAndIsIdempotent) {
  std::mt19937 rng(31337);
  DictionaryPtr dict = MakeDictionary();
  DataLake lake(dict);
  for (Table& t : MakeRandomTables(dict, 4, "base", rng)) {
    ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
  }
  GenT base(lake);
  const std::string snap = Path("fold.snap");
  ASSERT_TRUE(
      SaveSnapshotV2(lake, base.catalog().section_views(), snap).ok());
  for (size_t b = 0; b < 2; ++b) {
    const size_t first = lake.size();
    for (Table& t : MakeRandomTables(dict, 2, "run" + std::to_string(b) + "_",
                                     rng)) {
      ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
    }
    const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, first);
    ASSERT_TRUE(AppendSnapshotDelta(lake, first, run.views(), snap).ok());
  }

  size_t folded = 0;
  ASSERT_TRUE(CompactSnapshotV2(snap, &folded).ok());
  EXPECT_EQ(folded, 2u);
  ASSERT_TRUE(VerifySnapshotIntegrity(snap).ok());

  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, snap, &info).ok());
  EXPECT_EQ(info.delta_runs, 0u);  // folded into the base
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(loaded.table(i), lake.table(i))) << i;
  }
  auto mapped = ColumnStatsCatalog::OpenMapped(loaded, snap, {});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->num_regions(), 1u);
  ColumnStatsCatalog rebuilt(lake);
  ExpectCatalogParity(**mapped, rebuilt, lake, dict, rng, "compacted");

  folded = 99;
  ASSERT_TRUE(CompactSnapshotV2(snap, &folded).ok());
  EXPECT_EQ(folded, 0u);  // nothing to fold; file untouched
}

// Service-level parity: a shard grown by AppendTablesToLake answers
// every request bit-identically to a shard registered with all the
// tables at once — RAM and mapped backends, 1/2/8 threads, and again
// after online compaction.
TEST_F(IncrementalIngestTest, ServiceAppendMatchesOneShot) {
  std::mt19937 rng(555);
  DictionaryPtr dict = MakeDictionary();

  std::vector<Table> base_tables;
  AddFragments(&base_tables, dict, "t0");
  AddFragments(&base_tables, dict, "t1");
  std::vector<std::vector<Table>> batches;
  for (int b = 0; b < 3; ++b) {
    std::vector<Table> batch;
    AddFragments(&batch, dict, "g" + std::to_string(b));
    batch.push_back(MakeRandomTable(dict, "noise" + std::to_string(b), rng));
    batches.push_back(std::move(batch));
  }

  // Reference: everything registered at once, in RAM.
  DataLake all(dict);
  for (const auto& t : base_tables) ASSERT_TRUE(all.AddTable(t).ok());
  for (const auto& batch : batches) {
    for (const auto& t : batch) ASSERT_TRUE(all.AddTable(t).ok());
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool mapped : {false, true}) {
      ServiceOptions ref_opts;
      ref_opts.dict = dict;
      ref_opts.num_threads = threads;
      ref_opts.cache_capacity = 0;
      ReclaimService reference(std::move(ref_opts));
      {
        DataLake copy(all);
        ASSERT_TRUE(reference.AddLake("shard", std::move(copy)).ok());
      }

      ServiceOptions opts;
      opts.dict = dict;
      opts.num_threads = threads;
      opts.cache_capacity = 0;
      opts.storage.compact_after_runs = 0;  // explicit compaction below
      opts.health.auto_recover = false;
      ReclaimService grown(std::move(opts));

      const std::string ctx =
          "threads=" + std::to_string(threads) + " mapped=" + (mapped ? "y" : "n");
      if (mapped) {
        DataLake base(dict);
        for (const auto& t : base_tables) ASSERT_TRUE(base.AddTable(t).ok());
        GenT g(base);
        const std::string snap = Path("svc_" + std::to_string(threads) + ".snap");
        ASSERT_TRUE(
            SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());
        ASSERT_TRUE(grown.AddLakeFromSnapshot("shard", snap).ok());
      } else {
        DataLake base(dict);
        for (const auto& t : base_tables) ASSERT_TRUE(base.AddTable(t).ok());
        ASSERT_TRUE(grown.AddLake("shard", std::move(base)).ok());
      }
      for (const auto& batch : batches) {
        std::vector<Table> copy = batch;
        ASSERT_TRUE(grown.AppendTablesToLake("shard", std::move(copy)).ok())
            << ctx;
      }

      ReclaimRequest named;
      named.lake = "shard";
      ReclaimRequest fan;  // empty lake = fan out
      for (const Table& source : sources_) {
        ExpectResultsIdentical(grown.Reclaim(source, named),
                               reference.Reclaim(source, named),
                               ctx + " named " + source.name());
        ExpectResultsIdentical(grown.Reclaim(source, fan),
                               reference.Reclaim(source, fan),
                               ctx + " fanout " + source.name());
      }

      if (mapped) {
        // Online compaction republishes bit-identical content.
        ASSERT_TRUE(grown.CompactShardSnapshot("shard").ok()) << ctx;
        for (const Table& source : sources_) {
          ExpectResultsIdentical(grown.Reclaim(source, named),
                                 reference.Reclaim(source, named),
                                 ctx + " compacted " + source.name());
        }
      } else {
        // RAM shards have nothing on disk to fold.
        EXPECT_EQ(grown.CompactShardSnapshot("shard").code(),
                  StatusCode::kInvalidArgument);
      }
    }
  }
}

// The discovery cache must never replay a pre-append result: an append
// bumps the shard's delta generation, which moves the route tag.
TEST_F(IncrementalIngestTest, AppendInvalidatesNamedRouteCache) {
  DictionaryPtr dict = MakeDictionary();
  std::vector<Table> base_tables;
  AddFragments(&base_tables, dict, "warm");

  ServiceOptions opts;
  opts.dict = dict;
  opts.cache_capacity = 64;
  ReclaimService service(std::move(opts));
  {
    DataLake base(dict);
    for (const auto& t : base_tables) ASSERT_TRUE(base.AddTable(t).ok());
    ASSERT_TRUE(service.AddLake("shard", std::move(base)).ok());
  }

  ReclaimRequest named;
  named.lake = "shard";
  const Table& source = sources_.front();

  auto first = service.Reclaim(source, named);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = service.Reclaim(source, named);
  ASSERT_TRUE(second.ok());
  const auto warm = service.cache_stats();
  EXPECT_GE(warm.hits, 1u);  // identical request replayed from cache

  // Grow the shard with a better fragment pair for the same source:
  // a stale cache hit would keep answering without them.
  std::vector<Table> growth;
  {
    // Same key/value space as "warm" so the new fragments compete.
    TableBuilder fa(dict, "better_frag_a");
    fa.Columns({"k", "a"});
    TableBuilder fb(dict, "better_frag_b");
    fb.Columns({"k", "b"});
    for (int r = 0; r < 10; ++r) {
      const std::string k = "warm_k" + std::to_string(r);
      fa.Row({k, "warm_a" + std::to_string(r % 5)});
      fb.Row({k, "warm_b" + std::to_string(r)});
    }
    growth.push_back(fa.Build());
    growth.push_back(fb.Build());
  }
  ASSERT_TRUE(service.AppendTablesToLake("shard", std::move(growth)).ok());

  auto after = service.Reclaim(source, named);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const auto post = service.cache_stats();
  EXPECT_GT(post.misses, warm.misses)
      << "append must move the route tag (cache miss), not replay";

  // And the post-append result must match a cache-off service over the
  // same grown shard — i.e. the miss recomputed, not a stale replay.
  ServiceOptions cold_opts;
  cold_opts.dict = dict;
  cold_opts.cache_capacity = 0;
  ReclaimService cold(std::move(cold_opts));
  {
    DataLake grown(dict);
    for (const auto& t : base_tables) ASSERT_TRUE(grown.AddTable(t).ok());
    TableBuilder fa(dict, "better_frag_a");
    fa.Columns({"k", "a"});
    TableBuilder fb(dict, "better_frag_b");
    fb.Columns({"k", "b"});
    for (int r = 0; r < 10; ++r) {
      const std::string k = "warm_k" + std::to_string(r);
      fa.Row({k, "warm_a" + std::to_string(r % 5)});
      fb.Row({k, "warm_b" + std::to_string(r)});
    }
    ASSERT_TRUE(grown.AddTable(fa.Build()).ok());
    ASSERT_TRUE(grown.AddTable(fb.Build()).ok());
    ASSERT_TRUE(cold.AddLake("shard", std::move(grown)).ok());
  }
  ExpectResultsIdentical(after, cold.Reclaim(source, named), "post-append");
}

// Appending to a missing or concurrently-removed shard fails cleanly.
TEST_F(IncrementalIngestTest, AppendErrorPaths) {
  DictionaryPtr dict = MakeDictionary();
  ServiceOptions opts;
  opts.dict = dict;
  ReclaimService service(std::move(opts));

  std::mt19937 rng(1);
  std::vector<Table> batch;
  batch.push_back(MakeRandomTable(dict, "x", rng));
  EXPECT_EQ(service.AppendTablesToLake("nope", std::move(batch)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.AppendTablesToLake("nope", {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CompactShardSnapshot("nope").code(),
            StatusCode::kNotFound);
}

// A v1 snapshot has no footer to commit a delta run against, so an
// append to a v1-backed shard is refused before anything changes: the
// file keeps its bytes, the registry its epoch, and the shard serves
// exactly as before.
TEST_F(IncrementalIngestTest, AppendToV1BackedShardChangesNothing) {
  DictionaryPtr dict = MakeDictionary();
  std::vector<Table> base_tables;
  AddFragments(&base_tables, dict, "warm");
  const std::string snap = Path("v1.snap");
  {
    DataLake base(dict);
    for (const auto& t : base_tables) ASSERT_TRUE(base.AddTable(t).ok());
    ASSERT_TRUE(WriteV1Snapshot(base, snap).ok());
  }
  const std::string bytes_before = BytesOf(snap);

  ServiceOptions opts;
  opts.dict = dict;
  opts.cache_capacity = 0;
  ReclaimService service(std::move(opts));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());
  ReclaimRequest named;
  named.lake = "shard";
  const Table& source = sources_.front();
  auto before = service.Reclaim(source, named);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const uint64_t epoch = service.registry_epoch();

  std::mt19937 rng(5);
  Status s = service.AppendTablesToLake(
      "shard", MakeRandomTables(dict, 2, "late_", rng));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("not a v2 snapshot"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(BytesOf(snap), bytes_before);
  EXPECT_EQ(service.registry_epoch(), epoch);
  ExpectResultsIdentical(service.Reclaim(source, named), before,
                         "after the refused append");
}

// TSan target: requests keep flowing (and keep succeeding) while the
// shard is appended to and compacted underneath them. Readers pin a
// registry snapshot per call, so every answer is one consistent
// generation; the assertion here is freedom from races and torn state,
// with final-state parity checked after the dust settles.
TEST_F(IncrementalIngestTest, ServeWhileAppendingIsRaceFree) {
  std::mt19937 rng(777);
  DictionaryPtr dict = MakeDictionary();
  std::vector<Table> base_tables;
  AddFragments(&base_tables, dict, "live");

  DataLake base(dict);
  for (const auto& t : base_tables) ASSERT_TRUE(base.AddTable(t).ok());
  GenT g(base);
  const std::string snap = Path("live.snap");
  ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());

  ServiceOptions opts;
  opts.dict = dict;
  opts.num_threads = 2;
  opts.cache_capacity = 32;
  opts.storage.compact_after_runs = 0;  // compacted explicitly below
  opts.health.auto_recover = false;
  ReclaimService service(std::move(opts));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      ReclaimRequest req;  // odd readers fan out
      if (r % 2 == 0) req.lake = "shard";
      while (!stop.load(std::memory_order_acquire)) {
        auto res = service.Reclaim(sources_.front(), req);
        if (res.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const int kBatches = 5;
  DataLake shadow(dict);  // what the shard should hold at the end
  for (const auto& t : base_tables) ASSERT_TRUE(shadow.AddTable(t).ok());
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Table> batch =
        MakeRandomTables(dict, 2, "live_b" + std::to_string(b) + "_", rng);
    for (const auto& t : batch) ASSERT_TRUE(shadow.AddTable(t).ok());
    ASSERT_TRUE(service.AppendTablesToLake("shard", std::move(batch)).ok())
        << "batch " << b;
    if (b == 2) {
      ASSERT_TRUE(service.CompactShardSnapshot("shard").ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failed.load(), 0u) << "queries failed during concurrent ingest";
  EXPECT_GT(served.load(), 0u);

  // After the churn, the shard answers like a fresh one-shot service.
  ServiceOptions ref_opts;
  ref_opts.dict = dict;
  ref_opts.cache_capacity = 0;
  ReclaimService reference(std::move(ref_opts));
  {
    DataLake copy(shadow);
    ASSERT_TRUE(reference.AddLake("shard", std::move(copy)).ok());
  }
  ReclaimRequest named;
  named.lake = "shard";
  ExpectResultsIdentical(service.Reclaim(sources_.front(), named),
                         reference.Reclaim(sources_.front(), named), "final");

  // The on-disk snapshot also accreted everything durably.
  DataLake reloaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(reloaded, snap, &info).ok());
  ASSERT_EQ(reloaded.size(), shadow.size());
  for (size_t i = 0; i < shadow.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(reloaded.table(i), shadow.table(i))) << i;
  }
}

// The service fold writes the served lake: the folded file verifies, is
// byte-for-byte a one-shot save of the same tables (same dictionary,
// same catalog), reloads bit-identically into a fresh lake with one
// catalog region that matches a rebuild, and the republished shard
// serves it mapped.
TEST_F(IncrementalIngestTest, ServiceFoldWritesTheServedLake) {
  std::mt19937 rng(8080);
  DictionaryPtr dict = MakeDictionary();
  DataLake base(dict);
  for (Table& t : MakeRandomTables(dict, 4, "base", rng)) {
    ASSERT_TRUE(base.AddTable(std::move(t)).ok());
  }
  GenT g(base);
  const std::string snap = Path("fold.snap");
  ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());

  ReclaimService service(ExplicitFoldOptions(dict));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());
  const bool mmap_works = service.residency_stats()[0].catalog.mapped;
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(service
                    .AppendTablesToLake(
                        "shard", MakeRandomTables(
                                     dict, 2, "f" + std::to_string(b) + "_",
                                     rng))
                    .ok());
  }
  const uint64_t epoch = service.registry_epoch();
  const DataLake* served = *service.lake("shard");
  ASSERT_TRUE(service.CompactShardSnapshot("shard").ok());
  EXPECT_EQ(service.registry_epoch(), epoch + 1);
  // The same lake object, now under a catalog mapped from the new file.
  EXPECT_EQ(*service.lake("shard"), served);
  EXPECT_EQ(service.residency_stats()[0].catalog.mapped, mmap_works);
  ASSERT_TRUE(VerifySnapshotIntegrity(snap).ok());

  const std::string one_shot = Path("one_shot.snap");
  {
    const ColumnStatsCatalog built(*served);
    ASSERT_TRUE(SaveSnapshotV2(*served, built.section_views(), one_shot).ok());
  }
  EXPECT_EQ(BytesOf(snap), BytesOf(one_shot));

  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, snap, &info).ok());
  EXPECT_EQ(info.delta_runs, 0u);
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(loaded.size(), served->size());
  for (size_t i = 0; i < served->size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(loaded.table(i), served->table(i))) << i;
  }
  auto mapped = ColumnStatsCatalog::OpenMapped(loaded, snap, {});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->num_regions(), 1u);
  ColumnStatsCatalog rebuilt(*served);
  ExpectCatalogParity(**mapped, rebuilt, *served, dict, rng, "folded");
}

// A fold writes the service dictionary as it is at fold time, so a
// dictionary grown meanwhile through another shard still reloads into
// the same service with the identity remap (and so mapped).
TEST_F(IncrementalIngestTest, FoldAfterDictionaryGrowthReloadsWithIdentity) {
  std::mt19937 rng(9090);
  DictionaryPtr dict = MakeDictionary();
  DataLake base(dict);
  for (Table& t : MakeRandomTables(dict, 3, "base", rng)) {
    ASSERT_TRUE(base.AddTable(std::move(t)).ok());
  }
  GenT g(base);
  const std::string snap = Path("grow.snap");
  ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());

  ReclaimService service(ExplicitFoldOptions(dict));
  ASSERT_TRUE(service.AddLakeFromSnapshot("stream", snap).ok());
  const bool mmap_works = service.residency_stats()[0].catalog.mapped;
  ASSERT_TRUE(service
                  .AppendTablesToLake("stream",
                                      MakeRandomTables(dict, 2, "s_", rng))
                  .ok());
  // Another shard grows the shared dictionary after the append.
  const size_t before = dict->size();
  {
    DataLake other(dict);
    ASSERT_TRUE(other
                    .AddTable(TableBuilder(dict, "other")
                                  .Columns({"o"})
                                  .Row({"only_in_other_1"})
                                  .Row({"only_in_other_2"})
                                  .Build())
                    .ok());
    ASSERT_TRUE(service.AddLake("other", std::move(other)).ok());
  }
  ASSERT_GT(dict->size(), before);

  ASSERT_TRUE(service.CompactShardSnapshot("stream").ok());
  DataLake same_dict(dict);
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(same_dict, snap, &info).ok());
  EXPECT_TRUE(info.identity_remap);
  EXPECT_EQ(info.delta_runs, 0u);

  ASSERT_TRUE(service.ReloadLakeFromSnapshot("stream", snap).ok());
  for (const auto& r : service.residency_stats()) {
    if (r.name == "stream") {
      EXPECT_EQ(r.catalog.mapped, mmap_works);
    }
  }
  const DataLake* reloaded = *service.lake("stream");
  ASSERT_EQ(reloaded->size(), same_dict.size());
  for (size_t i = 0; i < same_dict.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(reloaded->table(i), same_dict.table(i)))
        << i;
  }
}

// The writers' bytes do not depend on how the dictionary holds its
// strings: a service that adopted its dictionary from a file (its base
// segment) saves, and folds after an append, exactly the bytes a
// one-shot save of the same lake writes from a dictionary that interned
// every value.
TEST_F(IncrementalIngestTest, AdoptedServiceWritesTheBytesOfAOneShotSave) {
  std::mt19937 rng(2727);
  DictionaryPtr ref_dict = MakeDictionary();
  DataLake ref(ref_dict);
  for (Table& t : MakeRandomTables(ref_dict, 4, "base", rng)) {
    ASSERT_TRUE(ref.AddTable(std::move(t)).ok());
  }
  const std::string served = Path("served.snap");
  ASSERT_TRUE(SaveV2(ref, served).ok());
  const std::string base_bytes = BytesOf(served);

  ReclaimService service(ExplicitFoldOptions(MakeDictionary()));
  ASSERT_TRUE(service.AddLakeFromSnapshot("stream", served).ok());
  ASSERT_GT(service.dict()->base_bytes(), 0u);  // adopted
  const size_t adopted_size = service.dict()->size();
  ASSERT_TRUE(service.SaveShardSnapshot("stream", Path("saved.snap")).ok());
  EXPECT_EQ(BytesOf(Path("saved.snap")), base_bytes);

  // The same batch, interned in the same order, into both lakes.
  const DictionaryPtr batch_dict = MakeDictionary();
  std::vector<Table> batch;
  for (const Table& t : MakeRandomTables(batch_dict, 3, "s_", rng)) {
    ASSERT_TRUE(ref.AddTable(TranslateToDictionary(t, ref_dict)).ok());
    batch.push_back(TranslateToDictionary(t, service.dict()));
  }
  ASSERT_GT(service.dict()->size(), adopted_size);  // a tail past the base
  ASSERT_TRUE(service.AppendTablesToLake("stream", std::move(batch)).ok());
  ASSERT_TRUE(service.CompactShardSnapshot("stream").ok());
  ASSERT_TRUE(SaveV2(ref, Path("one_shot.snap")).ok());
  const std::string one_shot = BytesOf(Path("one_shot.snap"));
  EXPECT_EQ(BytesOf(served), one_shot);
  ASSERT_TRUE(service.SaveShardSnapshot("stream", Path("saved2.snap")).ok());
  EXPECT_EQ(BytesOf(Path("saved2.snap")), one_shot);
}

// A shard whose file has no delta runs has nothing to fold: the call
// writes nothing and publishes nothing.
TEST_F(IncrementalIngestTest, FoldWithoutRunsTouchesNothing) {
  std::mt19937 rng(1111);
  DictionaryPtr dict = MakeDictionary();
  DataLake base(dict);
  for (Table& t : MakeRandomTables(dict, 3, "base", rng)) {
    ASSERT_TRUE(base.AddTable(std::move(t)).ok());
  }
  GenT g(base);
  const std::string snap = Path("still.snap");
  ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());

  ServiceOptions opts;
  opts.dict = dict;
  opts.storage.compact_after_runs = 0;
  opts.health.auto_recover = false;
  ReclaimService service(std::move(opts));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());
  const std::string bytes = BytesOf(snap);
  const auto mtime = std::filesystem::last_write_time(snap);
  const uint64_t epoch = service.registry_epoch();
  ASSERT_TRUE(service.CompactShardSnapshot("shard").ok());
  EXPECT_EQ(service.registry_epoch(), epoch);
  EXPECT_EQ(BytesOf(snap), bytes);
  EXPECT_EQ(std::filesystem::last_write_time(snap), mtime);

  // After a fold the file has no runs again: a second fold is a no-op.
  ASSERT_TRUE(service
                  .AppendTablesToLake("shard",
                                      MakeRandomTables(dict, 1, "r_", rng))
                  .ok());
  ASSERT_TRUE(service.CompactShardSnapshot("shard").ok());
  const std::string folded = BytesOf(snap);
  const uint64_t folded_epoch = service.registry_epoch();
  ASSERT_TRUE(service.CompactShardSnapshot("shard").ok());
  EXPECT_EQ(service.registry_epoch(), folded_epoch);
  EXPECT_EQ(BytesOf(snap), folded);
}

// A file written from its own dictionary loads into a service whose
// dictionary already holds other values, so its ids are not the
// service's (no identity remap). A delta run written in the service's
// ids would reload as different values with every checksum passing;
// the append rewrites the file whole instead, and later appends to the
// rewritten file go back to delta runs.
TEST_F(IncrementalIngestTest, AppendToForeignIdSpaceFileKeepsValues) {
  const std::string snap = Path("foreign.snap");
  {
    DictionaryPtr file_dict = MakeDictionary();
    DataLake base(file_dict);
    ASSERT_TRUE(base.AddTable(TableBuilder(file_dict, "base")
                                  .Columns({"a", "b"})
                                  .Row({"a1", "b1"})
                                  .Row({"a2", "b2"})
                                  .Build())
                    .ok());
    GenT g(base);
    ASSERT_TRUE(
        SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());
  }
  DictionaryPtr dict = MakeDictionary();
  for (const char* v : {"x", "y", "z", "b2", "w"}) dict->Intern(v);

  ReclaimService service(ExplicitFoldOptions(dict));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());
  EXPECT_FALSE(service.residency_stats()[0].catalog.mapped);

  const auto late = [&](const std::string& name, const std::string& a,
                        const std::string& b) {
    std::vector<Table> batch;
    batch.push_back(
        TableBuilder(dict, name).Columns({"a", "b"}).Row({a, b}).Build());
    return batch;
  };
  ASSERT_TRUE(service.AppendTablesToLake("shard", late("late", "y", "z")).ok());
  ASSERT_TRUE(
      service.AppendTablesToLake("shard", late("later", "w", "a1")).ok());

  const auto expect_cells = [&](const DataLake& lake,
                                const std::string& context) {
    ASSERT_EQ(lake.size(), 3u) << context;
    EXPECT_EQ(lake.table(0).CellString(0, 0), "a1") << context;
    EXPECT_EQ(lake.table(0).CellString(1, 1), "b2") << context;
    EXPECT_EQ(lake.table(1).CellString(0, 0), "y") << context;
    EXPECT_EQ(lake.table(1).CellString(0, 1), "z") << context;
    EXPECT_EQ(lake.table(2).CellString(0, 0), "w") << context;
    EXPECT_EQ(lake.table(2).CellString(0, 1), "a1") << context;
  };
  expect_cells(**service.lake("shard"), "served");
  DataLake fresh;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(fresh, snap, &info).ok());
  EXPECT_EQ(info.delta_runs, 1u);  // the second append was a run again
  expect_cells(fresh, "fresh reload");
  DataLake same_dict(dict);
  ASSERT_TRUE(LoadSnapshot(same_dict, snap, &info).ok());
  EXPECT_TRUE(info.identity_remap);
  expect_cells(same_dict, "service-dictionary reload");
  for (size_t i = 0; i < same_dict.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(same_dict.table(i),
                                   (*service.lake("shard"))->table(i)))
        << i;
  }
}

// A request whose source has nulls allocates labeled nulls. They are
// not dictionary entries, so they never reach a file: appends, saves
// and folds after such a request all succeed, and the reloaded shard
// answers identically.
TEST_F(IncrementalIngestTest, LabeledNullsNeverBlockAppendSaveOrFold) {
  // The source and one fragment agree on a null cell, which the
  // integration protects with a label.
  DictionaryPtr dict = MakeDictionary();
  TableBuilder sb(dict, "source");
  sb.Columns({"k", "a", "b"});
  TableBuilder fa(dict, "lab_frag_a");
  fa.Columns({"k", "a"});
  TableBuilder fb(dict, "lab_frag_b");
  fb.Columns({"k", "b"});
  for (int r = 0; r < 10; ++r) {
    const std::string k = "lab_k" + std::to_string(r);
    const std::string a = "lab_a" + std::to_string(r % 5);
    const std::string b = r == 3 ? "" : "lab_b" + std::to_string(r);
    sb.Row({k, a, b});
    fa.Row({k, a});
    fb.Row({k, b});
  }
  const Table source = sb.Key({"k"}).Build();
  DataLake base(dict);
  ASSERT_TRUE(base.AddTable(fa.Build()).ok());
  ASSERT_TRUE(base.AddTable(fb.Build()).ok());
  GenT g(base);
  const std::string snap = Path("labels.snap");
  ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());

  ReclaimService service(ExplicitFoldOptions(dict));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());

  ReclaimRequest named;
  named.lake = "shard";
  const auto first = service.Reclaim(source, named);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Some label was allocated: the next one is not the first.
  ASSERT_GT(dict->CreateLabeledNull(), kFirstLabeledNull);

  std::mt19937 rng(3);
  ASSERT_TRUE(service
                  .AppendTablesToLake("shard",
                                      MakeRandomTables(dict, 2, "after_", rng))
                  .ok());
  const std::string saved = Path("saved.snap");
  ASSERT_TRUE(service.SaveShardSnapshot("shard", saved).ok());
  ASSERT_TRUE(service.CompactShardSnapshot("shard").ok());
  const auto before_reload = service.Reclaim(source, named);
  ASSERT_TRUE(before_reload.ok());

  for (const std::string& path : {snap, saved}) {
    ReclaimService fresh(ExplicitFoldOptions(dict));
    ASSERT_TRUE(fresh.AddLakeFromSnapshot("shard", path).ok()) << path;
    ExpectResultsIdentical(fresh.Reclaim(source, named), before_reload,
                           "fresh service over " + path);
  }
  ASSERT_TRUE(service.ReloadLakeFromSnapshot("shard", snap).ok());
  ExpectResultsIdentical(service.Reclaim(source, named), before_reload,
                         "reloaded into the same service");
}

// The compact_after_runs policy folds in the background: after enough
// appends, the recovery thread compacts without an explicit call.
TEST_F(IncrementalIngestTest, BackgroundCompactionPolicy) {
  std::mt19937 rng(4242);
  DictionaryPtr dict = MakeDictionary();
  DataLake base(dict);
  for (Table& t : MakeRandomTables(dict, 3, "base", rng)) {
    ASSERT_TRUE(base.AddTable(std::move(t)).ok());
  }
  GenT g(base);
  const std::string snap = Path("policy.snap");
  ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), snap).ok());

  ServiceOptions opts;
  opts.dict = dict;
  opts.storage.compact_after_runs = 2;
  ReclaimService service(std::move(opts));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", snap).ok());

  for (int b = 0; b < 2; ++b) {
    ASSERT_TRUE(
        service
            .AppendTablesToLake(
                "shard",
                MakeRandomTables(dict, 1, "p" + std::to_string(b) + "_", rng))
            .ok());
  }
  // The fold happens on the recovery thread; poll the file.
  SnapshotLoadInfo info;
  for (int spin = 0; spin < 200; ++spin) {
    DataLake probe;
    ASSERT_TRUE(LoadSnapshot(probe, snap, &info).ok());
    if (info.delta_runs == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(info.delta_runs, 0u) << "background compaction never ran";
}

}  // namespace
}  // namespace gent
