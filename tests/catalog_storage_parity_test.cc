// Backend parity: a ReclaimService whose catalogs are mmap-backed
// (snapshot v2, opened without rebuild) must be bit-identical to one
// whose catalogs are rebuilt in RAM — for Reclaim, ReclaimBatch, and
// stats-prefilter routing, at every thread count, on small synthetic
// lakes and on TP-TR Med. The two backends share one dictionary so even
// ValueIds are comparable.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchgen/benchmarks.h"
#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/lake/snapshot.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

class CatalogStorageParityTest : public ::testing::Test {
 protected:
  CatalogStorageParityTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_parity_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~CatalogStorageParityTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Vertical fragments: source s (k,a,b) splits into s<i>_frag_a and
  // s<i>_frag_b, all in one lake, plus distractor tables with disjoint
  // values so the prefilter has something to prune.
  void BuildFixture(size_t n_sources) {
    lake_ = std::make_unique<DataLake>(dict_);
    for (size_t s = 0; s < n_sources; ++s) {
      const std::string tag = "s" + std::to_string(s) + "_";
      TableBuilder sb(dict_, "source" + std::to_string(s));
      sb.Columns({"k", "a", "b"});
      TableBuilder fa(dict_, tag + "frag_a");
      fa.Columns({"k", "a"});
      TableBuilder fb(dict_, tag + "frag_b");
      fb.Columns({"k", "b"});
      for (size_t r = 0; r < 12; ++r) {
        const std::string k = tag + "k" + std::to_string(r);
        const std::string a = tag + "a" + std::to_string(r % 7);
        const std::string b = tag + "b" + std::to_string(r);
        sb.Row({k, a, b});
        fa.Row({k, a});
        fb.Row({k, b});
      }
      sources_.push_back(sb.Key({"k"}).Build());
      ASSERT_TRUE(lake_->AddTable(fa.Build()).ok());
      ASSERT_TRUE(lake_->AddTable(fb.Build()).ok());
    }
    TableBuilder noise(dict_, "disjoint_noise");
    noise.Columns({"x", "y"});
    for (size_t r = 0; r < 50; ++r) {
      noise.Row({"nx" + std::to_string(r), "ny" + std::to_string(r)});
    }
    ASSERT_TRUE(lake_->AddTable(noise.Build()).ok());
  }

  // TP-TR Med as the fixture: the paper-scale lake that a restart
  // opens mapped. Its dictionary and its sources replace the synthetic
  // ones.
  void BuildMedFixture() {
    auto med = MakeTpTrBenchmark("TP-TR Med", TpTrMedConfig());
    ASSERT_TRUE(med.ok()) << med.status().ToString();
    dict_ = med->lake->dict();
    lake_ = std::move(med->lake);
    for (SourceSpec& spec : med->sources) {
      sources_.push_back(std::move(spec.source));
    }
  }

  // Saves the fixture lake as a v2 snapshot (built catalog included).
  std::string SaveV2(const std::string& name) {
    GenT gent(*lake_);
    const std::string path = Path(name);
    EXPECT_TRUE(
        SaveSnapshotV2(*lake_, gent.catalog().section_views(), path).ok());
    return path;
  }

  // A service over the snapshot with the requested backend. Both share
  // dict_ — the snapshot was saved from dict_, so the remap is identity
  // and AddLakeFromSnapshot opens the catalog mapped. The RAM side
  // registers the LoadSnapshot'd lake with AddLake, which builds the
  // catalog from cells.
  std::unique_ptr<ReclaimService> MakeService(const std::string& snap,
                                              bool mapped,
                                              size_t num_threads) {
    ServiceOptions options;
    options.dict = dict_;
    options.num_threads = num_threads;
    options.cache_capacity = 0;  // no cache: every call exercises the
                                 // catalog read path
    auto service = std::make_unique<ReclaimService>(std::move(options));
    if (mapped) {
      EXPECT_TRUE(service->AddLakeFromSnapshot("lake", snap).ok());
    } else {
      DataLake lake(dict_);
      EXPECT_TRUE(LoadSnapshot(lake, snap).ok());
      EXPECT_TRUE(service->AddLake("lake", std::move(lake)).ok());
    }
    return service;
  }

  static void ExpectBitIdentical(const Result<ReclamationResult>& ram,
                                 const Result<ReclamationResult>& mapped,
                                 const std::string& context) {
    ASSERT_EQ(ram.ok(), mapped.ok())
        << context << ": " << ram.status().ToString() << " vs "
        << mapped.status().ToString();
    if (!ram.ok()) {
      EXPECT_EQ(ram.status().code(), mapped.status().code()) << context;
      return;
    }
    EXPECT_TRUE(TablesBitIdentical(ram->reclaimed, mapped->reclaimed))
        << context;
    EXPECT_EQ(ram->originating_names, mapped->originating_names) << context;
    EXPECT_DOUBLE_EQ(ram->predicted_eis, mapped->predicted_eis) << context;
  }

  DictionaryPtr dict_ = MakeDictionary();
  std::unique_ptr<DataLake> lake_;
  std::vector<Table> sources_;
  std::filesystem::path dir_;
};

TEST_F(CatalogStorageParityTest, MappedBackendIsActuallyMapped) {
  BuildFixture(4);
  const std::string snap = SaveV2("lake.snap");

  auto ram = MakeService(snap, /*mapped=*/false, 1);
  auto ram_stats = ram->residency_stats();
  ASSERT_EQ(ram_stats.size(), 1u);
  EXPECT_FALSE(ram_stats[0].catalog.mapped);
  EXPECT_GT(ram_stats[0].catalog.bytes_total, 0u);

  auto mapped = MakeService(snap, /*mapped=*/true, 1);
  auto stats = mapped->residency_stats();
  ASSERT_EQ(stats.size(), 1u);
  if (!stats[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable; mapped backend fell back to rebuild";
  }
  EXPECT_EQ(stats[0].name, "lake");
  EXPECT_GT(stats[0].catalog.bytes_total, 0u);
  // The hot spine is pinned resident at open; queries fault in more.
  EXPECT_GT(stats[0].catalog.bytes_resident, 0u);
  EXPECT_LE(stats[0].catalog.bytes_resident, stats[0].catalog.bytes_total);

  ReclaimRequest request;
  request.lake = "lake";
  ASSERT_TRUE(mapped->Reclaim(sources_[0], request).ok());
  auto after = mapped->residency_stats();
  EXPECT_GT(after[0].catalog.pool_hits + after[0].catalog.pool_faults,
            stats[0].catalog.pool_hits + stats[0].catalog.pool_faults)
      << "queries should go through the pool's fault-in hook";
}

TEST_F(CatalogStorageParityTest, ReclaimBitIdenticalAcrossBackends) {
  BuildFixture(6);
  const std::string snap = SaveV2("lake.snap");
  auto ram = MakeService(snap, false, 1);
  auto mapped = MakeService(snap, true, 1);
  if (!mapped->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable; parity is vacuous";
  }
  for (size_t s = 0; s < sources_.size(); ++s) {
    ReclaimRequest request;
    request.lake = "lake";
    ExpectBitIdentical(ram->Reclaim(sources_[s], request),
                       mapped->Reclaim(sources_[s], request),
                       "source " + std::to_string(s));
  }
}

TEST_F(CatalogStorageParityTest, PrefilterRoutingBitIdenticalAcrossBackends) {
  BuildFixture(6);
  const std::string snap = SaveV2("lake.snap");
  auto ram = MakeService(snap, false, 2);
  auto mapped = MakeService(snap, true, 2);
  if (!mapped->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable; parity is vacuous";
  }
  for (size_t s = 0; s < sources_.size(); ++s) {
    ReclaimRequest request;  // empty lake = prefiltered fan-out
    ExpectBitIdentical(ram->Reclaim(sources_[s], request),
                       mapped->Reclaim(sources_[s], request),
                       "prefilter source " + std::to_string(s));
  }
  // The prefilter consults SharesAnyValue on the catalog; both backends
  // must prune identically.
  EXPECT_EQ(ram->routing_stats().shards_pruned,
            mapped->routing_stats().shards_pruned);
}

// Paper scale: the Med lake saved v2 and opened mapped answers
// bit-identically to a catalog rebuilt in RAM. Source 22 is the one a
// restart probe answers.
TEST_F(CatalogStorageParityTest, MedBitIdenticalAcrossBackends) {
  BuildMedFixture();
  const std::string snap = SaveV2("med.snap");
  auto ram = MakeService(snap, false, 1);
  auto mapped = MakeService(snap, true, 1);
  if (!mapped->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable; parity is vacuous";
  }
  for (size_t s : {size_t{0}, size_t{22}}) {
    ReclaimRequest request;
    request.lake = "lake";
    auto from_ram = ram->Reclaim(sources_[s], request);
    ASSERT_TRUE(from_ram.ok()) << from_ram.status().ToString();
    ExpectBitIdentical(from_ram, mapped->Reclaim(sources_[s], request),
                       "Med source " + std::to_string(s));
  }
}

class ParityThreadSweep : public CatalogStorageParityTest,
                          public ::testing::WithParamInterface<size_t> {};

TEST_P(ParityThreadSweep, BatchBitIdenticalAcrossBackendsAndThreads) {
  const size_t threads = GetParam();
  BuildFixture(8);
  const std::string snap = SaveV2("lake.snap");
  auto ram = MakeService(snap, false, threads);
  auto mapped = MakeService(snap, true, threads);
  if (!mapped->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable; parity is vacuous";
  }
  auto ram_results = ram->ReclaimBatch(sources_);
  auto mapped_results = mapped->ReclaimBatch(sources_);
  ASSERT_EQ(ram_results.size(), mapped_results.size());
  for (size_t i = 0; i < ram_results.size(); ++i) {
    ExpectBitIdentical(ram_results[i], mapped_results[i],
                       std::to_string(threads) + " threads, source " +
                           std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParityThreadSweep,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace gent
