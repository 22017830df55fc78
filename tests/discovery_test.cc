#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "paper_fixtures.h"
#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/lake/data_lake.h"
#include "src/lake/inverted_index.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

using testing::PaperSource;
using testing::PaperTableA;
using testing::PaperTableB;
using testing::PaperTableC;
using testing::PaperTableD;

// --- DataLake -----------------------------------------------------------------

TEST(DataLakeTest, RegistersAndLooksUp) {
  DataLake lake;
  ASSERT_TRUE(
      lake.AddTable(
              TableBuilder(lake.dict(), "t1").Columns({"a"}).Row({"1"}).Build())
          .ok());
  EXPECT_EQ(lake.size(), 1u);
  EXPECT_EQ(lake.IndexOf("t1").value(), 0u);
  EXPECT_FALSE(lake.IndexOf("nope").ok());
}

TEST(DataLakeTest, RejectsDuplicateNamesAndForeignDictionaries) {
  DataLake lake;
  ASSERT_TRUE(
      lake.AddTable(
              TableBuilder(lake.dict(), "t").Columns({"a"}).Row({"1"}).Build())
          .ok());
  EXPECT_EQ(lake.AddTable(TableBuilder(lake.dict(), "t")
                              .Columns({"b"})
                              .Row({"2"})
                              .Build())
                .code(),
            StatusCode::kAlreadyExists);
  auto foreign = MakeDictionary();
  EXPECT_EQ(
      lake.AddTable(
              TableBuilder(foreign, "u").Columns({"a"}).Row({"1"}).Build())
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(DataLakeTest, StatsAggregate) {
  DataLake lake;
  (void)lake.AddTable(TableBuilder(lake.dict(), "a")
                          .Columns({"x", "y"})
                          .Row({"1", "2"})
                          .Row({"3", "4"})
                          .Build());
  (void)lake.AddTable(
      TableBuilder(lake.dict(), "b").Columns({"z"}).Row({"5"}).Build());
  auto s = lake.ComputeStats();
  EXPECT_EQ(s.num_tables, 2u);
  EXPECT_EQ(s.num_columns, 3u);
  EXPECT_DOUBLE_EQ(s.avg_rows, 1.5);
  EXPECT_EQ(s.total_cells, 5u);
}

// --- Catalog queries + hash-set helpers -------------------------------------------

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)lake_.AddTable(PaperTableA(lake_.dict()));
    (void)lake_.AddTable(PaperTableB(lake_.dict()));
    (void)lake_.AddTable(PaperTableC(lake_.dict()));
    (void)lake_.AddTable(PaperTableD(lake_.dict()));
  }
  DataLake lake_;
};

TEST_F(IndexTest, OverlapCountsFindMatchingColumns) {
  ColumnStatsCatalog catalog(lake_);
  std::vector<ValueId> names{lake_.dict()->Lookup("Smith"),
                             lake_.dict()->Lookup("Brown"),
                             lake_.dict()->Lookup("Wang")};
  std::sort(names.begin(), names.end());
  std::unordered_map<ColumnRef, uint32_t, ColumnRefHash> counts;
  for (const auto& overlap : catalog.OverlapCounts(names)) {
    counts[overlap.ref] = overlap.count;
  }
  // Name columns of A (col 1), B (col 0), C (col 0), D (col 0).
  EXPECT_EQ(counts[(ColumnRef{0, 1})], 3u);
  EXPECT_EQ(counts[(ColumnRef{1, 0})], 3u);
  EXPECT_EQ(counts[(ColumnRef{2, 0})], 3u);
  EXPECT_EQ(counts[(ColumnRef{3, 0})], 2u);  // D lacks Smith
}

TEST_F(IndexTest, TopKRanksByDistinctSharedValues) {
  ColumnStatsCatalog catalog(lake_);
  Table source = PaperSource(lake_.dict());
  auto top = catalog.TopKTables(source, 2);
  ASSERT_EQ(top.size(), 2u);
  // A shares most values (IDs, names, education) — must rank first.
  EXPECT_EQ(top[0], 0u);
}

TEST_F(IndexTest, TopKHonorsK) {
  ColumnStatsCatalog catalog(lake_);
  Table source = PaperSource(lake_.dict());
  EXPECT_EQ(catalog.TopKTables(source, 100).size(), 4u);
  EXPECT_EQ(catalog.TopKTables(source, 1).size(), 1u);
}

TEST_F(IndexTest, DistinctColumnValuesSkipsNulls) {
  Table t = TableBuilder(lake_.dict(), "t")
                .Columns({"a"})
                .Row({"x"})
                .Row({""})
                .Row({"x"})
                .Build();
  EXPECT_EQ(DistinctColumnValues(t, 0).size(), 1u);
}

TEST_F(IndexTest, SetIntersectionSize) {
  std::unordered_set<ValueId> a{1, 2, 3}, b{2, 3, 4, 5};
  EXPECT_EQ(SetIntersectionSize(a, b), 2u);
  EXPECT_EQ(SetIntersectionSize(b, a), 2u);
  EXPECT_EQ(SetIntersectionSize(a, {}), 0u);
}

// --- Diversification (Algorithm 4) ---------------------------------------------

TEST(DiversifyTest, PenalizesOverlapWithPreviousCandidate) {
  std::vector<ValueId> v1{1, 2, 3, 4};
  std::vector<ValueId> v2{1, 2, 3, 4};  // duplicate of v1
  std::vector<ValueId> v3{7, 8, 9, 10}; // disjoint
  std::vector<DiversifyInput> ranked{
      {0, 1.0, v1},
      {1, 1.0, v2},   // same overlap, but duplicates v1 → penalized
      {2, 0.8, v3},
  };
  auto scored = DiversifyCandidateColumns(ranked);
  ASSERT_EQ(scored.size(), 3u);
  // The duplicate drops to 1.0 − 4/4 = 0; the diverse v3 rises to ~0.8
  // − 0 (v3 vs v2 share nothing) and overtakes it.
  EXPECT_EQ(scored[0].first, 0u);
  EXPECT_EQ(scored[1].first, 2u);
  EXPECT_EQ(scored[2].first, 1u);
  EXPECT_DOUBLE_EQ(scored[2].second, 0.0);
}

TEST(DiversifyTest, SingleCandidateKeepsScore) {
  std::vector<ValueId> v{1};
  auto scored = DiversifyCandidateColumns({{5, 0.7, v}});
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].first, 5u);
  EXPECT_DOUBLE_EQ(scored[0].second, 0.7);
}

// --- Discovery (Algorithm 3) ------------------------------------------------------

class DiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)lake_.AddTable(PaperTableA(lake_.dict()));
    (void)lake_.AddTable(PaperTableB(lake_.dict()));
    (void)lake_.AddTable(PaperTableC(lake_.dict()));
    (void)lake_.AddTable(PaperTableD(lake_.dict()));
    catalog_ = std::make_unique<ColumnStatsCatalog>(lake_);
  }

  DataLake lake_;
  std::unique_ptr<ColumnStatsCatalog> catalog_;
};

TEST_F(DiscoveryTest, FindsAllRelatedTables) {
  Discovery discovery(*catalog_, DiscoveryConfig{});
  Table source = PaperSource(lake_.dict());
  auto cands = discovery.FindCandidates(source);
  ASSERT_TRUE(cands.ok());
  // All four tables share values; all should surface.
  EXPECT_EQ(cands->size(), 4u);
}

TEST_F(DiscoveryTest, RequiresSourceKey) {
  Discovery discovery(*catalog_, DiscoveryConfig{});
  Table keyless = TableBuilder(lake_.dict(), "s").Columns({"x"}).Row({"1"}).Build();
  EXPECT_FALSE(discovery.FindCandidates(keyless).ok());
}

TEST_F(DiscoveryTest, MapsAndRenamesColumns) {
  Discovery discovery(*catalog_, DiscoveryConfig{});
  Table source = PaperSource(lake_.dict());
  auto cands = discovery.FindCandidates(source);
  ASSERT_TRUE(cands.ok());
  for (const auto& c : *cands) {
    // Every mapped column now carries the source column's name.
    for (const auto& [src_name, col] : c.mapping) {
      EXPECT_EQ(c.table.column_name(col), src_name);
    }
  }
}

TEST_F(DiscoveryTest, KeyCoverageDetected) {
  Discovery discovery(*catalog_, DiscoveryConfig{});
  Table source = PaperSource(lake_.dict());
  auto cands = discovery.FindCandidates(source);
  ASSERT_TRUE(cands.ok());
  for (const auto& c : *cands) {
    bool is_a = c.lake_index == 0;  // only A has the ID column
    EXPECT_EQ(c.covers_key, is_a) << "lake table " << c.lake_index;
  }
}

TEST_F(DiscoveryTest, DuplicateTableIsPrunedAsSubsumed) {
  // Example 9: an exact duplicate of D adds nothing.
  Table dup = PaperTableD(lake_.dict());
  dup.set_name("E");
  (void)lake_.AddTable(std::move(dup));
  ColumnStatsCatalog catalog(lake_);
  Discovery discovery(catalog, DiscoveryConfig{});
  Table source = PaperSource(lake_.dict());
  auto cands = discovery.FindCandidates(source);
  ASSERT_TRUE(cands.ok());
  size_t d_like = 0;
  for (const auto& c : *cands) d_like += c.lake_index >= 3;
  EXPECT_EQ(d_like, 1u) << "only one of D/E may survive";
}

TEST_F(DiscoveryTest, ThresholdFiltersWeakCandidates) {
  // An unrelated table sharing one value out of many.
  (void)lake_.AddTable(TableBuilder(lake_.dict(), "noise")
                           .Columns({"p", "q"})
                           .Row({"Smith", "unrelated1"})
                           .Row({"zz1", "unrelated2"})
                           .Row({"zz2", "unrelated3"})
                           .Build());
  ColumnStatsCatalog catalog(lake_);
  DiscoveryConfig cfg;
  cfg.tau = 0.5;  // demand half the source column's values
  Discovery discovery(catalog, cfg);
  Table source = PaperSource(lake_.dict());
  auto cands = discovery.FindCandidates(source);
  ASSERT_TRUE(cands.ok());
  for (const auto& c : *cands) {
    EXPECT_NE(lake_.table(c.lake_index).name(), "noise");
  }
}

TEST_F(DiscoveryTest, ScoresAreDescending) {
  Discovery discovery(*catalog_, DiscoveryConfig{});
  Table source = PaperSource(lake_.dict());
  auto cands = discovery.FindCandidates(source);
  ASSERT_TRUE(cands.ok());
  for (size_t i = 1; i < cands->size(); ++i) {
    EXPECT_GE((*cands)[i - 1].score, (*cands)[i].score);
  }
}

}  // namespace
}  // namespace gent
