// Tests for the engine layer: ColumnStatsCatalog (merge-based overlap
// agreeing with the legacy hash-set path) and ThreadPool.

#include "src/engine/column_stats_catalog.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/benchgen/benchmarks.h"
#include "src/engine/thread_pool.h"
#include "src/lake/inverted_index.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

// --- SortedDistinctValues / SortedIntersectionSize -------------------------

TEST(SortedDistinctValuesTest, SortsDedupsAndSkipsNulls) {
  auto dict = MakeDictionary();
  Table t = TableBuilder(dict, "t")
                .Columns({"a"})
                .Row({"z"})
                .Row({""})
                .Row({"m"})
                .Row({"z"})
                .Row({"a"})
                .Build();
  auto vals = SortedDistinctValues(t, 0);
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
  for (ValueId v : vals) EXPECT_NE(v, kNull);
}

TEST(SortedDistinctValuesTest, SkipsLabeledNulls) {
  auto dict = MakeDictionary();
  Table t = TableBuilder(dict, "t").Columns({"a"}).Row({"x"}).Build();
  t.AddRow({dict->CreateLabeledNull()});
  EXPECT_EQ(SortedDistinctValues(t, 0).size(), 1u);
  EXPECT_EQ(DistinctColumnValues(t, 0).size(), 1u);
}

TEST(SortedIntersectionSizeTest, MatchesHashSetPath) {
  std::vector<ValueId> a{1, 2, 3, 7, 9};
  std::vector<ValueId> b{2, 3, 4, 5, 9, 11};
  EXPECT_EQ(SortedIntersectionSize(a, b), 3u);
  EXPECT_EQ(SortedIntersectionSize(b, a), 3u);
  EXPECT_EQ(SortedIntersectionSize(a, {}), 0u);
  std::unordered_set<ValueId> ha(a.begin(), a.end()), hb(b.begin(), b.end());
  EXPECT_EQ(SortedIntersectionSize(a, b), SetIntersectionSize(ha, hb));
}

TEST(SortedIntersectionSizeTest, GallopingSkewPathIsExactAndSymmetric) {
  // Skewed past every level's gallop_skew_ratio (8 values vs ~2700, far
  // beyond the AVX2 table's 128), so the galloping path runs regardless
  // of dispatch level — counts and symmetry must hold regardless.
  std::vector<ValueId> big;
  for (ValueId v = 1; v <= 4000; ++v) {
    if (v % 3 != 0) big.push_back(v);
  }
  std::vector<ValueId> small{3, 5, 6, 1000, 2998, 2999, 4000, 4001};
  size_t want = 0;
  for (ValueId v : small) {
    want += std::binary_search(big.begin(), big.end(), v);
  }
  EXPECT_EQ(SortedIntersectionSize(small, big), want);
  EXPECT_EQ(SortedIntersectionSize(big, small), want);
  EXPECT_EQ(SortedIntersectionSize(big, big), big.size());
  EXPECT_EQ(SortedIntersectionSize({}, big), 0u);
}

TEST(SetIntersectionSizeTest, SkewedPairsAreSymmetric) {
  // The hash fallback guarantees the smaller set is probed into the
  // larger whichever way it is called (inverted_index.h contract);
  // counts must be identical in both orders.
  std::unordered_set<ValueId> small{5, 50, 500, 5000};
  std::unordered_set<ValueId> big;
  for (ValueId v = 1; v <= 2000; ++v) big.insert(v);
  EXPECT_EQ(SetIntersectionSize(small, big), 3u);
  EXPECT_EQ(SetIntersectionSize(big, small), 3u);
}

TEST(SortedDistinctValuesTest, BitmapAndSortPathsAgree) {
  // A column wide enough to take the dense bitmap path must produce
  // exactly what the sort path produces on the same data.
  auto dict = MakeDictionary();
  Table t("t", dict);
  ASSERT_TRUE(t.AddColumn("c").ok());
  Rng rng(77);
  std::vector<ValueId> cells;
  for (size_t i = 0; i < 8192; ++i) {
    ValueId v = rng.Bernoulli(0.05)
                    ? kNull
                    : dict->Intern("v" + std::to_string(rng.Index(900)));
    cells.push_back(v);
    t.AddRow({v});
  }
  std::vector<ValueId> want;
  for (ValueId v : cells) {
    if (v != kNull) want.push_back(v);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(SortedDistinctValues(t, 0), want);
}

// What SortedDistinctValues must return: the column's ids minus kNull and
// labeled nulls, sorted and deduplicated.
std::vector<ValueId> SortUniqueOracle(const Table& t, size_t c) {
  std::vector<ValueId> want;
  for (ValueId v : t.column(c)) {
    if (v != kNull && !t.dict()->IsLabeledNull(v)) want.push_back(v);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  return want;
}

// The dense (bitmap) branch runs on columns of at least 4096 rows whose
// dictionary holds at most 16 ids per row; everything else takes the
// sparse (dedup-then-sort) branch.
bool TakesDenseBranch(const Table& t) {
  return t.num_rows() >= 4096 && t.num_rows() * 16 >= t.dict()->size();
}

// One column of `rows` cells drawn from `ids`, with nulls and labeled
// nulls mixed in.
Table RandomColumn(const DictionaryPtr& dict, const std::vector<ValueId>& ids,
                   size_t rows, Rng& rng) {
  Table t("t", dict);
  EXPECT_TRUE(t.AddColumn("c").ok());
  std::vector<ValueId>& col = t.mutable_column(0);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.Bernoulli(0.05)) {
      col.push_back(kNull);
    } else if (rng.Bernoulli(0.03)) {
      col.push_back(dict->CreateLabeledNull());
    } else {
      col.push_back(ids[rng.Index(ids.size())]);
    }
  }
  return t;
}

TEST(SortedDistinctValuesTest, RandomizedMatchesSortUniqueOnBothBranches) {
  auto dict = MakeDictionary();
  Rng rng(4242);
  std::vector<ValueId> ids;
  size_t dense = 0, sparse = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // The dictionary grows between calls, so the dense branch's bitmap
    // universe differs from call to call.
    const size_t grow = 1 + rng.Index(400);
    for (size_t i = 0; i < grow; ++i) {
      ids.push_back(dict->Intern("v" + std::to_string(ids.size())));
    }
    // Draw from a random-width window of the ids, so the distinct count
    // ranges from a handful to thousands.
    const size_t width = 1 + rng.Index(ids.size());
    const size_t lo = rng.Index(ids.size() - width + 1);
    const std::vector<ValueId> window(ids.begin() + lo,
                                      ids.begin() + lo + width);
    const size_t rows =
        trial % 2 == 0 ? rng.Index(3000) : 4096 + rng.Index(4096);
    Table t = RandomColumn(dict, window, rows, rng);
    (TakesDenseBranch(t) ? dense : sparse) += 1;
    EXPECT_EQ(SortedDistinctValues(t, 0), SortUniqueOracle(t, 0));
  }
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);
}

TEST(SortedDistinctValuesTest, ConcurrentCallersWhileTheDictionaryGrows) {
  auto dict = MakeDictionary();
  Rng rng(99);
  std::vector<ValueId> ids;
  for (size_t i = 0; i < 600; ++i) {
    ids.push_back(dict->Intern("w" + std::to_string(i)));
  }
  std::vector<Table> tables;
  tables.push_back(RandomColumn(dict, ids, 700, rng));   // sparse
  tables.push_back(RandomColumn(dict, ids, 5000, rng));  // dense
  ASSERT_FALSE(TakesDenseBranch(tables[0]));
  ASSERT_TRUE(TakesDenseBranch(tables[1]));
  std::vector<std::vector<ValueId>> want;
  for (const Table& t : tables) want.push_back(SortUniqueOracle(t, 0));

  // One writer interns values and mints labeled nulls (neither changes
  // what the existing cells are) while readers compute the sets.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (size_t i = 0; !stop.load(); ++i) {
      dict->Intern("x" + std::to_string(i));
      if (i % 8 == 0) dict->CreateLabeledNull();
    }
  });
  std::vector<std::thread> readers;
  std::atomic<size_t> mismatches{0};
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0; i < 20; ++i) {
        const size_t k = (r + i) % tables.size();
        if (SortedDistinctValues(tables[k], 0) != want[k]) ++mismatches;
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SortedContainsTest, Basics) {
  std::vector<ValueId> v{2, 4, 6};
  EXPECT_TRUE(SortedContains(v, 2));
  EXPECT_TRUE(SortedContains(v, 6));
  EXPECT_FALSE(SortedContains(v, 1));
  EXPECT_FALSE(SortedContains(v, 7));
  EXPECT_FALSE(SortedContains({}, 1));
}

// --- ColumnStatsCatalog vs. the legacy hash-set path -----------------------

// Reference overlap counts computed the pre-engine way: per-query hash
// sets probed against per-column hash sets.
std::unordered_map<ColumnRef, uint32_t, ColumnRefHash> HashOverlapCounts(
    const DataLake& lake, const std::unordered_set<ValueId>& query) {
  std::unordered_map<ColumnRef, uint32_t, ColumnRefHash> counts;
  for (size_t t = 0; t < lake.size(); ++t) {
    for (size_t c = 0; c < lake.table(t).num_cols(); ++c) {
      auto vals = DistinctColumnValues(lake.table(t), c);
      size_t n = SetIntersectionSize(vals, query);
      if (n > 0) {
        counts[ColumnRef{static_cast<uint32_t>(t),
                         static_cast<uint32_t>(c)}] =
            static_cast<uint32_t>(n);
      }
    }
  }
  return counts;
}

class CatalogParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bench = MakeTpTrBenchmark("parity", TpTrSmallConfig());
    ASSERT_TRUE(bench.ok()) << bench.status().ToString();
    bench_ = std::make_unique<TpTrBenchmark>(std::move(bench).value());
  }
  std::unique_ptr<TpTrBenchmark> bench_;
};

TEST_F(CatalogParityTest, SortedValuesMatchHashSetsOnBenchgenLake) {
  const DataLake& lake = *bench_->lake;
  ColumnStatsCatalog catalog(lake);
  ASSERT_GT(catalog.num_columns(), 0u);
  for (size_t t = 0; t < lake.size(); ++t) {
    for (size_t c = 0; c < lake.table(t).num_cols(); ++c) {
      ColumnRef ref{static_cast<uint32_t>(t), static_cast<uint32_t>(c)};
      const auto& sorted = catalog.SortedValues(ref);
      EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
      auto hashed = DistinctColumnValues(lake.table(t), c);
      EXPECT_EQ(sorted.size(), hashed.size());
      EXPECT_EQ(catalog.Cardinality(ref), hashed.size());
      for (ValueId v : sorted) EXPECT_EQ(hashed.count(v), 1u);
    }
  }
}

TEST_F(CatalogParityTest, OverlapCountsMatchHashSetPath) {
  const DataLake& lake = *bench_->lake;
  ColumnStatsCatalog catalog(lake);
  // Query with every source column of the benchmark's first few sources.
  size_t queries = 0;
  for (size_t s = 0; s < bench_->sources.size() && s < 4; ++s) {
    const Table& source = bench_->sources[s].source;
    for (size_t c = 0; c < source.num_cols(); ++c) {
      auto sorted_query = SortedDistinctValues(source, c);
      if (sorted_query.empty()) continue;
      ++queries;
      std::unordered_set<ValueId> hash_query(sorted_query.begin(),
                                             sorted_query.end());
      auto expected = HashOverlapCounts(lake, hash_query);
      auto got = catalog.OverlapCounts(sorted_query);
      ASSERT_EQ(got.size(), expected.size()) << "source " << s << " col " << c;
      for (const auto& overlap : got) {
        auto it = expected.find(overlap.ref);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(overlap.count, it->second);
      }
    }
  }
  EXPECT_GT(queries, 0u);
}

TEST_F(CatalogParityTest, OverlapResultsAreOrderedByDenseColumnId) {
  ColumnStatsCatalog catalog(*bench_->lake);
  auto query = SortedDistinctValues(bench_->sources[0].source, 0);
  ASSERT_FALSE(query.empty());
  auto got = catalog.OverlapCounts(query);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(catalog.ColumnIdOf(got[i - 1].ref),
              catalog.ColumnIdOf(got[i].ref));
  }
}

TEST_F(CatalogParityTest, TopKTablesMatchesAcrossCatalogBuilds) {
  ColumnStatsCatalog catalog(*bench_->lake);
  const ColumnStatsCatalog rebuilt(*bench_->lake);
  for (size_t s = 0; s < bench_->sources.size() && s < 4; ++s) {
    const Table& source = bench_->sources[s].source;
    EXPECT_EQ(catalog.TopKTables(source, 8), rebuilt.TopKTables(source, 8));
  }
}

TEST(ColumnStatsCatalogTest, DenseIdsRoundTrip) {
  DataLake lake;
  (void)lake.AddTable(TableBuilder(lake.dict(), "a")
                          .Columns({"x", "y"})
                          .Row({"1", "2"})
                          .Build());
  (void)lake.AddTable(
      TableBuilder(lake.dict(), "b").Columns({"z"}).Row({"3"}).Build());
  ColumnStatsCatalog catalog(lake);
  ASSERT_EQ(catalog.num_columns(), 3u);
  for (uint32_t id = 0; id < catalog.num_columns(); ++id) {
    EXPECT_EQ(catalog.ColumnIdOf(catalog.RefOf(id)), id);
  }
}

TEST(ColumnStatsCatalogTest, NullsNeverEnterPostings) {
  DataLake lake;
  // A column that is mostly null would otherwise produce a pathological
  // posting list for kNull dominating every overlap scan.
  (void)lake.AddTable(TableBuilder(lake.dict(), "sparse")
                          .Columns({"a"})
                          .Row({""})
                          .Row({""})
                          .Row({"v"})
                          .Build());
  ColumnStatsCatalog catalog(lake);
  ColumnRef ref{0, 0};
  EXPECT_EQ(catalog.Cardinality(ref), 1u);
  // Querying for null must find nothing.
  const std::vector<ValueId> null_query{kNull};
  EXPECT_TRUE(catalog.OverlapCounts(null_query).empty());
}

TEST(ColumnStatsCatalogTest, SharesAnyValueProbesTheWholeLake) {
  DataLake lake;
  (void)lake.AddTable(TableBuilder(lake.dict(), "a")
                          .Columns({"x", "y"})
                          .Row({"p", "q"})
                          .Build());
  (void)lake.AddTable(
      TableBuilder(lake.dict(), "b").Columns({"z"}).Row({"r"}).Build());
  ColumnStatsCatalog catalog(lake);
  auto sorted = [&](std::vector<std::string> strs) {
    std::vector<ValueId> ids;
    for (const auto& s : strs) ids.push_back(lake.dict()->Intern(s));
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  // A value from any table hits; any number of misses alone do not.
  EXPECT_TRUE(catalog.SharesAnyValue(sorted({"q"})));
  EXPECT_TRUE(catalog.SharesAnyValue(sorted({"r"})));
  EXPECT_TRUE(catalog.SharesAnyValue(sorted({"nope", "r", "also-nope"})));
  EXPECT_FALSE(catalog.SharesAnyValue(sorted({"nope", "also-nope"})));
  EXPECT_FALSE(catalog.SharesAnyValue({}));
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  // The pool is reusable after Wait().
  pool.Submit([&counter]() { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  // 0 = the machine's full hardware concurrency — no hidden cap (a
  // 32-core host must get 32 batch workers, not 8).
  size_t hw = std::thread::hardware_concurrency();
  if (hw > 0) EXPECT_EQ(ThreadPool::ResolveThreads(0), hw);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(threads, hits.size(),
                [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, GroupWaitIsScopedToItsOwnTasks) {
  // Wait(&group) must return once the group's tasks are done even while
  // unrelated tasks keep the pool busy — the property that decouples
  // ReclaimBatch waits from async admission traffic.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> group_done{0};
  pool.Submit([&release]() {  // untracked long-runner
    while (!release.load()) std::this_thread::yield();
  });
  ThreadPool::Group group;
  for (int i = 0; i < 8; ++i) {
    pool.Submit(&group, [&group_done]() { group_done.fetch_add(1); });
  }
  pool.Wait(&group);
  EXPECT_EQ(group_done.load(), 8);  // all group tasks done...
  release.store(true);              // ...while the long-runner still held
  pool.Wait();                      // a worker; pool-wide wait still works
}

}  // namespace
}  // namespace gent
