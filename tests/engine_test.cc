// Tests for the engine layer: ColumnStatsCatalog (merge-based overlap
// agreeing with the legacy hash-set path), ThreadPool, and the three
// parts a ReclaimService composes (ShardRegistry, AdmissionQueue,
// ShardMaintenance), each driven without a lake or a catalog.

#include "src/engine/column_stats_catalog.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchgen/benchmarks.h"
#include "src/engine/admission_queue.h"
#include "src/engine/shard_maintenance.h"
#include "src/engine/shard_registry.h"
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

// The dense (bitmap) branch runs when the ids of the scanned cells,
// nulls and labeled nulls aside, span at most 64 ids per cell; everything else (all-null scans
// aside, which return before branching) takes the sparse
// (dedup-then-sort) branch.
bool TakesDenseBranch(const Table& t,
                      const std::vector<uint32_t>* rows = nullptr) {
  std::vector<ValueId> cells;
  if (rows == nullptr) {
    cells = t.column(0);
  } else {
    for (uint32_t r : *rows) cells.push_back(t.cell(r, 0));
  }
  ValueId lo = ~ValueId{0}, hi = kNull;
  for (ValueId v : cells) {
    if (v == kNull || t.dict()->IsLabeledNull(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi != kNull && static_cast<size_t>(hi - lo) + 1 <= 64 * cells.size();
}

// `count` fresh ids with `gap` unused ids interned between neighbours,
// so a column drawn from them spans ~(gap + 1) ids per distinct value.
std::vector<ValueId> SpreadIds(const DictionaryPtr& dict,
                               const std::string& prefix, size_t count,
                               size_t gap) {
  std::vector<ValueId> ids;
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(dict->Intern(prefix + std::to_string(i)));
    for (size_t g = 0; g < gap; ++g) {
      dict->Intern(prefix + std::to_string(i) + "~" + std::to_string(g));
    }
  }
  return ids;
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

// The branch boundary itself: 8 cells spanning exactly 64 × 8 ids take
// the dense branch, one id more takes the sparse one, and both return
// the sorted distinct non-null ids. All-null and empty columns return
// nothing.
TEST(SortedDistinctValuesTest, BranchBoundaryAndAllNullColumns) {
  auto dict = MakeDictionary();
  std::vector<ValueId> ids;
  for (size_t i = 0; i < 64 * 8 + 1; ++i) {
    ids.push_back(dict->Intern("r" + std::to_string(i)));
  }
  for (size_t hi : {size_t{64 * 8 - 1}, size_t{64 * 8}}) {
    SCOPED_TRACE("hi " + std::to_string(hi));
    Table t("t", dict);
    ASSERT_TRUE(t.AddColumn("c").ok());
    for (ValueId v : {ids[hi], ids[7], kNull, ids[0], ids[hi], ids[300],
                      ids[7], ids[1]}) {
      t.AddRow({v});
    }
    EXPECT_EQ(TakesDenseBranch(t), hi < 64 * 8);
    EXPECT_EQ(SortedDistinctValues(t, 0),
              (std::vector<ValueId>{ids[0], ids[1], ids[7], ids[300],
                                    ids[hi]}));
  }
  Table nulls("nulls", dict);
  ASSERT_TRUE(nulls.AddColumn("c").ok());
  EXPECT_TRUE(SortedDistinctValues(nulls, 0).empty());
  nulls.AddRow({kNull});
  nulls.AddRow({kNull});
  EXPECT_TRUE(SortedDistinctValues(nulls, 0).empty());
}

TEST(SortedDistinctValuesTest, RandomizedMatchesSortUniqueOnBothBranches) {
  auto dict = MakeDictionary();
  Rng rng(4242);
  std::vector<ValueId> ids;
  size_t dense = 0, sparse = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // The dictionary grows between calls, sometimes with unused ids
    // between the drawn ones, so the id span per cell (which picks the
    // branch) differs from call to call.
    const size_t grow = 1 + rng.Index(400);
    const size_t gap = rng.Bernoulli(0.3) ? 64 : 0;
    const std::vector<ValueId> grown =
        SpreadIds(dict, "v" + std::to_string(trial) + "_", grow, gap);
    ids.insert(ids.end(), grown.begin(), grown.end());
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

// The row-subset form reads only the listed rows: it must equal the
// whole-column form on the sub-table those rows form, whichever branch
// each side takes (a dense column's subset may go sparse and back).
TEST(SortedDistinctValuesTest, RowSubsetMatchesGatheredSubTable) {
  auto dict = MakeDictionary();
  Rng rng(5150);
  const std::vector<ValueId> ids = SpreadIds(dict, "s", 3000, 10);
  size_t dense = 0, sparse = 0, full = 0, empty = 0;
  for (int trial = 0; trial < 48; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t width = 1 + rng.Index(ids.size());
    const std::vector<ValueId> window(ids.begin(), ids.begin() + width);
    const size_t n = trial % 2 == 0 ? rng.Index(3000) : 4096 + rng.Index(8192);
    Table t = RandomColumn(dict, window, n, rng);

    // Ascending subsets: every row, no row, or each row kept with a
    // trial-specific probability (high enough on the large columns to
    // keep the subset on the dense branch).
    std::vector<uint32_t> rows;
    const int shape = trial % 8;
    const double keep = shape == 2 ? 1.0 : shape == 3 ? 0.0
                        : shape < 2 ? 0.75 + 0.25 * rng.NextDouble()
                                    : rng.NextDouble();
    for (size_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(keep)) rows.push_back(static_cast<uint32_t>(r));
    }
    full += rows.size() == n;
    empty += rows.empty();
    if (!rows.empty()) (TakesDenseBranch(t, &rows) ? dense : sparse) += 1;

    Table sub("sub", dict);
    ASSERT_TRUE(sub.AddColumn("c").ok());
    for (uint32_t r : rows) sub.mutable_column(0).push_back(t.cell(r, 0));
    const std::vector<ValueId> got = SortedDistinctValues(t, 0, &rows);
    EXPECT_EQ(got, SortedDistinctValues(sub, 0));
    EXPECT_EQ(got, SortUniqueOracle(sub, 0));
  }
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_GT(empty, 0u);
}

TEST(SortedDistinctValuesTest, ConcurrentCallersWhileTheDictionaryGrows) {
  auto dict = MakeDictionary();
  Rng rng(99);
  const std::vector<ValueId> ids = SpreadIds(dict, "w", 600, 40);
  std::vector<Table> tables;
  tables.push_back(RandomColumn(dict, ids, 300, rng));   // sparse
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
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1)
          << "index " << i << (pool == nullptr ? " serial" : " pooled");
    }
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool four(4);
  ParallelFor(&four, 0, [](size_t) { FAIL() << "must not be called"; });
  ParallelFor(nullptr, 0, [](size_t) { FAIL() << "must not be called"; });
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

// --- Lake-less fixtures for the service parts -------------------------------

// How long a test waits for a callback before it reports a failure
// instead of hanging.
constexpr std::chrono::seconds kPatience(30);

// A one-shot gate: Wait() blocks until Open(), or returns false after
// kPatience.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, kPatience, [this]() { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// A shard handle with no lake and no catalog: the registry and the
// maintenance thread read only its name, uid, delta_gen, source_path
// and health cell.
std::shared_ptr<Shard> BareShard(const std::string& name,
                                 const std::string& source_path = "") {
  auto shard = std::make_shared<Shard>();
  shard->name = name;
  shard->source_path = source_path;
  shard->health = std::make_shared<ShardHealthCell>();
  return shard;
}

// --- ShardRegistry ----------------------------------------------------------

TEST(ShardRegistryTest, UidsAreNeverReused) {
  ShardRegistry registry;
  std::vector<uint64_t> uids;
  auto uid_of = [&](const std::string& name) {
    return registry.Find(name).value()->uid;
  };
  ASSERT_TRUE(registry.Add(BareShard("a")).ok());
  ASSERT_TRUE(registry.Add(BareShard("b")).ok());
  uids = {uid_of("a"), uid_of("b")};
  ASSERT_TRUE(registry.Remove("a").ok());
  ASSERT_TRUE(registry.Add(BareShard("a")).ok());  // re-added: new uid
  uids.push_back(uid_of("a"));
  ASSERT_TRUE(registry.Replace(BareShard("b"), nullptr).ok());  // reload
  uids.push_back(uid_of("b"));
  // A carried-forward generation keeps its registration's uid.
  auto old = registry.Find("b").value();
  ASSERT_TRUE(registry.CarryForward(BareShard("b"), *old, true).ok());
  EXPECT_EQ(uid_of("b"), old->uid);
  std::vector<uint64_t> sorted = uids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, uids) << "uids are handed out in increasing order";
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(uids.size(), 4u);
}

TEST(ShardRegistryTest, StaleReplaceIsRefused) {
  ShardRegistry registry;
  ASSERT_TRUE(registry.Add(BareShard("a")).ok());
  const std::shared_ptr<const Shard> gen0 = registry.Find("a").value();
  ASSERT_TRUE(registry.CarryForward(BareShard("a"), *gen0, true).ok());
  const std::shared_ptr<const Shard> gen1 = registry.Find("a").value();
  EXPECT_EQ(gen1->uid, gen0->uid);
  EXPECT_EQ(gen1->delta_gen, 1u);
  EXPECT_EQ(gen1->health, gen0->health) << "the cell carries forward";

  // (uid, delta_gen 0) is stale now: a replace or a carry from it fails.
  EXPECT_EQ(registry.Replace(BareShard("a"), gen0.get()).code(),
            StatusCode::kAborted);
  EXPECT_EQ(registry.CarryForward(BareShard("a"), *gen0, false).code(),
            StatusCode::kAborted);
  EXPECT_EQ(registry.Find("a").value(), gen1);

  // A fold keeps delta_gen; a recovery (uid 0) is a new registration.
  ASSERT_TRUE(registry.CarryForward(BareShard("a"), *gen1, false).ok());
  const std::shared_ptr<const Shard> folded = registry.Find("a").value();
  EXPECT_EQ(folded->uid, gen1->uid);
  EXPECT_EQ(folded->delta_gen, 1u);
  ASSERT_TRUE(registry.Replace(BareShard("a"), folded.get()).ok());
  const std::shared_ptr<const Shard> healed = registry.Find("a").value();
  EXPECT_GT(healed->uid, folded->uid);
  EXPECT_EQ(healed->delta_gen, 0u);
  EXPECT_NE(healed->health, folded->health);

  // A vanished name: Aborted against an expected generation, NotFound
  // without one.
  ASSERT_TRUE(registry.Remove("a").ok());
  EXPECT_EQ(registry.Replace(BareShard("a"), healed.get()).code(),
            StatusCode::kAborted);
  EXPECT_EQ(registry.Replace(BareShard("a"), nullptr).code(),
            StatusCode::kNotFound);
}

TEST(ShardRegistryTest, EpochAdvancesOncePerCommit) {
  ShardRegistry registry;
  EXPECT_EQ(registry.Pin()->epoch, 0u);
  ASSERT_TRUE(registry.Add(BareShard("a")).ok());
  EXPECT_EQ(registry.Pin()->epoch, 1u);
  // Refused mutations publish nothing.
  EXPECT_EQ(registry.Add(BareShard("a")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Add(BareShard("")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Remove("zzz").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Replace(BareShard("zzz"), nullptr).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Pin()->epoch, 1u);
  auto a = registry.Find("a").value();
  ASSERT_TRUE(registry.CarryForward(BareShard("a"), *a, true).ok());
  EXPECT_EQ(registry.Pin()->epoch, 2u);
  ASSERT_TRUE(registry.Replace(BareShard("a"), nullptr).ok());
  EXPECT_EQ(registry.Pin()->epoch, 3u);
  ASSERT_TRUE(registry.Remove("a").ok());
  EXPECT_EQ(registry.Pin()->epoch, 4u);
  EXPECT_TRUE(registry.Pin()->shards.empty());
}

TEST(ShardRegistryTest, PinnedSnapshotOutlivesRemove) {
  ShardRegistry registry;
  ASSERT_TRUE(registry.Add(BareShard("a")).ok());
  ASSERT_TRUE(registry.Add(BareShard("b")).ok());
  RegistryPtr pinned = registry.Pin();
  std::weak_ptr<const Shard> a = registry.Find("a").value();
  ASSERT_TRUE(registry.Remove("a").ok());
  EXPECT_FALSE(registry.Find("a").ok());
  // The pin still serves the removed shard, whole.
  ASSERT_EQ(pinned->shards.size(), 2u);
  EXPECT_EQ(pinned->shards[0]->name, "a");
  EXPECT_TRUE(ShardRegistry::Find(*pinned, "a").ok());
  EXPECT_FALSE(a.expired());
  pinned.reset();
  EXPECT_TRUE(a.expired()) << "the last pin releases the retired shard";
}

// --- AdmissionQueue ---------------------------------------------------------

// A stub runner over a one-worker pool. Each entry is identified by its
// request's max_rows. The runner records the order it runs entries in;
// the entry with id `blocker` signals `started` and then waits on
// `release`, so everything submitted after it stays queued.
class AdmissionQueueTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBlocker = 1000;

  std::unique_ptr<AdmissionQueue> MakeQueue(size_t capacity,
                                            AdmissionPolicy policy) {
    return std::make_unique<AdmissionQueue>(
        capacity, policy, &pool_,
        [this](const AdmissionQueue::Entry& entry,
               const std::atomic<bool>* cancel) -> Result<ReclamationResult> {
          const uint64_t id = entry.request.max_rows;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ran_.push_back(id);
          }
          if (id == kBlocker) {
            started_.Open();
            (void)release_.Wait();
          }
          if (id == mid_flight_id_) {
            mid_flight_started_.Open();
            while (!cancel->load()) std::this_thread::yield();
            // A result completed after Cancel(): Publish must discard it.
          }
          if (id % 2 == 1) return Status::Internal("odd ids fail");
          return ReclamationResult(Table("r", nullptr));
        });
  }

  static AdmissionQueue::Entry Request(uint64_t id, RequestPriority priority,
                                       double deadline_seconds = 0) {
    AdmissionQueue::Entry entry;
    entry.request.max_rows = id;
    entry.request.priority = priority;
    entry.request.deadline_seconds = deadline_seconds;
    entry.submitted = std::chrono::steady_clock::now();
    return entry;
  }

  // Submits the blocker and waits until it occupies the worker.
  ReclaimTicket Block(AdmissionQueue& queue) {
    ReclaimTicket ticket =
        queue.Submit(Request(kBlocker, RequestPriority::kHigh)).value();
    EXPECT_TRUE(started_.Wait());
    return ticket;
  }

  std::vector<uint64_t> Ran() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ran_;
  }

  ThreadPool pool_{1};  // declared first: outlives every queue
  Gate started_;
  Gate release_;
  Gate mid_flight_started_;
  uint64_t mid_flight_id_ = 0;
  std::mutex mutex_;
  std::vector<uint64_t> ran_;
};

TEST_F(AdmissionQueueTest, HighestClassFirstFifoWithinAClass) {
  auto queue = MakeQueue(0, AdmissionPolicy::kBlock);
  std::vector<ReclaimTicket> tickets;
  tickets.push_back(Block(*queue));
  const std::vector<std::pair<uint64_t, RequestPriority>> order = {
      {10, RequestPriority::kBatch},  {20, RequestPriority::kNormal},
      {30, RequestPriority::kHigh},   {12, RequestPriority::kBatch},
      {22, RequestPriority::kNormal}, {32, RequestPriority::kHigh}};
  for (const auto& [id, priority] : order) {
    tickets.push_back(queue->Submit(Request(id, priority)).value());
  }
  AdmissionQueue::Stats stats = queue->stats();
  EXPECT_EQ(stats.queued, 6u);
  EXPECT_EQ(stats.queue_depth[0], 2u);
  EXPECT_EQ(stats.queue_depth[1], 2u);
  EXPECT_EQ(stats.queue_depth[2], 2u);
  release_.Open();
  for (const ReclaimTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
  EXPECT_EQ(Ran(),
            (std::vector<uint64_t>{kBlocker, 30, 32, 20, 22, 10, 12}));
  EXPECT_EQ(queue->stats().queued, 0u);
}

TEST_F(AdmissionQueueTest, ShedsTheOldestOfTheLowestClassAtOrBelow) {
  auto queue = MakeQueue(3, AdmissionPolicy::kShedOldest);
  auto submit = [&](uint64_t id, RequestPriority priority) {
    return queue->Submit(Request(id, priority));
  };
  ReclaimTicket blocker = Block(*queue);
  ReclaimTicket n1 = submit(40, RequestPriority::kNormal).value();
  ReclaimTicket b1 = submit(50, RequestPriority::kBatch).value();
  ReclaimTicket b2 = submit(52, RequestPriority::kBatch).value();
  // Full. A kNormal newcomer sheds the oldest kBatch entry...
  ReclaimTicket n2 = submit(42, RequestPriority::kNormal).value();
  ASSERT_TRUE(b1.ready());
  EXPECT_EQ(b1.Wait().status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(b2.ready());
  // ...a kHigh one the next...
  ReclaimTicket h1 = submit(60, RequestPriority::kHigh).value();
  EXPECT_EQ(b2.Wait().status().code(), StatusCode::kResourceExhausted);
  // ...and a kBatch newcomer finds only work that outranks it: it is
  // rejected itself, and nothing queued is shed.
  EXPECT_EQ(submit(54, RequestPriority::kBatch).status().code(),
            StatusCode::kResourceExhausted);
  // A kNormal newcomer sheds within its own class: the oldest, n1.
  ReclaimTicket n3 = submit(44, RequestPriority::kNormal).value();
  EXPECT_EQ(n1.Wait().status().code(), StatusCode::kResourceExhausted);

  AdmissionQueue::Stats stats = queue->stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queued, 3u);
  EXPECT_EQ(stats.capacity, 3u);
  release_.Open();
  for (ReclaimTicket* t : {&blocker, &n2, &h1, &n3}) {
    EXPECT_TRUE(t->Wait().ok());
  }
  EXPECT_EQ(Ran(), (std::vector<uint64_t>{kBlocker, 60, 42, 44}));
}

TEST_F(AdmissionQueueTest, DeadOnArrivalAndPreStartCancelNeverRun) {
  auto queue = MakeQueue(0, AdmissionPolicy::kBlock);
  ReclaimTicket blocker = Block(*queue);
  ReclaimTicket doa =
      queue->Submit(Request(70, RequestPriority::kNormal, 0.001)).value();
  ReclaimTicket cancelled =
      queue->Submit(Request(72, RequestPriority::kNormal)).value();
  ReclaimTicket kept =
      queue->Submit(Request(74, RequestPriority::kNormal, 60)).value();
  EXPECT_TRUE(cancelled.Cancel());
  EXPECT_TRUE(cancelled.Cancel()) << "idempotent";
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release_.Open();
  EXPECT_EQ(doa.Wait().status().code(), StatusCode::kTimeout);
  EXPECT_EQ(cancelled.Wait().status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(kept.Wait().ok());
  EXPECT_FALSE(kept.Cancel()) << "too late once published";
  EXPECT_EQ(Ran(), (std::vector<uint64_t>{kBlocker, 74}));
  AdmissionQueue::Stats stats = queue->stats();
  EXPECT_EQ(stats.deadline_expired_in_queue, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.cancelled_mid_flight, 0u);
}

TEST_F(AdmissionQueueTest, MidFlightCancelDiscardsTheResult) {
  auto queue = MakeQueue(0, AdmissionPolicy::kBlock);
  mid_flight_id_ = 80;
  ReclaimTicket ticket =
      queue->Submit(Request(80, RequestPriority::kNormal)).value();
  ASSERT_TRUE(mid_flight_started_.Wait());
  EXPECT_FALSE(ticket.ready());
  EXPECT_TRUE(ticket.Cancel());
  // The runner returns a completed result after the cancel; the ticket
  // still resolves Cancelled.
  EXPECT_EQ(ticket.Wait().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queue->stats().cancelled_mid_flight, 1u);
  EXPECT_EQ(queue->stats().cancelled, 0u);
}

TEST_F(AdmissionQueueTest, CountersReconcile) {
  // submitted = ok + failed + shed + dead-on-arrival + cancelled +
  // in-flight, where in-flight is queued plus running, and ok/failed
  // are read off the resolved tickets (the queue does not count them).
  auto queue = MakeQueue(4, AdmissionPolicy::kShedOldest);
  std::vector<ReclaimTicket> tickets;
  tickets.push_back(Block(*queue));
  uint64_t submitted = 1;
  const RequestPriority classes[] = {RequestPriority::kBatch,
                                     RequestPriority::kNormal,
                                     RequestPriority::kHigh};
  for (uint64_t id = 100; id < 112; ++id) {
    const double deadline = id % 5 == 0 ? 0.001 : 0;
    auto ticket = queue->Submit(Request(id, classes[id % 3], deadline));
    if (!ticket.ok()) continue;  // rejected: never admitted
    ++submitted;
    if (id % 7 == 0) ticket->Cancel();
    tickets.push_back(std::move(ticket).value());
  }
  auto reconcile = [&](uint64_t running) {
    uint64_t ok = 0, failed = 0;
    for (const ReclaimTicket& t : tickets) {
      if (!t.ready()) continue;
      const Status& st = t.Wait().status();
      if (st.ok()) {
        ++ok;
      } else if (st.code() == StatusCode::kInternal) {
        ++failed;
      }
    }
    const AdmissionQueue::Stats stats = queue->stats();
    EXPECT_EQ(submitted, ok + failed + stats.shed +
                             stats.deadline_expired_in_queue +
                             stats.cancelled + stats.cancelled_mid_flight +
                             stats.queued + running);
  };
  reconcile(/*running=*/1);  // the blocker holds the worker
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release_.Open();
  for (const ReclaimTicket& t : tickets) t.Wait();
  reconcile(/*running=*/0);
  EXPECT_GT(queue->stats().shed, 0u);
  EXPECT_GT(queue->stats().rejected, 0u);
}

// --- ShardMaintenance -------------------------------------------------------

// Records the order of its callbacks; the first fold blocks on `gate`.
class ShardMaintenanceTest : public ::testing::Test {
 protected:
  ShardMaintenanceTest() {
    options_.backoff_initial_seconds = 0;  // a quarantine is due at once
  }

  std::unique_ptr<ShardMaintenance> Make() {
    return std::make_unique<ShardMaintenance>(
        options_, registry_,
        [this](const Shard& old) -> Result<std::shared_ptr<Shard>> {
          Log("recover:" + old.name);
          if (fail_recovery_) return Status::IOError("still broken");
          return BareShard(old.name, old.source_path);
        },
        [this](const std::string& name) {
          if (Log("compact:" + name) == 1) {
            fold_started_.Open();
            (void)gate_.Wait();
          }
        });
  }

  // Appends to the log; returns the entry count.
  size_t Log(const std::string& entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    log_.push_back(entry);
    logged_.notify_all();
    return log_.size();
  }
  bool WaitForLog(size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return logged_.wait_for(lock, kPatience,
                            [&]() { return log_.size() >= n; });
  }
  std::vector<std::string> LogCopy() {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

  ShardHealthOptions options_;
  ShardRegistry registry_;
  std::atomic<bool> fail_recovery_{false};
  Gate fold_started_;
  Gate gate_;
  std::mutex mutex_;
  std::condition_variable logged_;
  std::vector<std::string> log_;
};

TEST_F(ShardMaintenanceTest, QueuedFoldsDrainBeforeRecovery) {
  ASSERT_TRUE(registry_.Add(BareShard("q", "q.snap")).ok());
  const std::shared_ptr<const Shard> old = registry_.Find("q").value();
  auto maintenance = Make();
  maintenance->QueueCompaction("a");
  ASSERT_TRUE(fold_started_.Wait());
  // With a fold running, a quarantine that is due at once and a second
  // fold arrive: the fold still goes first.
  maintenance->NoteShardFault(*old, "bad block");
  maintenance->NoteShardFault(*old, "bad block again");
  maintenance->QueueCompaction("b");
  ASSERT_EQ(maintenance->Stats()[0].state, ShardHealth::kQuarantined);
  gate_.Open();
  EXPECT_TRUE(WaitForLog(3));
  maintenance->Stop();
  EXPECT_EQ(LogCopy(), (std::vector<std::string>{"compact:a", "compact:b",
                                                 "recover:q"}));
  // The healed shard is a new registration carrying the fault history.
  const std::shared_ptr<const Shard> healed = registry_.Find("q").value();
  EXPECT_NE(healed->uid, old->uid);
  const std::vector<ShardHealthStats> stats = maintenance->Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].state, ShardHealth::kHealthy);
  EXPECT_EQ(stats[0].error_count, 2u);
  EXPECT_EQ(stats[0].recoveries, 1u);
  EXPECT_EQ(stats[0].last_error, "bad block again");
}

TEST_F(ShardMaintenanceTest, FailedRecoveryKeepsRetryingWithBackoff) {
  options_.backoff_initial_seconds = 0.001;
  fail_recovery_ = true;
  ASSERT_TRUE(registry_.Add(BareShard("disk", "disk.snap")).ok());
  const std::shared_ptr<const Shard> old = registry_.Find("disk").value();
  auto maintenance = Make();
  maintenance->NoteShardFault(*old, "torn footer");
  EXPECT_TRUE(WaitForLog(3));
  maintenance->Stop();
  const std::vector<ShardHealthStats> stats = maintenance->Stats();
  EXPECT_EQ(stats[0].state, ShardHealth::kQuarantined);
  EXPECT_EQ(stats[0].uid, old->uid) << "a failed attempt publishes nothing";
  EXPECT_GE(stats[0].recovery_attempts, 3u);
  EXPECT_EQ(stats[0].last_error, "still broken");
  EXPECT_GE(stats[0].next_retry_in_seconds, 0);
}

TEST_F(ShardMaintenanceTest, ShardWithoutASnapshotStopsRetrying) {
  ASSERT_TRUE(registry_.Add(BareShard("ram")).ok());
  auto maintenance = Make();
  maintenance->NoteShardFault(*registry_.Find("ram").value(), "lost");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (maintenance->Stats()[0].next_retry_in_seconds != -1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  const ShardHealthStats stats = maintenance->Stats()[0];
  EXPECT_EQ(stats.state, ShardHealth::kQuarantined);
  EXPECT_EQ(stats.next_retry_in_seconds, -1);
  EXPECT_NE(stats.last_error.find("not snapshot-backed"), std::string::npos);
  EXPECT_TRUE(LogCopy().empty()) << "no recover callback without a file";
}

TEST(ShardMaintenanceBackoffTest, DeterministicPerUidAndAttempt) {
  ShardHealthOptions o;
  o.backoff_initial_seconds = 0.5;
  o.backoff_max_seconds = 30;
  for (uint64_t uid = 1; uid < 50; ++uid) {
    for (uint64_t attempt = 0; attempt < 12; ++attempt) {
      const double d = ShardMaintenance::BackoffSeconds(o, uid, attempt);
      EXPECT_EQ(d, ShardMaintenance::BackoffSeconds(o, uid, attempt));
      const double base = std::min(0.5 * std::pow(2.0, attempt), 30.0);
      EXPECT_GE(d, 0.75 * base);
      EXPECT_LE(d, 1.25 * base);
    }
  }
  // Distinct per shard: one event's quarantines do not retry in lockstep.
  EXPECT_NE(ShardMaintenance::BackoffSeconds(o, 1, 0),
            ShardMaintenance::BackoffSeconds(o, 2, 0));
  o.backoff_initial_seconds = 0;
  EXPECT_EQ(ShardMaintenance::BackoffSeconds(o, 7, 3), 0.0);
}

TEST_F(ShardMaintenanceTest, StopJoinsTheThreadWhileACallbackIsBlocked) {
  auto maintenance = Make();
  maintenance->QueueCompaction("a");
  ASSERT_TRUE(fold_started_.Wait());
  maintenance->QueueCompaction("b");
  std::atomic<bool> stopped{false};
  std::thread stopper([&]() {
    maintenance->Stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load()) << "Stop waits for the running callback";
  gate_.Open();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_EQ(LogCopy(), (std::vector<std::string>{"compact:a"}))
      << "no callback starts after Stop";
  maintenance.reset();  // a second stop (the destructor) is a no-op
}

}  // namespace
}  // namespace gent
