// Tests for the resident multi-lake ReclaimService (src/engine/
// reclaim_service) and its discovery cache, plus regression tests for
// the I/O edge cases a resident service depends on: CSV bare-CR
// handling and snapshot close/trailing-garbage detection.

#include "src/engine/reclaim_service.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "answer_checks.h"
#include "src/lake/snapshot.h"
#include "src/storage/io.h"
#include "src/metrics/similarity.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "tests/snapshot_fixtures.h"

namespace gent {
namespace {

using testing::AnswerBytes;
using testing::ExpectSameReclamation;
using testing::SameAnswer;
using testing::SameOutcome;

// --- Fixture: vertical fragments spread over two lake shards ---------------
//
// Each source k,a,b splits into frag_a (k,a) and frag_b (k,b). In the
// "split" fixture the a-fragments live in shard "alpha" and the
// b-fragments in shard "beta", so full reclamation requires cross-shard
// fan-out; in the "paired" fixture each shard holds complete fragment
// pairs for its own sources, so named-lake routing suffices.

struct ServiceFixture {
  DictionaryPtr dict = MakeDictionary();
  std::unique_ptr<DataLake> alpha;
  std::unique_ptr<DataLake> beta;
  std::vector<Table> sources;
};

std::vector<std::vector<std::string>> SourceRows(size_t s) {
  const std::string tag = "s" + std::to_string(s) + "_";
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < 10; ++r) {
    rows.push_back({tag + "k" + std::to_string(r),
                    tag + "a" + std::to_string(r),
                    tag + "b" + std::to_string(r)});
  }
  return rows;
}

Table MakeSource(const DictionaryPtr& dict, size_t s) {
  TableBuilder sb(dict, "source" + std::to_string(s));
  sb.Columns({"k", "a", "b"});
  for (const auto& row : SourceRows(s)) sb.Row(row);
  return sb.Key({"k"}).Build();
}

void AddFragments(DataLake& lake, const DictionaryPtr& dict, size_t s,
                  bool frag_a, bool frag_b) {
  const std::string tag = "s" + std::to_string(s) + "_";
  const auto rows = SourceRows(s);
  if (frag_a) {
    TableBuilder f(dict, tag + "frag_a");
    f.Columns({"k", "a"});
    for (const auto& row : rows) f.Row({row[0], row[1]});
    ASSERT_TRUE(lake.AddTable(f.Build()).ok());
  }
  if (frag_b) {
    TableBuilder f(dict, tag + "frag_b");
    f.Columns({"k", "b"});
    for (const auto& row : rows) f.Row({row[0], row[2]});
    ASSERT_TRUE(lake.AddTable(f.Build()).ok());
  }
}

// Shard "alpha" serves sources [0, n/2) completely, "beta" the rest.
ServiceFixture MakePairedFixture(size_t n_sources) {
  ServiceFixture fx;
  fx.alpha = std::make_unique<DataLake>(fx.dict);
  fx.beta = std::make_unique<DataLake>(fx.dict);
  for (size_t s = 0; s < n_sources; ++s) {
    fx.sources.push_back(MakeSource(fx.dict, s));
    DataLake& lake = s < n_sources / 2 ? *fx.alpha : *fx.beta;
    AddFragments(lake, fx.dict, s, true, true);
  }
  return fx;
}

// Every source's a-fragment is in "alpha", b-fragment in "beta":
// reclamation needs candidates from both shards.
ServiceFixture MakeSplitFixture(size_t n_sources) {
  ServiceFixture fx;
  fx.alpha = std::make_unique<DataLake>(fx.dict);
  fx.beta = std::make_unique<DataLake>(fx.dict);
  for (size_t s = 0; s < n_sources; ++s) {
    fx.sources.push_back(MakeSource(fx.dict, s));
    AddFragments(*fx.alpha, fx.dict, s, true, false);
    AddFragments(*fx.beta, fx.dict, s, false, true);
  }
  return fx;
}

std::unique_ptr<ReclaimService> MakeService(const ServiceFixture& fx,
                                            size_t cache_capacity = 256,
                                            size_t num_threads = 0) {
  ServiceOptions options;
  options.dict = fx.dict;
  options.cache_capacity = cache_capacity;
  options.num_threads = num_threads;
  auto service = std::make_unique<ReclaimService>(std::move(options));
  EXPECT_TRUE(service->AddLakeView("alpha", *fx.alpha).ok());
  EXPECT_TRUE(service->AddLakeView("beta", *fx.beta).ok());
  return service;
}

// Cross-dictionary comparison (ids are not comparable; strings are).
void ExpectSameCells(const Table& a, const Table& b,
                     const std::string& context) {
  ASSERT_EQ(a.column_names(), b.column_names()) << context;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.CellString(r, c), b.CellString(r, c))
          << context << " (" << r << "," << c << ")";
    }
  }
}

// --- Routing parity with per-lake serial GenT -------------------------------

TEST(ReclaimServiceTest, RoutedReclaimBitIdenticalToSerialGenTPerLake) {
  ServiceFixture fx = MakePairedFixture(8);
  auto service = MakeService(fx);

  // The references: one plain GenT per lake, serial Reclaim calls.
  GenT alpha(*fx.alpha), beta(*fx.beta);
  for (size_t s = 0; s < fx.sources.size(); ++s) {
    const bool in_alpha = s < fx.sources.size() / 2;
    ReclaimRequest request;
    request.lake = in_alpha ? "alpha" : "beta";
    auto got = service->Reclaim(fx.sources[s], request);
    auto want = (in_alpha ? alpha : beta).Reclaim(fx.sources[s]);
    ExpectSameReclamation(got, want, "source " + std::to_string(s));
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(EisScore(fx.sources[s], got->reclaimed).value(), 1.0);
  }
}

TEST(ReclaimServiceTest, FanOutReclaimsSourcesSplitAcrossShards) {
  ServiceFixture fx = MakeSplitFixture(4);
  auto service = MakeService(fx);

  for (size_t s = 0; s < fx.sources.size(); ++s) {
    // Either shard alone holds half the columns...
    ReclaimRequest alpha_only;
    alpha_only.lake = "alpha";
    auto partial = service->Reclaim(fx.sources[s], alpha_only);
    ASSERT_TRUE(partial.ok());
    EXPECT_LT(EisScore(fx.sources[s], partial->reclaimed).value(), 1.0);

    // ...while the fan-out merges candidates from both and reclaims
    // perfectly.
    auto full = service->Reclaim(fx.sources[s]);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_DOUBLE_EQ(EisScore(fx.sources[s], full->reclaimed).value(), 1.0);
    EXPECT_EQ(full->originating_names.size(), 2u);
  }
}

TEST(ReclaimServiceTest, BatchBitIdenticalToSerialReclaimCalls) {
  ServiceFixture fx = MakeSplitFixture(6);
  auto service = MakeService(fx, /*cache_capacity=*/256, /*num_threads=*/4);

  std::vector<Result<ReclamationResult>> serial;
  for (const Table& source : fx.sources) {
    serial.push_back(service->Reclaim(source));
  }
  // The serial pass warmed the cache; the batch must not care (hits
  // replay what discovery would produce).
  auto batch = service->ReclaimBatch(fx.sources);
  ASSERT_EQ(batch.size(), serial.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameReclamation(batch[i], serial[i], "source " + std::to_string(i));
  }
}

// --- Cache behavior ----------------------------------------------------------

TEST(ReclaimServiceTest, CacheHitBitIdenticalToColdAndBypassedPaths) {
  ServiceFixture fx = MakePairedFixture(4);
  auto service = MakeService(fx);

  ReclaimRequest request;
  request.lake = "alpha";
  auto cold = service->Reclaim(fx.sources[0], request);
  auto stats = service->cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  auto warm = service->Reclaim(fx.sources[0], request);
  stats = service->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  request.bypass_cache = true;
  auto bypassed = service->Reclaim(fx.sources[0], request);
  EXPECT_EQ(service->cache_stats().hits, 1u);  // bypass never touches it

  ExpectSameReclamation(warm, cold, "warm vs cold");
  ExpectSameReclamation(bypassed, cold, "bypassed vs cold");
}

TEST(ReclaimServiceTest, CacheKeyDiscriminatesRouteContentAndConfig) {
  ServiceFixture fx = MakePairedFixture(4);
  auto service = MakeService(fx);

  // Same source, different shard: no cross-shard hit.
  ReclaimRequest to_alpha, to_beta;
  to_alpha.lake = "alpha";
  to_beta.lake = "beta";
  (void)service->Reclaim(fx.sources[0], to_alpha);
  (void)service->Reclaim(fx.sources[0], to_beta);
  EXPECT_EQ(service->cache_stats().hits, 0u);
  EXPECT_EQ(service->cache_stats().misses, 2u);

  // Same schema and distinct value sets, different row pairing: the
  // fingerprint must see full columns, not just distinct sets.
  Table reordered = fx.sources[0].Clone();
  ASSERT_GE(reordered.num_rows(), 2u);
  for (size_t c = 1; c < reordered.num_cols(); ++c) {
    std::swap(reordered.mutable_column(c)[0], reordered.mutable_column(c)[1]);
  }
  (void)service->Reclaim(reordered, to_alpha);
  EXPECT_EQ(service->cache_stats().misses, 3u);

  // Leave-one-out toggles the discovery config per source: also a miss.
  ReclaimRequest loo = to_alpha;
  loo.exclude_source_name = true;
  (void)service->Reclaim(fx.sources[0], loo);
  EXPECT_EQ(service->cache_stats().misses, 4u);

  // A different row budget shapes expansion deterministically, so it
  // keys the cache too.
  ReclaimRequest budgeted = to_alpha;
  budgeted.max_rows = 1000;
  (void)service->Reclaim(fx.sources[0], budgeted);
  EXPECT_EQ(service->cache_stats().misses, 5u);

  // And the original request still hits.
  (void)service->Reclaim(fx.sources[0], to_alpha);
  EXPECT_EQ(service->cache_stats().hits, 1u);
}

TEST(ReclaimServiceTest, CacheIsBoundedAndEvictsLru) {
  ServiceFixture fx = MakePairedFixture(8);
  auto service = MakeService(fx, /*cache_capacity=*/2);

  ReclaimRequest request;
  request.lake = "alpha";
  auto baseline = service->Reclaim(fx.sources[0], request);
  (void)service->Reclaim(fx.sources[1], request);
  (void)service->Reclaim(fx.sources[2], request);  // evicts source0's entry
  auto stats = service->cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GE(stats.evictions, 1u);

  // Evicted entries re-discover and still agree.
  auto rediscovered = service->Reclaim(fx.sources[0], request);
  ExpectSameReclamation(rediscovered, baseline, "after eviction");
}

TEST(ReclaimServiceTest, DeadlineRequestsNeverPopulateTheCache) {
  ServiceFixture fx = MakePairedFixture(4);
  auto service = MakeService(fx);

  // A deadline can truncate expansion silently (dropped join paths, no
  // error); caching that set under the deadline-free key would poison
  // untimed requests. Timed requests read the cache but never write it.
  ReclaimRequest timed;
  timed.lake = "alpha";
  timed.timeout_seconds = 30.0;  // generous: this request won't time out
  (void)service->Reclaim(fx.sources[0], timed);
  EXPECT_EQ(service->cache_stats().entries, 0u);

  // An untimed request populates; the timed one then hits it.
  ReclaimRequest untimed;
  untimed.lake = "alpha";
  auto cold = service->Reclaim(fx.sources[0], untimed);
  EXPECT_EQ(service->cache_stats().entries, 1u);
  auto warm_timed = service->Reclaim(fx.sources[0], timed);
  EXPECT_EQ(service->cache_stats().hits, 1u);
  ExpectSameReclamation(warm_timed, cold, "timed hit vs untimed cold");
}

TEST(ReclaimServiceTest, HugeAndInfiniteBudgetsResolveOk) {
  // timeout_seconds = 1e10 (~317 years) and deadline_seconds = inf are
  // past the steady clock's range: they must mean "no deadline", on the
  // synchronous and the async path alike, never a deadline already
  // passed.
  ServiceFixture fx = MakePairedFixture(4);
  auto service = MakeService(fx, /*cache_capacity=*/0, /*num_threads=*/2);
  ReclaimRequest untimed;
  untimed.lake = "alpha";
  auto want = service->Reclaim(fx.sources[0], untimed);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ReclaimRequest huge = untimed;
  huge.timeout_seconds = 1e10;
  ReclaimRequest infinite = untimed;
  infinite.deadline_seconds = std::numeric_limits<double>::infinity();
  for (const ReclaimRequest& request : {huge, infinite}) {
    ExpectSameReclamation(service->Reclaim(fx.sources[0], request), want,
                          "sync");
    auto ticket = service->SubmitReclaim(fx.sources[0].Clone(), request);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    ExpectSameReclamation(ticket->Wait(), want, "async");
  }
}

TEST(ReclaimServiceTest, DisabledCacheStillServes) {
  ServiceFixture fx = MakePairedFixture(4);
  auto with_cache = MakeService(fx, /*cache_capacity=*/256);
  auto no_cache = MakeService(fx, /*cache_capacity=*/0);

  ReclaimRequest request;
  request.lake = "beta";
  auto a = with_cache->Reclaim(fx.sources[3], request);
  auto b = no_cache->Reclaim(fx.sources[3], request);
  ExpectSameReclamation(a, b, "cache on vs off");
  EXPECT_EQ(no_cache->cache_stats().entries, 0u);
  EXPECT_EQ(no_cache->cache_stats().capacity, 0u);
}

// --- The cached unit is the answer ------------------------------------------

TEST(ReclaimServiceTest, CacheHitEqualsBypassOnEveryFieldAcrossRoutes) {
  ServiceFixture fx = MakeSplitFixture(4);
  auto service = MakeService(fx, /*cache_capacity=*/256, /*num_threads=*/2);

  ReclaimRequest named;
  named.lake = "alpha";
  ReclaimRequest fan_out;  // empty lake: every shard
  for (const ReclaimRequest& route : {named, fan_out}) {
    for (size_t s = 0; s < fx.sources.size(); ++s) {
      const std::string ctx =
          (route.lake.empty() ? "fan-out " : "named ") + std::to_string(s);
      ReclaimRequest bypass = route;
      bypass.bypass_cache = true;
      auto want = service->Reclaim(fx.sources[s], bypass);
      ASSERT_TRUE(want.ok()) << ctx << ": " << want.status().ToString();
      EXPECT_FALSE(want->cache_hit) << ctx;

      const auto before = service->cache_stats();
      auto miss = service->Reclaim(fx.sources[s], route);
      ASSERT_TRUE(miss.ok()) << ctx;
      EXPECT_FALSE(miss->cache_hit) << ctx;
      EXPECT_EQ(service->cache_stats().misses, before.misses + 1) << ctx;

      auto hit = service->Reclaim(fx.sources[s], route);
      ASSERT_TRUE(hit.ok()) << ctx;
      EXPECT_TRUE(hit->cache_hit) << ctx;
      EXPECT_EQ(service->cache_stats().hits, before.hits + 1) << ctx;
      // A hit runs no traversal and no integration.
      EXPECT_EQ(hit->traversal_seconds, 0.0) << ctx;
      EXPECT_EQ(hit->integration_seconds, 0.0) << ctx;
      EXPECT_GE(hit->discovery_seconds, 0.0) << ctx;

      auto ticket = service->SubmitReclaim(fx.sources[s].Clone(), route);
      ASSERT_TRUE(ticket.ok()) << ctx;
      const auto& async_hit = ticket->Wait();
      ASSERT_TRUE(async_hit.ok()) << ctx;
      EXPECT_TRUE(async_hit->cache_hit) << ctx;

      EXPECT_TRUE(SameAnswer(*miss, *want)) << ctx << " (miss)";
      EXPECT_TRUE(SameAnswer(*hit, *want)) << ctx << " (hit)";
      EXPECT_TRUE(SameAnswer(*async_hit, *want)) << ctx << " (async hit)";
    }
  }

  // A batch that repeats a source, on a cold cache: whichever worker
  // runs first misses, later ones may hit; every answer is the bypass
  // answer, and exactly the hits carry cache_hit.
  auto fresh = MakeService(fx, /*cache_capacity=*/256, /*num_threads=*/4);
  const std::vector<size_t> order = {0, 1, 0, 2, 0, 1};
  std::vector<Table> batch_sources;
  for (size_t s : order) batch_sources.push_back(fx.sources[s].Clone());
  for (int pass = 0; pass < 2; ++pass) {
    const auto before = fresh->cache_stats();
    auto batch = fresh->ReclaimBatch(batch_sources);
    ASSERT_EQ(batch.size(), order.size());
    uint64_t flagged = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      ReclaimRequest bypass;
      bypass.bypass_cache = true;
      auto want = fresh->Reclaim(fx.sources[order[i]], bypass);
      ASSERT_TRUE(batch[i].ok()) << "batch " << i;
      EXPECT_TRUE(SameAnswer(*batch[i], *want)) << "batch " << i;
      if (batch[i]->cache_hit) ++flagged;
    }
    EXPECT_EQ(flagged, fresh->cache_stats().hits - before.hits);
    // The second pass finds every source cached.
    if (pass == 1) EXPECT_EQ(flagged, order.size());
  }
}

TEST(ReclaimServiceTest, CacheHitsAreIndependentCopies) {
  ServiceFixture fx = MakeSplitFixture(2);
  auto service = MakeService(fx);

  ReclaimRequest bypass;
  bypass.bypass_cache = true;
  auto want = service->Reclaim(fx.sources[0], bypass);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->originating.empty());
  ASSERT_GT(want->reclaimed.num_rows(), 0u);

  const ValueId foreign = fx.dict->Intern("not in any answer");
  auto scribble = [&](ReclamationResult& r) {
    r.reclaimed.set_cell(0, 0, foreign);
    r.reclaimed.set_name("scribbled");
    for (Table& t : r.originating) {
      if (t.num_rows() > 0) t.set_cell(0, 0, foreign);
      t.set_name("scribbled");
    }
    r.originating.pop_back();
    r.originating_names.push_back("scribbled");
    r.predicted_eis = -1.0;
  };

  // The populating miss hands its result to the caller: mutating it
  // must not reach the cache.
  auto miss = service->Reclaim(fx.sources[0]);
  ASSERT_TRUE(miss.ok());
  ASSERT_FALSE(miss->cache_hit);
  scribble(*miss);

  for (int round = 0; round < 3; ++round) {
    auto hit = service->Reclaim(fx.sources[0]);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(hit->cache_hit);
    EXPECT_TRUE(SameAnswer(*hit, *want)) << "round " << round;
    scribble(*hit);  // nor may mutating a hit reach the next one
  }
}

TEST(ReclaimServiceTest, FailedPipelineLeavesTheCacheUnchanged) {
  ServiceFixture fx = MakeSplitFixture(2);
  auto service = MakeService(fx);

  // Fan-out expands each source to its two 10-row fragments within a
  // 15-row budget, then integration's outer union of them (20 rows)
  // trips it: a deterministic error after every earlier stage ran.
  ReclaimRequest tight;
  tight.max_rows = 15;
  for (int round = 0; round < 2; ++round) {
    const auto before = service->cache_stats();
    auto failed = service->Reclaim(fx.sources[0], tight);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kOutOfRange);
    const auto after = service->cache_stats();
    EXPECT_EQ(after.entries, before.entries) << "round " << round;
    EXPECT_EQ(after.bytes, before.bytes) << "round " << round;
    EXPECT_EQ(after.misses, before.misses + 1) << "round " << round;
    EXPECT_EQ(after.hits, before.hits) << "round " << round;
  }

  // A budget the pipeline fits in populates as usual.
  ReclaimRequest fits;
  fits.max_rows = 20;
  auto ok = service->Reclaim(fx.sources[0], fits);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(service->cache_stats().entries, 1u);
  EXPECT_EQ(service->cache_stats().bytes, AnswerBytes(*ok));
}

TEST(ReclaimServiceTest, ExpiredRequestFailsOnTheHitPathToo) {
  ServiceFixture fx = MakePairedFixture(2);
  auto service = MakeService(fx);
  ReclaimRequest request;
  request.lake = "alpha";
  ASSERT_TRUE(service->Reclaim(fx.sources[0], request).ok());

  // The entry is there, but a request whose budget has run out by the
  // time the lookup returns fails the way it would on a miss.
  ReclaimRequest expired = request;
  expired.deadline_seconds = 1e-9;
  const auto before = service->cache_stats();
  auto got = service->Reclaim(fx.sources[0], expired);
  EXPECT_EQ(got.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(service->cache_stats().hits, before.hits + 1);
  EXPECT_TRUE(service->Reclaim(fx.sources[0], request)->cache_hit);
}

TEST(ReclaimServiceTest, SourcesDifferingOnlyInNameShareOneEntry) {
  ServiceFixture fx = MakePairedFixture(2);
  auto service = MakeService(fx);
  ReclaimRequest request;
  request.lake = "alpha";
  ReclaimRequest bypass = request;
  bypass.bypass_cache = true;

  Table renamed = fx.sources[0].Clone();
  renamed.set_name("same cells, other name");
  auto want = service->Reclaim(fx.sources[0], bypass);
  auto want_renamed = service->Reclaim(renamed, bypass);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want_renamed.ok());
  // The name never reaches the answer: the reclaimed table is always
  // "reclaimed", so the fingerprint need not hash it.
  EXPECT_EQ(want->reclaimed.name(), "reclaimed");
  EXPECT_TRUE(SameAnswer(*want, *want_renamed));

  auto first = service->Reclaim(fx.sources[0], request);
  auto second = service->Reclaim(renamed, request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(service->cache_stats().entries, 1u);
  EXPECT_TRUE(SameAnswer(*first, *want));
  EXPECT_TRUE(SameAnswer(*second, *want_renamed));
}

// A hand-built answer whose cached tables hold `rows` x `cols` cells
// (reclaimed) and `rows` x 2 cells (one originating table).
ReclamationResult MakeAnswer(const DictionaryPtr& dict, size_t rows,
                             size_t cols) {
  TableBuilder rb(dict, "reclaimed");
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  rb.Columns(names);
  for (size_t r = 0; r < rows; ++r) {
    rb.Row(std::vector<std::string>(cols, "v" + std::to_string(r)));
  }
  ReclamationResult result(rb.Key({"c0"}).Build());
  TableBuilder ob(dict, "origin");
  ob.Columns({"c0", "x"});
  for (size_t r = 0; r < rows; ++r) ob.Row({"v" + std::to_string(r), "x"});
  result.originating.push_back(ob.Build());
  result.originating_names.push_back("origin");
  result.predicted_eis = 0.5;
  return result;
}

TEST(DiscoveryCacheTest, BytesTrackInsertEvictReplaceAndClear) {
  auto dict = MakeDictionary();
  constexpr size_t kCell = sizeof(ValueId);
  const ReclamationResult small = MakeAnswer(dict, 2, 3);   // 6 + 4 cells
  const ReclamationResult medium = MakeAnswer(dict, 4, 3);  // 12 + 8
  const ReclamationResult large = MakeAnswer(dict, 8, 5);   // 40 + 16
  ASSERT_EQ(AnswerBytes(small), 10 * kCell);
  ASSERT_EQ(AnswerBytes(medium), 20 * kCell);
  ASSERT_EQ(AnswerBytes(large), 56 * kCell);
  const SourceFingerprint k1{1, 1}, k2{2, 2}, k3{3, 3};

  DiscoveryCache cache(2);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.Insert(k1, small);  // charged once, at insert
  EXPECT_EQ(cache.stats().bytes, 10 * kCell);
  ASSERT_TRUE(cache.Lookup(k1).has_value());  // hits charge nothing
  EXPECT_EQ(cache.stats().bytes, 10 * kCell);
  cache.Insert(k2, medium);
  EXPECT_EQ(cache.stats().bytes, 30 * kCell);

  cache.Insert(k1, large);  // same-key replace releases the old answer
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes, 76 * kCell);

  cache.Insert(k3, small);  // evicts k2, the least recently used
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 66 * kCell);
  EXPECT_FALSE(cache.Lookup(k2).has_value());
  auto replaced = cache.Lookup(k1);
  ASSERT_TRUE(replaced.has_value());
  EXPECT_TRUE(SameAnswer(*replaced, large));
  EXPECT_FALSE(replaced->cache_hit);  // the service stamps hits
  EXPECT_EQ(replaced->discovery_seconds, 0.0);

  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);  // counters survive Clear
  cache.Insert(k2, medium);
  EXPECT_EQ(cache.stats().bytes, 20 * kCell);

  DiscoveryCache disabled(0);
  disabled.Insert(k1, large);
  EXPECT_EQ(disabled.stats().entries, 0u);
  EXPECT_EQ(disabled.stats().bytes, 0u);
  EXPECT_FALSE(disabled.Lookup(k1).has_value());
}

// --- Concurrency: N threads hammering one resident service ------------------

TEST(ReclaimServiceTest, ConcurrentHammerBitIdenticalToSerialReference) {
  ServiceFixture fx = MakeSplitFixture(6);
  auto service = MakeService(fx);

  // Serial reference, computed with the cache bypassed so the hammer
  // below exercises both cold (miss) and warm (hit) paths itself.
  std::vector<Result<ReclamationResult>> reference;
  std::vector<ReclaimRequest> requests;
  for (size_t s = 0; s < fx.sources.size(); ++s) {
    ReclaimRequest request;
    if (s % 3 == 1) request.lake = "alpha";
    if (s % 3 == 2) request.lake = "beta";
    ReclaimRequest bypass = request;
    bypass.bypass_cache = true;
    reference.push_back(service->Reclaim(fx.sources[s], bypass));
    requests.push_back(request);
  }
  ASSERT_EQ(service->cache_stats().entries, 0u);

  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t iter = 0; iter < kIters; ++iter) {
        // Stagger the starting source per thread to mix routes.
        for (size_t s = 0; s < fx.sources.size(); ++s) {
          size_t i = (s + t) % fx.sources.size();
          auto got = service->Reclaim(fx.sources[i], requests[i]);
          const auto& want = reference[i];
          if (!SameOutcome(got, want)) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  auto stats = service->cache_stats();
  EXPECT_GT(stats.hits, 0u) << "hammer never hit the warm cache";
  EXPECT_GT(stats.misses, 0u);
}

TEST(ReclaimServiceTest, CapacityTwoHammerHitsMissesAndEvictions) {
  // Two entries for 18 (source, route) pairs: eight threads keep
  // hitting, missing and evicting under one another, and every answer
  // must still be the bypass answer on every field.
  ServiceFixture fx = MakeSplitFixture(6);
  auto service = MakeService(fx, /*cache_capacity=*/2, /*num_threads=*/2);

  std::vector<ReclaimRequest> routes(3);
  routes[1].lake = "alpha";
  routes[2].lake = "beta";
  std::vector<std::vector<Result<ReclamationResult>>> reference(routes.size());
  size_t max_bytes = 0;
  for (size_t r = 0; r < routes.size(); ++r) {
    ReclaimRequest bypass = routes[r];
    bypass.bypass_cache = true;
    for (const Table& source : fx.sources) {
      reference[r].push_back(service->Reclaim(source, bypass));
      ASSERT_TRUE(reference[r].back().ok());
      max_bytes = std::max(max_bytes, AnswerBytes(*reference[r].back()));
    }
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 3;
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> flagged{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t iter = 0; iter < kIters; ++iter) {
        for (size_t j = 0; j < fx.sources.size() * routes.size(); ++j) {
          // Few distinct keys per window so hits happen despite the
          // tiny capacity; staggered per thread so they also collide.
          const size_t k = (j / 2 + t) % (fx.sources.size() * routes.size());
          const size_t r = k % routes.size();
          const size_t s = k / routes.size();
          auto got = service->Reclaim(fx.sources[s], routes[r]);
          if (!SameOutcome(got, reference[r][s])) mismatches.fetch_add(1);
          if (got.ok() && got->cache_hit) flagged.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = service->cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(flagged.load(), stats.hits);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LE(stats.bytes, 2 * max_bytes);
}

TEST(ReclaimServiceTest, ConcurrentBatchesShareThePool) {
  ServiceFixture fx = MakePairedFixture(6);
  auto service = MakeService(fx, /*cache_capacity=*/256, /*num_threads=*/4);

  std::vector<Result<ReclamationResult>> first, second;
  std::thread a([&]() { first = service->ReclaimBatch(fx.sources); });
  std::thread b([&]() { second = service->ReclaimBatch(fx.sources); });
  a.join();
  b.join();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameReclamation(first[i], second[i], "source " + std::to_string(i));
  }
}

// --- Admission, registration, and warm start --------------------------------

TEST(ReclaimServiceTest, ForeignDictionarySourceIsReInterned) {
  ServiceFixture fx = MakePairedFixture(4);
  auto service = MakeService(fx);

  // The same source content, built over a completely separate dictionary
  // (a request arriving over the wire).
  auto foreign_dict = MakeDictionary();
  Table foreign = MakeSource(foreign_dict, 1);

  ReclaimRequest request;
  request.lake = "alpha";
  auto native = service->Reclaim(fx.sources[1], request);
  auto translated = service->Reclaim(foreign, request);
  ExpectSameReclamation(translated, native, "foreign vs native dictionary");

  // The batch and async entry points re-intern at admission too; past
  // the cache, so each runs the pipeline. The batch carries a second
  // source so that it runs pooled.
  ReclaimRequest cold = request;
  cold.bypass_cache = true;
  std::vector<Table> batch;
  batch.push_back(foreign.Clone());
  batch.push_back(MakeSource(foreign_dict, 0));
  auto batched = service->ReclaimBatch(batch, cold);
  ASSERT_EQ(batched.size(), 2u);
  ExpectSameReclamation(batched[0], native, "foreign source via ReclaimBatch");
  ExpectSameReclamation(batched[1], service->Reclaim(fx.sources[0], cold),
                        "second foreign source via ReclaimBatch");
  auto ticket = service->SubmitReclaim(foreign.Clone(), cold);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ExpectSameReclamation(ticket->Wait(), native,
                        "foreign source via SubmitReclaim");
}

TEST(ReclaimServiceTest, RegistrationAndRoutingErrors) {
  ServiceFixture fx = MakePairedFixture(2);
  ServiceOptions options;
  options.dict = fx.dict;
  ReclaimService service(std::move(options));

  // Serving before any lake is registered.
  EXPECT_EQ(service.Reclaim(fx.sources[0]).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(service.AddLakeView("alpha", *fx.alpha).ok());
  const uint64_t epoch = service.registry_epoch();
  EXPECT_EQ(service.AddLakeView("alpha", *fx.beta).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.AddLakeView("", *fx.beta).code(),
            StatusCode::kInvalidArgument);

  // A lake on a different dictionary cannot join the shard set.
  DataLake foreign;
  EXPECT_EQ(service.AddLakeView("gamma", foreign).code(),
            StatusCode::kInvalidArgument);

  // The snapshot and directory flavors refuse the same names, and a
  // reload needs a registered one.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("gent_service_reg_" + std::to_string(::getpid())))
          .string();
  const std::string snap = base + ".snap";
  const std::string dir = base + "_csv";
  ASSERT_TRUE(SaveV2(*fx.beta, snap).ok());
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteCsv(fx.beta->table(0), dir + "/t.csv").ok());
  EXPECT_EQ(service.AddLakeFromSnapshot("", snap).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.AddLakeFromSnapshot("alpha", snap).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.AddLakeFromDirectory("", dir).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.AddLakeFromDirectory("alpha", dir).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.ReloadLakeFromSnapshot("nope", snap).code(),
            StatusCode::kNotFound);
  std::filesystem::remove(snap);
  std::filesystem::remove_all(dir);

  ReclaimRequest request;
  request.lake = "nope";
  EXPECT_EQ(service.Reclaim(fx.sources[0], request).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.lake("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.registry_epoch(), epoch);
  EXPECT_EQ(service.num_lakes(), 1u);
  EXPECT_EQ(service.lake_names(), std::vector<std::string>{"alpha"});
}

TEST(ReclaimServiceTest, SnapshotWarmStartedShardServesIdentically) {
  ServiceFixture fx = MakePairedFixture(4);
  const std::string snap =
      (std::filesystem::temp_directory_path() /
       ("gent_service_snap_" + std::to_string(::getpid()) + ".snap"))
          .string();
  ASSERT_TRUE(SaveV2(*fx.alpha, snap).ok());

  ServiceOptions options;  // fresh dictionary: the warm-start path
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeFromSnapshot("alpha", snap).ok());
  EXPECT_EQ(service.num_lakes(), 1u);

  auto reference = MakeService(fx);
  ReclaimRequest request;
  request.lake = "alpha";
  // The snapshot-backed service has its own dictionary, so compare by
  // cell strings (the source is re-interned at admission).
  auto got = service.Reclaim(fx.sources[0], request);
  auto want = reference->Reclaim(fx.sources[0], request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameCells(got->reclaimed, want->reclaimed, "snapshot warm start");
  EXPECT_EQ(got->originating_names, want->originating_names);
}

TEST(ReclaimServiceTest, DefaultThreadsAreHardwareConcurrency) {
  ServiceFixture fx = MakePairedFixture(2);
  auto service = MakeService(fx);
  const size_t hw = std::thread::hardware_concurrency();
  if (hw > 0) EXPECT_EQ(service->num_threads(), hw);
}

// --- Regression: CSV bare-CR handling (src/table/table_io) ------------------

TEST(CsvCrRegressionTest, CrOnlyLineEndingsSeparateRecords) {
  auto dict = MakeDictionary();
  // Old-Mac export: CR-only line endings. Before the fix every '\r' was
  // silently dropped, gluing "a" and the next row's key into one field.
  auto table = ParseCsvText(dict, "t", "k,v\r1,a\r2,b\r");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->CellString(0, 0), "1");
  EXPECT_EQ(table->CellString(0, 1), "a");
  EXPECT_EQ(table->CellString(1, 0), "2");
  EXPECT_EQ(table->CellString(1, 1), "b");
}

TEST(CsvCrRegressionTest, CrlfAndMixedEndingsStillParse) {
  auto dict = MakeDictionary();
  auto table = ParseCsvText(dict, "t", "k,v\r\n1,a\r2,b\n3,c\r\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->CellString(2, 1), "c");
}

TEST(CsvCrRegressionTest, ValuesWithBareCrRoundTripThroughWriteRead) {
  auto dict = MakeDictionary();
  Table t = TableBuilder(dict, "t")
                .Columns({"k", "v"})
                .Row({"1", "line1\rline2"})     // bare CR inside a value
                .Row({"2", "crlf\r\ninside"})   // CRLF inside a value
                .Row({"3", "trailing\r"})
                .Build();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gent_cr_roundtrip_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(MakeDictionary(), "t", path);
  std::filesystem::remove(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameCells(*back, t, "CR round-trip");
}

// --- Regression: snapshot close/trailing-garbage (src/lake/snapshot) --------

TEST(SnapshotRegressionTest, TrailingGarbageAfterLastSectionRejected) {
  DataLake lake;
  (void)lake.AddTable(TableBuilder(lake.dict(), "t")
                          .Columns({"a", "b"})
                          .Row({"1", "2"})
                          .Build());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gent_trailing_" + std::to_string(::getpid()) + ".snap"))
          .string();
  // A v1 file: its body must end exactly at EOF. (A v2 file treats
  // bytes past its last footer as torn-append debris.)
  ASSERT_TRUE(WriteV1Snapshot(lake, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "JUNKJUNK";  // a truncated write of a second snapshot, say
  }
  DataLake fresh;
  Status s = LoadSnapshot(fresh, path);
  std::filesystem::remove(path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("trailing"), std::string::npos);
  // Rejected before anything was registered.
  EXPECT_EQ(fresh.size(), 0u);
}

TEST(SnapshotRegressionTest, FullDiskSurfacesAtCloseNotAsSuccess) {
  // A full disk accepts opens and buffered writes; ENOSPC surfaces when
  // the bytes drain at flush/fsync time. Inject exactly that shape:
  // every fwrite "succeeds", the commit-time flush fails. Before the
  // Close() fix a small snapshot "saved" successfully while writing
  // nothing; now the save must fail typed and leave no file behind.
  DataLake lake;
  (void)lake.AddTable(TableBuilder(lake.dict(), "t")
                          .Columns({"a"})
                          .Row({"1"})
                          .Build());
  GenT gent(lake);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gent_enospc_close_" + std::to_string(::getpid()) + ".snap"))
          .string();
  {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = io::OpBit(io::Op::kFlush);
    plan.kind = io::FaultKind::kErrno;
    plan.error_code = ENOSPC;
    injector.Arm(plan);
    io::ScopedFaultInjector scope(&injector);
    Status s = SaveSnapshotV2(lake, gent.catalog().section_views(), path);
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace gent
