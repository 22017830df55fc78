// Runtime shard lifecycle + async admission tests for ReclaimService
// (DESIGN.md §5.6): epoch-pinned registry snapshots under concurrent
// mutation, removed-shard drain correctness, cache-epoch invalidation
// on reload, routing policies, and the SubmitReclaim admission queue
// (ordering, backpressure, cancellation). The add/remove-while-serving
// hammer runs under ThreadSanitizer in CI.

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "answer_checks.h"
#include "src/engine/reclaim_service.h"
#include "src/lake/snapshot.h"
#include "src/metrics/similarity.h"
#include "src/table/table_builder.h"
#include "tests/snapshot_fixtures.h"

namespace gent {
namespace {

using testing::AnswerBytes;
using testing::ExpectSameReclamation;
using testing::SameAnswer;

// Fixture: same vertical-fragment scheme as reclaim_service_test.
// Source s splits into frag_a (k,a) and frag_b (k,b); a "paired" lake
// holds both fragments of its sources.

std::vector<std::vector<std::string>> SourceRows(size_t s,
                                                 const std::string& salt = "") {
  const std::string tag = "s" + std::to_string(s) + salt + "_";
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < 10; ++r) {
    rows.push_back({tag + "k" + std::to_string(r),
                    tag + "a" + std::to_string(r),
                    tag + "b" + std::to_string(r)});
  }
  return rows;
}

Table MakeSource(const DictionaryPtr& dict, size_t s,
                 const std::string& salt = "") {
  TableBuilder sb(dict, "source" + std::to_string(s));
  sb.Columns({"k", "a", "b"});
  for (const auto& row : SourceRows(s, salt)) sb.Row(row);
  return sb.Key({"k"}).Build();
}

// A lake holding both fragments for each source index in [begin, end).
DataLake MakePairedLake(const DictionaryPtr& dict, size_t begin, size_t end,
                        const std::string& salt = "") {
  DataLake lake(dict);
  for (size_t s = begin; s < end; ++s) {
    const std::string tag = "s" + std::to_string(s) + salt + "_";
    const auto rows = SourceRows(s, salt);
    TableBuilder fa(dict, tag + "frag_a");
    fa.Columns({"k", "a"});
    for (const auto& row : rows) fa.Row({row[0], row[1]});
    (void)lake.AddTable(fa.Build());
    TableBuilder fb(dict, tag + "frag_b");
    fb.Columns({"k", "b"});
    for (const auto& row : rows) fb.Row({row[0], row[2]});
    (void)lake.AddTable(fb.Build());
  }
  return lake;
}

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".snap"))
      .string();
}

// --- Runtime mutation: epochs, drain, reload --------------------------------

TEST(ServiceLifecycleTest, EpochAdvancesPerMutationAndNamesTrackIt) {
  auto dict = MakeDictionary();
  DataLake alpha = MakePairedLake(dict, 0, 2);
  DataLake beta = MakePairedLake(dict, 2, 4);

  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(std::move(options));
  EXPECT_EQ(service.registry_epoch(), 0u);

  ASSERT_TRUE(service.AddLakeView("alpha", alpha).ok());
  EXPECT_EQ(service.registry_epoch(), 1u);
  ASSERT_TRUE(service.AddLakeView("beta", beta).ok());
  EXPECT_EQ(service.registry_epoch(), 2u);
  EXPECT_EQ(service.lake_names(),
            (std::vector<std::string>{"alpha", "beta"}));

  ASSERT_TRUE(service.RemoveLake("alpha").ok());
  EXPECT_EQ(service.registry_epoch(), 3u);
  EXPECT_EQ(service.lake_names(), std::vector<std::string>{"beta"});
  EXPECT_EQ(service.lake("alpha").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.RemoveLake("alpha").code(), StatusCode::kNotFound);

  // A name can be re-registered after removal (fresh uid, fresh shard).
  ASSERT_TRUE(service.AddLakeView("alpha", alpha).ok());
  EXPECT_EQ(service.registry_epoch(), 4u);
  EXPECT_EQ(service.num_lakes(), 2u);
}

TEST(ServiceLifecycleTest, RemoveDuringConcurrentBatchDrainsOnOldEpoch) {
  auto dict = MakeDictionary();
  DataLake alpha = MakePairedLake(dict, 0, 3);
  DataLake beta = MakePairedLake(dict, 3, 6);

  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 4;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("alpha", alpha).ok());
  ASSERT_TRUE(service.AddLakeView("beta", beta).ok());

  std::vector<Table> sources;
  for (size_t s = 0; s < 6; ++s) sources.push_back(MakeSource(dict, s));

  // Reference: the same batch with no concurrent mutation.
  ReclaimRequest fan_out;
  auto reference = service.ReclaimBatch(sources, fan_out);
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(reference[i].ok())
        << "reference source " << i << ": " << reference[i].status().ToString();
  }

  // Hammer: run the identical batch over and over while another thread
  // keeps removing and re-adding shard "beta". Every batch pinned a
  // snapshot at admission; whichever it pinned, "alpha"-only and
  // "alpha+beta" runs are the only possible outcomes, and each is
  // deterministic. Batches that saw beta must match the reference
  // exactly (they drained on their pinned epoch even while the shard
  // was retired under them).
  auto alpha_only = [&] {
    ServiceOptions o;
    o.dict = dict;
    ReclaimService solo(std::move(o));
    EXPECT_TRUE(solo.AddLakeView("alpha", alpha).ok());
    return solo.ReclaimBatch(sources, fan_out);
  }();

  std::atomic<bool> stop{false};
  std::thread mutator([&]() {
    while (!stop.load()) {
      ASSERT_TRUE(service.RemoveLake("beta").ok());
      ASSERT_TRUE(service.AddLakeView("beta", beta).ok());
    }
  });

  for (int iter = 0; iter < 8; ++iter) {
    auto batch = service.ReclaimBatch(sources, fan_out);
    ASSERT_EQ(batch.size(), sources.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const bool saw_beta =
          batch[i].ok() &&
          TablesBitIdentical(batch[i]->reclaimed, reference[i]->reclaimed);
      const auto& want = saw_beta ? reference[i] : alpha_only[i];
      ExpectSameReclamation(batch[i], want,
                            "iter " + std::to_string(iter) + " source " +
                                std::to_string(i));
    }
  }
  stop.store(true);
  mutator.join();

  // After the dust settles the shard set is alpha+beta again.
  auto final_batch = service.ReclaimBatch(sources, fan_out);
  for (size_t i = 0; i < final_batch.size(); ++i) {
    ExpectSameReclamation(final_batch[i], reference[i], "post-hammer");
  }
}

TEST(ServiceLifecycleTest, AddRemoveWhileServingHammer) {
  // N writer threads mutating churn shards × M reader threads serving
  // requests routed to a stable shard. Readers must never crash, error,
  // or observe anything but the stable shard's deterministic answer;
  // TSan (CI) checks the synchronization underneath.
  auto dict = MakeDictionary();
  DataLake stable = MakePairedLake(dict, 0, 4);
  DataLake churn_a = MakePairedLake(dict, 4, 6);
  DataLake churn_b = MakePairedLake(dict, 6, 8);

  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 2;  // leave cores for the reader/writer threads
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("stable", stable).ok());

  std::vector<Table> sources;
  for (size_t s = 0; s < 4; ++s) sources.push_back(MakeSource(dict, s));

  ReclaimRequest to_stable;
  to_stable.lake = "stable";
  std::vector<Result<ReclamationResult>> reference;
  for (const Table& source : sources) {
    reference.push_back(service.Reclaim(source, to_stable));
    ASSERT_TRUE(reference.back().ok());
  }

  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 4;
  constexpr size_t kIters = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      const std::string name = "churn" + std::to_string(w);
      const DataLake& lake = w % 2 == 0 ? churn_a : churn_b;
      while (!stop.load()) {
        if (!service.AddLakeView(name, lake).ok()) continue;
        (void)service.RemoveLake(name);
      }
    });
  }
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      for (size_t iter = 0; iter < kIters; ++iter) {
        for (size_t s = 0; s < sources.size(); ++s) {
          size_t i = (s + r) % sources.size();
          auto got = service.Reclaim(sources[i], to_stable);
          const auto& want = reference[i];
          bool same =
              got.ok() &&
              TablesBitIdentical(got->reclaimed, want->reclaimed) &&
              got->originating_names == want->originating_names;
          if (!same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.lake("stable").status().code(), StatusCode::kOk);
}

TEST(ServiceLifecycleTest, ReloadInvalidatesCacheEpochForThatShardOnly) {
  auto dict = MakeDictionary();
  DataLake v1 = MakePairedLake(dict, 0, 2);          // holds source 0, 1
  DataLake other = MakePairedLake(dict, 2, 4);       // holds source 2, 3
  DataLake v2 = MakePairedLake(dict, 0, 1);          // drops source 1
  const std::string snap_v2 = TempPath("gent_reload_v2");
  ASSERT_TRUE(SaveV2(v2, snap_v2).ok());

  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("hot", v1).ok());
  ASSERT_TRUE(service.AddLakeView("other", other).ok());

  Table source1 = MakeSource(dict, 1);
  Table source2 = MakeSource(dict, 2);
  ReclaimRequest to_hot;
  to_hot.lake = "hot";
  ReclaimRequest to_other;
  to_other.lake = "other";

  // Warm both shards' cache entries.
  auto v1_answer = service.Reclaim(source1, to_hot);
  ASSERT_TRUE(v1_answer.ok());
  EXPECT_DOUBLE_EQ(EisScore(source1, v1_answer->reclaimed).value(), 1.0);
  auto other_cold = service.Reclaim(source2, to_other);
  ASSERT_TRUE(other_cold.ok());
  const auto warm_before = service.cache_stats();

  // Reload "hot" with content that can no longer reclaim source 1. A
  // stale cache hit would replay v1's candidate tables and still
  // reclaim perfectly — the whole point of uid-keyed route tags is
  // that it cannot.
  ASSERT_TRUE(service.ReloadLakeFromSnapshot("hot", snap_v2).ok());
  auto v2_answer = service.Reclaim(source1, to_hot);
  ASSERT_TRUE(v2_answer.ok());
  EXPECT_LT(EisScore(source1, v2_answer->reclaimed).value(), 1.0);

  // The untouched shard's entry survived the reload: same request hits.
  auto other_warm = service.Reclaim(source2, to_other);
  ExpectSameReclamation(other_warm, other_cold, "untouched shard");
  EXPECT_GT(service.cache_stats().hits, warm_before.hits);

  // Reloading an unknown name is NotFound and leaves the epoch alone.
  const uint64_t epoch = service.registry_epoch();
  EXPECT_EQ(service.ReloadLakeFromSnapshot("nope", snap_v2).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.registry_epoch(), epoch);
  std::filesystem::remove(snap_v2);
}

TEST(ServiceLifecycleTest, AppendBumpsGenerationAndInvalidatesOnlyThatShard) {
  // Incremental ingest mutates shard CONTENT without re-registering:
  // the uid survives, delta_gen bumps, and the (uid, delta_gen) route
  // tag must invalidate exactly the grown shard's cache entries.
  auto dict = MakeDictionary();
  DataLake hot = MakePairedLake(dict, 0, 1);     // cannot serve source 1 yet
  DataLake other = MakePairedLake(dict, 2, 4);   // holds source 2, 3

  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLake("hot", std::move(hot)).ok());
  ASSERT_TRUE(service.AddLake("other", std::move(other)).ok());

  Table source1 = MakeSource(dict, 1);
  Table source2 = MakeSource(dict, 2);
  ReclaimRequest to_hot;
  to_hot.lake = "hot";
  ReclaimRequest to_other;
  to_other.lake = "other";

  // Warm both named routes. "hot" lacks source 1's fragments, so its
  // cached answer is the imperfect one.
  auto before = service.Reclaim(source1, to_hot);
  ASSERT_TRUE(before.ok());
  EXPECT_LT(EisScore(source1, before->reclaimed).value(), 1.0);
  auto other_cold = service.Reclaim(source2, to_other);
  ASSERT_TRUE(other_cold.ok());
  const auto warm_before = service.cache_stats();

  // Grow "hot" with exactly the fragments source 1 needs. An append is
  // NOT an epoch-style re-registration — but a stale cache hit would
  // replay the imperfect pre-append answer all the same.
  {
    const auto rows = SourceRows(1);
    TableBuilder fa(dict, "s1_frag_a");
    fa.Columns({"k", "a"});
    for (const auto& row : rows) fa.Row({row[0], row[1]});
    TableBuilder fb(dict, "s1_frag_b");
    fb.Columns({"k", "b"});
    for (const auto& row : rows) fb.Row({row[0], row[2]});
    std::vector<Table> batch;
    batch.push_back(fa.Build());
    batch.push_back(fb.Build());
    ASSERT_TRUE(service.AppendTablesToLake("hot", std::move(batch)).ok());
  }

  auto after = service.Reclaim(source1, to_hot);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(EisScore(source1, after->reclaimed).value(), 1.0)
      << "append was invisible — a stale (uid, delta_gen) cache replay";

  // The untouched shard's entry survived the neighbor's append.
  auto other_warm = service.Reclaim(source2, to_other);
  ExpectSameReclamation(other_warm, other_cold, "untouched shard");
  EXPECT_GT(service.cache_stats().hits, warm_before.hits);

  // And the grown shard re-caches at its new generation: an identical
  // repeat now hits without recomputing.
  const auto post_append = service.cache_stats();
  auto repeat = service.Reclaim(source1, to_hot);
  ExpectSameReclamation(repeat, after, "grown shard repeat");
  EXPECT_GT(service.cache_stats().hits, post_append.hits);
}

// --- Fan-out routing --------------------------------------------------------

TEST(ServiceLifecycleTest, StatsPrefilterMatchesFanOutAndPrunes) {
  auto dict = MakeDictionary();
  DataLake relevant = MakePairedLake(dict, 0, 3);
  // A shard with entirely disjoint content: zero value overlap with
  // sources 0-2, so the fan-out prefilter must skip it.
  DataLake disjoint = MakePairedLake(dict, 50, 55);

  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(options);
  ASSERT_TRUE(service.AddLakeView("relevant", relevant).ok());
  ASSERT_TRUE(service.AddLakeView("disjoint", disjoint).ok());
  // The oracle: a service that never had the disjoint shard.
  ReclaimService relevant_only(options);
  ASSERT_TRUE(relevant_only.AddLakeView("relevant", relevant).ok());

  ReclaimRequest fan_out;  // empty lake = fan out
  fan_out.bypass_cache = true;
  const GenT disjoint_gent(disjoint);
  for (size_t s = 0; s < 3; ++s) {
    const std::string ctx = "source " + std::to_string(s);
    Table source = MakeSource(dict, s);
    // The premise that makes pruning free: discovery on the disjoint
    // shard alone yields no candidate, so an unpruned fan-out would
    // merge nothing from it.
    auto candidates = disjoint_gent.DiscoverCandidates(
        source, DiscoveryConfig{}, OpLimits{});
    ASSERT_TRUE(candidates.ok()) << ctx;
    EXPECT_TRUE(candidates->empty()) << ctx;

    auto pruned = service.Reclaim(source, fan_out);
    ExpectSameReclamation(pruned, relevant_only.Reclaim(source, fan_out),
                          ctx);
    ASSERT_TRUE(pruned.ok());
    EXPECT_DOUBLE_EQ(EisScore(source, pruned->reclaimed).value(), 1.0);
  }
  auto stats = service.routing_stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.shards_pruned, 3u);  // "disjoint" skipped per request
}

TEST(ServiceLifecycleTest, PrunedFanOutSharesCacheEntriesWithNamedRoute) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 2);
  DataLake disjoint = MakePairedLake(dict, 50, 55);
  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());
  ASSERT_TRUE(service.AddLakeView("disjoint", disjoint).ok());

  Table source = MakeSource(dict, 0);
  ReclaimRequest fan_out;  // empty lake = fan out
  (void)service.Reclaim(source, fan_out);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.routing_stats().shards_pruned, 1u);

  // The prefilter kept only "lake", and a single-element fold IS that
  // shard's tag, so the named route shares the entry (identical
  // results) — and so does the fan-out repeat.
  ReclaimRequest named;
  named.lake = "lake";
  (void)service.Reclaim(source, named);
  (void)service.Reclaim(source, fan_out);
  EXPECT_EQ(service.cache_stats().hits, 2u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
}

TEST(ServiceLifecycleTest, FanOutPruningEveryShardAnswersLikeANamedRoute) {
  // No shard shares a value with the source, so the prefilter leaves no
  // target and the pipeline runs with zero candidates. That must be the
  // answer discovery gives on any of the shards by name: OK, empty.
  auto dict = MakeDictionary();
  DataLake first = MakePairedLake(dict, 50, 55);
  DataLake second = MakePairedLake(dict, 60, 65);
  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("first", first).ok());
  ASSERT_TRUE(service.AddLakeView("second", second).ok());

  Table source = MakeSource(dict, 0);
  ReclaimRequest fan_out;  // empty lake = fan out
  fan_out.bypass_cache = true;
  auto pruned = service.Reclaim(source, fan_out);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->reclaimed.num_rows(), 0u);
  EXPECT_TRUE(pruned->originating.empty());
  EXPECT_EQ(service.routing_stats().shards_pruned, 2u);
  for (const char* name : {"first", "second"}) {
    ReclaimRequest named = fan_out;
    named.lake = name;
    ExpectSameReclamation(pruned, service.Reclaim(source, named), name);
  }
}

TEST(ServiceLifecycleTest, PrefilterAndAsyncHitsEqualBypassOnEveryField) {
  auto dict = MakeDictionary();
  DataLake relevant = MakePairedLake(dict, 0, 3);
  DataLake disjoint = MakePairedLake(dict, 50, 55);
  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 2;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("relevant", relevant).ok());
  ASSERT_TRUE(service.AddLakeView("disjoint", disjoint).ok());

  ReclaimRequest prefilter;  // empty lake = fan out, "disjoint" pruned
  ReclaimRequest bypass = prefilter;
  bypass.bypass_cache = true;
  std::vector<Table> sources;
  std::vector<Result<ReclamationResult>> want;
  for (size_t s = 0; s < 3; ++s) {
    sources.push_back(MakeSource(dict, s));
    want.push_back(service.Reclaim(sources.back(), bypass));
    ASSERT_TRUE(want.back().ok());
    EXPECT_FALSE(want.back()->cache_hit);
  }

  // Async misses populate; synchronous and async repeats hit.
  for (size_t s = 0; s < sources.size(); ++s) {
    const std::string ctx = "source " + std::to_string(s);
    auto miss_ticket = service.SubmitReclaim(sources[s].Clone(), prefilter);
    ASSERT_TRUE(miss_ticket.ok()) << ctx;
    const auto& miss = miss_ticket->Wait();
    ExpectSameReclamation(miss, want[s], ctx + " async miss");
    EXPECT_FALSE(miss->cache_hit) << ctx;

    auto hit = service.Reclaim(sources[s], prefilter);
    ExpectSameReclamation(hit, want[s], ctx + " sync hit");
    EXPECT_TRUE(hit->cache_hit) << ctx;
    EXPECT_EQ(hit->traversal_seconds, 0.0) << ctx;
    EXPECT_EQ(hit->integration_seconds, 0.0) << ctx;

    auto hit_ticket = service.SubmitReclaim(sources[s].Clone(), prefilter);
    ASSERT_TRUE(hit_ticket.ok()) << ctx;
    ExpectSameReclamation(hit_ticket->Wait(), want[s], ctx + " async hit");
    EXPECT_TRUE(hit_ticket->Wait()->cache_hit) << ctx;
  }
  EXPECT_EQ(service.cache_stats().hits, 2 * sources.size());
  EXPECT_EQ(service.cache_stats().misses, sources.size());

  // A batch repeating one source: all warm, all flagged.
  std::vector<Table> batch_sources;
  for (size_t s : {2, 0, 2, 2}) batch_sources.push_back(sources[s].Clone());
  auto batch = service.ReclaimBatch(batch_sources, prefilter);
  ASSERT_EQ(batch.size(), 4u);
  const size_t order[] = {2, 0, 2, 2};
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameReclamation(batch[i], want[order[i]],
                          "batch " + std::to_string(i));
    EXPECT_TRUE(batch[i]->cache_hit) << "batch " << i;
  }
}

TEST(ServiceLifecycleTest, CacheBytesFollowResidentAnswers) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 3);
  ServiceOptions options;
  options.dict = dict;
  options.cache_capacity = 2;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  ReclaimRequest request;
  request.lake = "lake";
  std::vector<size_t> bytes;
  for (size_t s = 0; s < 3; ++s) {
    auto r = service.Reclaim(MakeSource(dict, s), request);
    ASSERT_TRUE(r.ok());
    bytes.push_back(AnswerBytes(*r));
    ASSERT_GT(bytes.back(), 0u);
  }
  // Source 0's entry was evicted by source 2's insert: the gauge holds
  // exactly the two resident answers.
  auto stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, bytes[1] + bytes[2]);

  // Hits charge nothing; a re-miss charges again and evicts source 1.
  ASSERT_TRUE(service.Reclaim(MakeSource(dict, 2), request)->cache_hit);
  EXPECT_EQ(service.cache_stats().bytes, bytes[1] + bytes[2]);
  ASSERT_FALSE(service.Reclaim(MakeSource(dict, 0), request)->cache_hit);
  EXPECT_EQ(service.cache_stats().bytes, bytes[0] + bytes[2]);

  // A disabled cache holds nothing.
  ServiceOptions off;
  off.dict = dict;
  off.cache_capacity = 0;
  ReclaimService uncached(std::move(off));
  ASSERT_TRUE(uncached.AddLakeView("lake", lake).ok());
  ASSERT_TRUE(uncached.Reclaim(MakeSource(dict, 0), request).ok());
  EXPECT_EQ(uncached.cache_stats().bytes, 0u);
  EXPECT_EQ(uncached.cache_stats().entries, 0u);
}

// --- Async admission ---------------------------------------------------------

TEST(ServiceLifecycleTest, SubmitReclaimMatchesSynchronousReclaim) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 4);
  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 2;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  std::vector<Table> sources;
  for (size_t s = 0; s < 4; ++s) sources.push_back(MakeSource(dict, s));

  ReclaimRequest request;
  request.lake = "lake";
  request.bypass_cache = true;  // async must match cold sync, not a hit
  std::vector<Result<ReclamationResult>> want;
  for (const Table& source : sources) {
    want.push_back(service.Reclaim(source, request));
  }

  std::vector<ReclaimTicket> tickets;
  for (const Table& source : sources) {
    auto ticket = service.SubmitReclaim(source.Clone(), request);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    ASSERT_TRUE(ticket->valid());
    tickets.push_back(std::move(*ticket));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    ExpectSameReclamation(tickets[i].Wait(), want[i],
                          "ticket " + std::to_string(i));
    EXPECT_TRUE(tickets[i].ready());
  }
  EXPECT_EQ(service.admission_stats().queued, 0u);
}

TEST(ServiceLifecycleTest, BlockingAdmissionEventuallyAdmitsEverything) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 2);
  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 1;
  options.admission_capacity = 2;
  options.admission_policy = AdmissionPolicy::kBlock;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  ReclaimRequest request;
  request.lake = "lake";
  std::vector<ReclaimTicket> tickets;
  for (int i = 0; i < 8; ++i) {  // 4x the queue bound: submitters block
    auto ticket = service.SubmitReclaim(MakeSource(dict, i % 2), request);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  for (auto& ticket : tickets) EXPECT_TRUE(ticket.Wait().ok());
  EXPECT_EQ(service.admission_stats().rejected, 0u);
}

TEST(ServiceLifecycleTest, CancelBeforeStartResolvesToCancelled) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 2);
  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 1;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  ReclaimRequest request;
  request.lake = "lake";
  // Occupy the lone worker with a stream of work, then cancel a request
  // parked behind it. Cancel()==true now GUARANTEES a kCancelled
  // resolution whether it lands before the request starts (counted in
  // stats.cancelled) or mid-flight (stats.cancelled_mid_flight); it
  // returns false only once the result is already published.
  std::vector<ReclaimTicket> stream;
  for (int i = 0; i < 6; ++i) {
    auto t = service.SubmitReclaim(MakeSource(dict, 0), request);
    ASSERT_TRUE(t.ok());
    stream.push_back(std::move(*t));
  }
  auto victim = service.SubmitReclaim(MakeSource(dict, 1), request);
  ASSERT_TRUE(victim.ok());
  const bool cancelled = victim->Cancel();
  const auto& result = victim->Wait();
  if (cancelled) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    const auto stats = service.admission_stats();
    EXPECT_GE(stats.cancelled + stats.cancelled_mid_flight, 1u);
  } else {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  // Too late to cancel once resolved.
  EXPECT_FALSE(victim->Cancel());
  for (auto& t : stream) EXPECT_TRUE(t.Wait().ok());
}

TEST(ServiceLifecycleTest, AsyncPinsSnapshotAtSubmission) {
  auto dict = MakeDictionary();
  DataLake alpha = MakePairedLake(dict, 0, 2);
  DataLake ballast = MakePairedLake(dict, 10, 12);  // keeps registry non-empty
  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 1;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("alpha", alpha).ok());
  ASSERT_TRUE(service.AddLakeView("ballast", ballast).ok());

  ReclaimRequest to_alpha;
  to_alpha.lake = "alpha";
  Table source = MakeSource(dict, 0);
  auto want = service.Reclaim(source, to_alpha);
  ASSERT_TRUE(want.ok());

  // Submit, then immediately remove the shard. The ticket pinned the
  // pre-removal snapshot at SubmitReclaim, so it must still answer from
  // "alpha" — while a post-removal synchronous request must not.
  auto ticket = service.SubmitReclaim(source.Clone(), to_alpha);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(service.RemoveLake("alpha").ok());
  ExpectSameReclamation(ticket->Wait(), want, "pinned async request");
  EXPECT_EQ(service.Reclaim(source, to_alpha).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace gent
