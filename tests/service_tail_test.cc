// Deadline-aware admission tests for ReclaimService (DESIGN.md §5.9):
// priority ordering, kShedOldest under saturation, dead-on-arrival
// deadline rejection, cooperative mid-flight interruption at every
// pipeline stage, the Cancel()==true ⇒ Cancelled guarantee,
// discovery-cache poisoning immunity, snapshot fault injection (failure
// atomicity of AddLakeFromSnapshot/ReloadLakeFromSnapshot), and a
// cancel/reload/serve hammer that runs under ThreadSanitizer in CI.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/discovery/discovery.h"
#include "src/engine/reclaim_service.h"
#include "src/lake/snapshot.h"
#include "src/storage/io.h"
#include "src/matrix/expand.h"
#include "src/matrix/traversal.h"
#include "src/table/table_builder.h"
#include "tests/snapshot_fixtures.h"

namespace gent {
namespace {

using Clock = std::chrono::steady_clock;

// Fixture: the vertical-fragment scheme of the other service tests.
// Source s splits into frag_a (k,a) and frag_b (k,b). `rows` scales the
// per-source work: tests that need a long-running "blocker" request use
// a few hundred rows so their own bookkeeping (microseconds) fits well
// inside one pipeline execution (milliseconds).

std::vector<std::vector<std::string>> SourceRows(size_t s, size_t rows) {
  const std::string tag = "s" + std::to_string(s) + "_";
  std::vector<std::vector<std::string>> out;
  for (size_t r = 0; r < rows; ++r) {
    out.push_back({tag + "k" + std::to_string(r),
                   tag + "a" + std::to_string(r),
                   tag + "b" + std::to_string(r)});
  }
  return out;
}

Table MakeSource(const DictionaryPtr& dict, size_t s, size_t rows = 10) {
  TableBuilder sb(dict, "source" + std::to_string(s));
  sb.Columns({"k", "a", "b"});
  for (const auto& row : SourceRows(s, rows)) sb.Row(row);
  return sb.Key({"k"}).Build();
}

DataLake MakePairedLake(const DictionaryPtr& dict, size_t begin, size_t end,
                        size_t rows = 10) {
  DataLake lake(dict);
  for (size_t s = begin; s < end; ++s) {
    const std::string tag = "s" + std::to_string(s) + "_";
    const auto srows = SourceRows(s, rows);
    TableBuilder fa(dict, tag + "frag_a");
    fa.Columns({"k", "a"});
    for (const auto& row : srows) fa.Row({row[0], row[1]});
    (void)lake.AddTable(fa.Build());
    TableBuilder fb(dict, tag + "frag_b");
    fb.Columns({"k", "b"});
    for (const auto& row : srows) fb.Row({row[0], row[2]});
    (void)lake.AddTable(fb.Build());
  }
  return lake;
}

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".snap"))
      .string();
}

// Spins until `pred` holds (deadline-bounded). Returns whether it did.
template <typename Pred>
bool SpinUntil(Pred pred, double seconds = 10.0) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// A service with one worker, one paired shard, and a long-running
// request already executing (the "blocker"): everything submitted
// afterwards queues behind it deterministically.
struct BusyService {
  DictionaryPtr dict = MakeDictionary();
  DataLake lake;
  std::unique_ptr<ReclaimService> service;
  ReclaimTicket blocker;

  explicit BusyService(ServiceOptions base = {}, size_t blocker_rows = 4000) {
    lake = MakePairedLake(dict, 0, 4, blocker_rows);
    base.dict = dict;
    base.num_threads = 1;
    service = std::make_unique<ReclaimService>(std::move(base));
    EXPECT_TRUE(service->AddLakeView("lake", lake).ok());
    ReclaimRequest request;
    request.lake = "lake";
    auto t = service->SubmitReclaim(MakeSource(dict, 0, blocker_rows),
                                    request);
    EXPECT_TRUE(t.ok());
    blocker = std::move(*t);
    // The blocker has left the queue (= is executing) before we return,
    // so submissions from here on cannot be pumped until it finishes.
    EXPECT_TRUE(SpinUntil(
        [&]() { return service->admission_stats().queued == 0; }));
  }
};

ReclaimRequest Light(RequestPriority priority,
                     double deadline_seconds = 0.0) {
  ReclaimRequest request;
  request.lake = "lake";
  request.priority = priority;
  request.deadline_seconds = deadline_seconds;
  return request;
}

// --- Dead-on-arrival deadline rejection ------------------------------------

TEST(ServiceTailTest, DeadlineExpiredInQueueResolvesTimeoutWithoutRunning) {
  BusyService busy;
  // Deadline far shorter than the blocker: expired by the time the pump
  // reaches the request, so it must resolve Timeout without running.
  auto victim = busy.service->SubmitReclaim(
      MakeSource(busy.dict, 1), Light(RequestPriority::kNormal, 1e-6));
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(victim->Wait().status().code(), StatusCode::kTimeout);
  const auto stats = busy.service->admission_stats();
  EXPECT_GE(stats.deadline_expired_in_queue, 1u);
  EXPECT_TRUE(busy.blocker.Wait().ok());
}

TEST(ServiceTailTest, GenerousDeadlineStillCompletes) {
  BusyService busy;
  auto ticket = busy.service->SubmitReclaim(
      MakeSource(busy.dict, 1), Light(RequestPriority::kNormal, 60.0));
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->Wait().ok()) << ticket->Wait().status().ToString();
  EXPECT_EQ(busy.service->admission_stats().deadline_expired_in_queue, 0u);
  EXPECT_TRUE(busy.blocker.Wait().ok());
}

// --- Mid-flight interruption at every pipeline stage ------------------------
//
// Stage-level determinism: a pre-expired deadline (or pre-fired cancel
// token) must abort at the stage's FIRST checkpoint — this is the
// "within one checkpoint" guarantee, tested without racing a clock.

struct StageFixture {
  DictionaryPtr dict = MakeDictionary();
  DataLake lake;
  std::unique_ptr<GenT> gent;
  Table source;

  StageFixture()
      : lake(MakePairedLake(MakeDictionary(), 0, 3)),
        source(Table("empty", MakeDictionary())) {
    dict = lake.dict();
    gent = std::make_unique<GenT>(lake);
    source = MakeSource(dict, 0);
  }
};

TEST(ServiceTailTest, ExpiredDeadlineAbortsEveryStage) {
  StageFixture fx;
  const OpLimits expired = OpLimits::WithDeadline(Clock::now() -
                                                  std::chrono::seconds(1));

  Discovery discovery(fx.gent->catalog(), fx.gent->config().discovery);
  EXPECT_EQ(discovery.FindCandidates(fx.source, expired).status().code(),
            StatusCode::kTimeout);

  auto candidates = discovery.FindCandidates(fx.source);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(Expand(fx.source, *candidates, expired).status().code(),
            StatusCode::kTimeout);

  auto expanded = Expand(fx.source, *candidates);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(
      MatrixTraversal(fx.source, expanded->tables, {}, expired).status().code(),
      StatusCode::kTimeout);

  EXPECT_EQ(fx.gent->Reclaim(fx.source, expired).status().code(),
            StatusCode::kTimeout);
}

TEST(ServiceTailTest, FiredCancelTokenAbortsEveryStage) {
  StageFixture fx;
  std::atomic<bool> fired{true};
  OpLimits cancelled;
  cancelled.CancelToken(&fired);

  Discovery discovery(fx.gent->catalog(), fx.gent->config().discovery);
  EXPECT_EQ(discovery.FindCandidates(fx.source, cancelled).status().code(),
            StatusCode::kCancelled);

  auto candidates = discovery.FindCandidates(fx.source);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(Expand(fx.source, *candidates, cancelled).status().code(),
            StatusCode::kCancelled);

  auto expanded = Expand(fx.source, *candidates);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(MatrixTraversal(fx.source, expanded->tables, {}, cancelled)
                .status()
                .code(),
            StatusCode::kCancelled);

  EXPECT_EQ(fx.gent->Reclaim(fx.source, cancelled).status().code(),
            StatusCode::kCancelled);

  // Cancelled outranks Timeout when both conditions hold.
  OpLimits both = OpLimits::WithDeadline(Clock::now() -
                                         std::chrono::seconds(1));
  both.CancelToken(&fired);
  EXPECT_EQ(fx.gent->Reclaim(fx.source, both).status().code(),
            StatusCode::kCancelled);
}

// --- Cancel guarantee through the service -----------------------------------

TEST(ServiceTailTest, CancelAfterExecutionStartResolvesCancelled) {
  BusyService busy;
  // The blocker IS executing (BusyService waited for the queue to
  // drain). Cancel it mid-flight: Cancel()==true now guarantees a
  // kCancelled resolution — the pipeline aborts at its next checkpoint
  // and any completed-but-unpublished result is discarded.
  const bool accepted = busy.blocker.Cancel();
  const auto& result = busy.blocker.Wait();
  if (accepted) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    const auto stats = busy.service->admission_stats();
    EXPECT_GE(stats.cancelled_mid_flight + stats.cancelled, 1u);
  } else {
    EXPECT_TRUE(result.ok());
  }
  EXPECT_FALSE(busy.blocker.Cancel());  // already resolved
}

TEST(ServiceTailTest, CancelledColdRequestNeverPoisonsDiscoveryCache) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 3, 200);
  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 1;
  options.cache_capacity = 16;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  Table source = MakeSource(dict, 0, 200);
  ReclaimRequest request;
  request.lake = "lake";

  // Pristine reference, computed around the cache.
  ReclaimRequest bypass = request;
  bypass.bypass_cache = true;
  auto reference = service.Reclaim(source, bypass);
  ASSERT_TRUE(reference.ok());

  // A cold cache-eligible request, cancelled mid-flight. Whatever the
  // race outcome (aborted before the cache insert, after it, or
  // resolved before the cancel), the cache must never hold a truncated
  // answer: an interrupted expansion, traversal or integration is a
  // hard error, never an OK result, and only OK results are cached.
  for (int round = 0; round < 8; ++round) {
    auto ticket = service.SubmitReclaim(source.Clone(), request);
    ASSERT_TRUE(ticket.ok());
    SpinUntil([&]() { return service.admission_stats().queued == 0; });
    (void)ticket->Cancel();
    (void)ticket->Wait();

    auto after = service.Reclaim(source, request);  // may hit the cache
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(TablesBitIdentical(after->reclaimed, reference->reclaimed))
        << "discovery cache poisoned by a cancelled request (round "
        << round << ")";
  }
}

// --- Shed-oldest under saturation -------------------------------------------

TEST(ServiceTailTest, ShedOldestEvictsLowestClassAndNeverHigher) {
  ServiceOptions base;
  base.admission_capacity = 3;
  base.admission_policy = AdmissionPolicy::kShedOldest;
  BusyService busy(std::move(base));

  // Fill the queue: [normal n1, normal n2, batch b1].
  auto n1 = busy.service->SubmitReclaim(MakeSource(busy.dict, 1),
                                        Light(RequestPriority::kNormal));
  auto n2 = busy.service->SubmitReclaim(MakeSource(busy.dict, 2),
                                        Light(RequestPriority::kNormal));
  auto b1 = busy.service->SubmitReclaim(MakeSource(busy.dict, 3),
                                        Light(RequestPriority::kBatch));
  ASSERT_TRUE(n1.ok() && n2.ok() && b1.ok());
  ASSERT_EQ(busy.service->admission_stats().queued, 3u);

  // A normal newcomer sheds the batch entry (lowest class at or below
  // normal), not a normal one.
  auto n3 = busy.service->SubmitReclaim(MakeSource(busy.dict, 1),
                                        Light(RequestPriority::kNormal));
  ASSERT_TRUE(n3.ok());
  EXPECT_EQ(b1->Wait().status().code(), StatusCode::kResourceExhausted);

  // A high newcomer sheds the OLDEST normal entry (no batch left).
  auto h1 = busy.service->SubmitReclaim(MakeSource(busy.dict, 2),
                                        Light(RequestPriority::kHigh));
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(n1->Wait().status().code(), StatusCode::kResourceExhausted);

  {
    const auto stats = busy.service->admission_stats();
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.queued, 3u);
    EXPECT_EQ(stats.queue_depth[0], 1u);  // h1
    EXPECT_EQ(stats.queue_depth[1], 2u);  // n2, n3
    EXPECT_EQ(stats.queue_depth[2], 0u);
  }

  // A batch newcomer facing a queue of higher classes is itself shed:
  // SubmitReclaim returns ResourceExhausted and nothing is evicted.
  auto b2 = busy.service->SubmitReclaim(MakeSource(busy.dict, 3),
                                        Light(RequestPriority::kBatch));
  EXPECT_EQ(b2.status().code(), StatusCode::kResourceExhausted);
  {
    const auto stats = busy.service->admission_stats();
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_GE(stats.rejected, 1u);
    EXPECT_EQ(stats.queued, 3u);
  }

  EXPECT_TRUE(busy.blocker.Wait().ok());
  EXPECT_TRUE(n2->Wait().ok());
  EXPECT_TRUE(n3->Wait().ok());
  EXPECT_TRUE(h1->Wait().ok());
}

// --- Priority ordering --------------------------------------------------------

TEST(ServiceTailTest, PumpDrainsHighestClassFirstFifoWithin) {
  BusyService busy;
  // Queue in "wrong" order behind the blocker: the pump must still
  // execute high → normal → batch (FIFO within a class).
  auto b1 = busy.service->SubmitReclaim(MakeSource(busy.dict, 1),
                                        Light(RequestPriority::kBatch));
  auto b2 = busy.service->SubmitReclaim(MakeSource(busy.dict, 2),
                                        Light(RequestPriority::kBatch));
  auto n1 = busy.service->SubmitReclaim(MakeSource(busy.dict, 3),
                                        Light(RequestPriority::kNormal));
  auto h1 = busy.service->SubmitReclaim(MakeSource(busy.dict, 1),
                                        Light(RequestPriority::kHigh));
  ASSERT_TRUE(b1.ok() && b2.ok() && n1.ok() && h1.ok());
  {
    const auto stats = busy.service->admission_stats();
    EXPECT_EQ(stats.queue_depth[0], 1u);
    EXPECT_EQ(stats.queue_depth[1], 1u);
    EXPECT_EQ(stats.queue_depth[2], 2u);
  }

  ASSERT_TRUE(h1->Wait().ok());
  ASSERT_TRUE(n1->Wait().ok());
  ASSERT_TRUE(b1->Wait().ok());
  ASSERT_TRUE(b2->Wait().ok());
  // With one worker, completion timestamps reflect execution order.
  EXPECT_LE(h1->completed_at(), n1->completed_at());
  EXPECT_LE(n1->completed_at(), b1->completed_at());
  EXPECT_LE(b1->completed_at(), b2->completed_at());
  EXPECT_TRUE(busy.blocker.Wait().ok());
}

// --- WaitFor / WaitUntil ------------------------------------------------------

TEST(ServiceTailTest, WaitForIsNonConsumingAndHonorsTimeout) {
  BusyService busy;
  auto queued = busy.service->SubmitReclaim(MakeSource(busy.dict, 1),
                                            Light(RequestPriority::kNormal));
  ASSERT_TRUE(queued.ok());
  // Still queued behind the blocker: a short wait must time out.
  EXPECT_FALSE(queued->WaitFor(std::chrono::milliseconds(1)));
  EXPECT_FALSE(queued->WaitUntil(Clock::now()));
  EXPECT_FALSE(queued->ready());

  EXPECT_TRUE(queued->Wait().ok());
  // Resolved: every readiness probe now succeeds without blocking,
  // repeatedly (non-consuming).
  EXPECT_TRUE(queued->WaitFor(std::chrono::seconds(0)));
  EXPECT_TRUE(queued->WaitUntil(Clock::now()));
  EXPECT_TRUE(queued->ready());
  EXPECT_TRUE(queued->WaitFor(std::chrono::seconds(0)));
  EXPECT_GT(queued->completed_at().time_since_epoch().count(), 0);
  EXPECT_TRUE(busy.blocker.Wait().ok());
}

// --- Snapshot fault injection -------------------------------------------------

TEST(ServiceTailTest, ReloadFaultsLeaveRegistryAndServingUntouched) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 2);
  ServiceOptions options;
  options.dict = dict;
  options.cache_capacity = 16;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  ReclaimRequest request;
  request.lake = "lake";
  Table source = MakeSource(dict, 0);
  auto reference = service.Reclaim(source, request);
  ASSERT_TRUE(reference.ok());
  (void)service.Reclaim(source, request);  // warm the discovery cache
  const auto cache_before = service.cache_stats();
  const uint64_t epoch_before = service.registry_epoch();

  // Fault 1: truncated snapshot (half the bytes of a valid one).
  const std::string valid = TempPath("tail_valid");
  const std::string truncated = TempPath("tail_truncated");
  ASSERT_TRUE(SaveV2(lake, valid).ok());
  {
    std::ifstream in(valid, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 8u);
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(service.ReloadLakeFromSnapshot("lake", truncated).ok());

  // Fault 2: garbage bytes.
  const std::string garbage = TempPath("tail_garbage");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a snapshot at all, not even close";
  }
  EXPECT_FALSE(service.ReloadLakeFromSnapshot("lake", garbage).ok());

  // Fault 3: missing file.
  EXPECT_FALSE(
      service.ReloadLakeFromSnapshot("lake", TempPath("tail_missing")).ok());

  // Failure atomicity: no epoch bump, same shard set, the old shard
  // keeps serving bit-identically, and warm cache entries survived
  // (a failed reload must not invalidate anything).
  EXPECT_EQ(service.registry_epoch(), epoch_before);
  EXPECT_EQ(service.num_lakes(), 1u);
  EXPECT_EQ(service.lake_names(), std::vector<std::string>{"lake"});
  auto after = service.Reclaim(source, request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(TablesBitIdentical(after->reclaimed, reference->reclaimed));
  EXPECT_GT(service.cache_stats().hits, cache_before.hits);

  // AddLakeFromSnapshot has the same atomicity: a failed add leaves the
  // registry untouched (no phantom shard, no epoch bump).
  EXPECT_FALSE(service.AddLakeFromSnapshot("fresh", truncated).ok());
  EXPECT_FALSE(service.AddLakeFromSnapshot("fresh", garbage).ok());
  EXPECT_EQ(service.registry_epoch(), epoch_before);
  EXPECT_EQ(service.num_lakes(), 1u);

  // A valid snapshot still works after the faults (nothing latched).
  EXPECT_TRUE(service.ReloadLakeFromSnapshot("lake", valid).ok());
  EXPECT_EQ(service.registry_epoch(), epoch_before + 1);
  auto reloaded = service.Reclaim(source, request);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(TablesBitIdentical(reloaded->reclaimed, reference->reclaimed));

  std::remove(valid.c_str());
  std::remove(truncated.c_str());
  std::remove(garbage.c_str());
}

TEST(ServiceTailTest, SaveSnapshotSurfacesWriteFailure) {
  // Injected ENOSPC on the first write: SaveSnapshotV2 must fail typed
  // and the commit protocol must leave no file at the destination.
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 2);
  GenT gent(lake);
  const std::string path = TempPath("tail_enospc");
  {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = io::OpBit(io::Op::kWrite);
    plan.kind = io::FaultKind::kErrno;
    plan.error_code = ENOSPC;
    injector.Arm(plan);
    io::ScopedFaultInjector scope(&injector);
    EXPECT_FALSE(
        SaveSnapshotV2(lake, gent.catalog().section_views(), path).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --- TSan hammer: cancel / reload / serve concurrently ------------------------

TEST(ServiceTailTest, CancelReloadServeHammer) {
  auto dict = MakeDictionary();
  DataLake lake = MakePairedLake(dict, 0, 4);
  const std::string snapshot = TempPath("tail_hammer");
  ASSERT_TRUE(SaveV2(lake, snapshot).ok());

  ServiceOptions options;
  options.dict = dict;
  options.num_threads = 2;
  options.cache_capacity = 16;
  options.admission_policy = AdmissionPolicy::kBlock;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLakeView("lake", lake).ok());

  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> accepted_cancels{0};

  // Registry churn for the whole hammer.
  std::thread churn([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(service.ReloadLakeFromSnapshot("lake", snapshot).ok());
      std::this_thread::yield();
    }
  });
  // Synchronous traffic racing the async queue.
  std::thread sync_traffic([&]() {
    ReclaimRequest request;
    request.lake = "lake";
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(service.Reclaim(MakeSource(dict, 1), request).ok());
    }
  });

  ReclaimRequest request;
  request.lake = "lake";
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ReclaimTicket> tickets;
    for (int i = 0; i < 4; ++i) {
      request.priority = static_cast<RequestPriority>(i % 3);
      request.deadline_seconds = (i % 2 == 0) ? 30.0 : 0.0;
      auto t = service.SubmitReclaim(MakeSource(dict, i % 4), request);
      ASSERT_TRUE(t.ok());
      tickets.push_back(std::move(*t));
    }
    // Cancel every other ticket from a second thread while they run.
    std::thread canceller([&]() {
      for (size_t i = 0; i < tickets.size(); i += 2) {
        if (tickets[i].Cancel()) {
          accepted_cancels.fetch_add(1, std::memory_order_relaxed);
          // The guarantee under fire: an accepted cancel ALWAYS
          // resolves Cancelled.
          EXPECT_EQ(tickets[i].Wait().status().code(),
                    StatusCode::kCancelled);
        }
      }
    });
    for (auto& t : tickets) {
      const auto& result = t.Wait();
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
            << result.status().ToString();
      }
    }
    canceller.join();
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  sync_traffic.join();

  const auto stats = service.admission_stats();
  EXPECT_EQ(stats.cancelled + stats.cancelled_mid_flight,
            accepted_cancels.load());
  EXPECT_EQ(stats.queued, 0u);
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace gent
