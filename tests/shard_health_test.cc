// Shard health and self-healing (DESIGN.md §5.11): a mapped shard that
// hits a storage fault is quarantined — fan-out answers bit-identically
// from the remaining shards, named requests get Unavailable — while
// background recovery reopens it with exponential backoff, falling back
// to a body-salvage rebuild when the snapshot's catalog tail stays
// damaged. The hammer test runs fan-out traffic concurrently with
// quarantine/heal cycles and is a TSan target.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/lake/snapshot.h"
#include "src/storage/io.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

class ShardHealthTest : public ::testing::Test {
 protected:
  ShardHealthTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_health_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~ShardHealthTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // One source split across the two shards: alpha holds the (k, a)
  // fragment, beta the (k, b) fragment, so a fan-out needs BOTH shards
  // for the full reclamation and the beta-only answer is a distinct,
  // still-valid result. Noise keeps each catalog non-trivial.
  void BuildFixture() {
    TableBuilder sb(dict_, "source0");
    sb.Columns({"k", "a", "b"});
    TableBuilder fa(dict_, "frag_a");
    fa.Columns({"k", "a"});
    TableBuilder fb(dict_, "frag_b");
    fb.Columns({"k", "b"});
    for (size_t r = 0; r < 12; ++r) {
      const std::string k = "k" + std::to_string(r);
      const std::string a = "a" + std::to_string(r % 5);
      const std::string b = "b" + std::to_string(r);
      sb.Row({k, a, b});
      fa.Row({k, a});
      fb.Row({k, b});
    }
    source_ = sb.Key({"k"}).Build();

    alpha_ = std::make_unique<DataLake>(dict_);
    ASSERT_TRUE(alpha_->AddTable(fa.Build()).ok());
    beta_ = std::make_unique<DataLake>(dict_);
    ASSERT_TRUE(beta_->AddTable(fb.Build()).ok());
    for (auto* lake : {alpha_.get(), beta_.get()}) {
      TableBuilder noise(dict_, lake == alpha_.get() ? "noise_a" : "noise_b");
      noise.Columns({"x", "y"});
      for (size_t r = 0; r < 40; ++r) {
        noise.Row({"nx" + std::to_string(r), "ny" + std::to_string(r)});
      }
      ASSERT_TRUE(lake->AddTable(noise.Build()).ok());
    }

    alpha_path_ = Path("alpha.snap");
    beta_path_ = Path("beta.snap");
    {
      GenT g(*alpha_);
      ASSERT_TRUE(
          SaveSnapshotV2(*alpha_, g.catalog().section_views(), alpha_path_)
              .ok());
    }
    {
      GenT g(*beta_);
      ASSERT_TRUE(
          SaveSnapshotV2(*beta_, g.catalog().section_views(), beta_path_)
              .ok());
    }
  }

  std::unique_ptr<ReclaimService> MakeService(const ShardHealthOptions& health,
                                              bool with_alpha = true) {
    ServiceOptions options;
    options.dict = dict_;
    options.num_threads = 1;
    options.cache_capacity = 0;
    options.health = health;
    auto service = std::make_unique<ReclaimService>(std::move(options));
    if (with_alpha) {
      EXPECT_TRUE(service->AddLakeFromSnapshot("alpha", alpha_path_).ok());
    }
    EXPECT_TRUE(service->AddLakeFromSnapshot("beta", beta_path_).ok());
    return service;
  }

  // Reference answers from pristine services: the full two-shard
  // reclamation and the beta-only one (what a fan-out must serve while
  // alpha is quarantined).
  void BuildReferences() {
    ReclaimRequest fan;  // empty lake = fan out
    auto full = MakeService(ShardHealthOptions{})->Reclaim(source_, fan);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ref_full_.emplace(std::move(*full));
    auto beta_only =
        MakeService(ShardHealthOptions{}, /*with_alpha=*/false)
            ->Reclaim(source_, fan);
    ASSERT_TRUE(beta_only.ok()) << beta_only.status().ToString();
    ref_beta_.emplace(std::move(*beta_only));
    // The two references must differ, or the routing assertions below
    // would be vacuous.
    ASSERT_FALSE(Same(*ref_full_, *ref_beta_));
  }

  static bool Same(const ReclamationResult& a, const ReclamationResult& b) {
    return TablesBitIdentical(a.reclaimed, b.reclaimed) &&
           a.originating_names == b.originating_names;
  }

  static ReclaimService::ShardHealthStats HealthOf(
      const ReclaimService& service, const std::string& name) {
    for (const auto& h : service.health_stats()) {
      if (h.name == name) return h;
    }
    ADD_FAILURE() << "no health entry for shard '" << name << "'";
    return {};
  }

  template <typename Pred>
  static bool WaitFor(Pred pred, double seconds = 8.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  }

  /// XORs 8 bytes in the snapshot footer region. Section payloads are
  /// untouched, so an already-open mapped shard keeps serving correct
  /// bytes — but VerifySnapshotIntegrity and any reopen must fail until
  /// the same call flips them back.
  static void FlipFooterBytes(const std::string& path) {
    const auto size = std::filesystem::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 12));
    char bytes[8];
    f.read(bytes, sizeof bytes);
    for (char& c : bytes) c = static_cast<char>(c ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size - 12));
    f.write(bytes, sizeof bytes);
  }

  /// XORs one byte early in the base body. Unlike a damaged footer —
  /// which, once the file has delta runs, reads as a torn append and
  /// falls back to the previous commit — this always fails verification.
  static void FlipBodyByte(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(60);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(60);
    f.write(&byte, 1);
  }

  /// Quarantines shard `name` through the on-demand probe: damages its
  /// snapshot, lets CheckShardHealth observe it, then restores the byte
  /// so a later reopen or fold succeeds.
  static void QuarantineThroughProbe(const ReclaimService& service,
                                     const std::string& name,
                                     const std::string& path) {
    FlipBodyByte(path);
    EXPECT_FALSE(service.CheckShardHealth(name).ok());
    FlipBodyByte(path);
  }

  /// One small table on the fixture dictionary, for appends.
  std::vector<Table> ExtraTables(const std::string& name) const {
    TableBuilder b(dict_, name);
    b.Columns({"k", "z"});
    for (size_t r = 0; r < 6; ++r) {
      b.Row({"k" + std::to_string(r), "z" + std::to_string(r)});
    }
    std::vector<Table> tables;
    tables.push_back(b.Build());
    return tables;
  }

  static void ExpectCleanHealth(const ReclaimService::ShardHealthStats& h) {
    EXPECT_EQ(h.state, ShardHealth::kHealthy);
    EXPECT_EQ(h.error_count, 0u);
    EXPECT_EQ(h.recovery_attempts, 0u);
    EXPECT_EQ(h.recoveries, 0u);
    EXPECT_FALSE(h.rebuilt_from_body);
    EXPECT_TRUE(h.last_error.empty());
    EXPECT_EQ(h.next_retry_in_seconds, 0);
  }

  /// Builds a service whose alpha shard took an injected mapped-read
  /// fault while pinning its spine at open: its sticky storage health
  /// is already bad; the first served request's post-serve sweep will
  /// quarantine it. Returns null if the mapped backend is unavailable.
  std::unique_ptr<ReclaimService> MakeServiceWithFaultedAlpha(
      const ShardHealthOptions& health) {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = io::OpBit(io::Op::kMapRead);
    plan.trigger_at = 1;  // first prefault probe = alpha's spine pin
    plan.kind = io::FaultKind::kErrno;
    plan.error_code = EIO;
    injector.Arm(plan);
    std::unique_ptr<ReclaimService> service;
    {
      io::ScopedFaultInjector scope(&injector);
      service = MakeService(health);
    }
    if (!service->residency_stats()[0].catalog.mapped) return nullptr;
    EXPECT_GT(service->residency_stats()[0].catalog.pool_read_faults, 0u);
    return service;
  }

  DictionaryPtr dict_ = MakeDictionary();
  std::unique_ptr<DataLake> alpha_;
  std::unique_ptr<DataLake> beta_;
  Table source_{"source0", nullptr};
  std::string alpha_path_;
  std::string beta_path_;
  std::optional<ReclamationResult> ref_full_;
  std::optional<ReclamationResult> ref_beta_;
  std::filesystem::path dir_;
};

TEST_F(ShardHealthTest, QuarantineRoutesAroundFaultedShard) {
  BuildFixture();
  BuildReferences();
  ShardHealthOptions health;
  health.auto_recover = false;  // freeze the quarantined state
  auto service = MakeServiceWithFaultedAlpha(health);
  if (!service) GTEST_SKIP() << "mmap unavailable";

  // Nothing served yet: the fault has not been observed by routing.
  EXPECT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kHealthy);

  // The faulting request itself still serves the full, bit-identical
  // answer (the injected fault poisons health, not bytes) ...
  ReclaimRequest fan;  // empty lake = fan out
  auto first = service->Reclaim(source_, fan);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(Same(*first, *ref_full_));

  // ... and its post-serve sweep quarantines alpha.
  auto alpha = HealthOf(*service, "alpha");
  EXPECT_EQ(alpha.state, ShardHealth::kQuarantined);
  EXPECT_GE(alpha.error_count, 1u);
  EXPECT_FALSE(alpha.last_error.empty());
  EXPECT_EQ(alpha.next_retry_in_seconds, -1);  // auto_recover off
  EXPECT_EQ(HealthOf(*service, "beta").state, ShardHealth::kHealthy);

  // Named request to the quarantined shard: typed Unavailable.
  ReclaimRequest named;
  named.lake = "alpha";
  auto rejected = service->Reclaim(source_, named);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service->routing_stats().unavailable_rejects, 1u);

  // Fan-out routes around alpha and serves the beta-only reference
  // bit-identically.
  auto partial = service->Reclaim(source_, fan);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(Same(*partial, *ref_beta_));
  EXPECT_EQ(service->routing_stats().shards_quarantine_skipped, 1u);

  // The healthy shard still answers by name.
  named.lake = "beta";
  EXPECT_TRUE(service->Reclaim(source_, named).ok());
}

TEST_F(ShardHealthTest, BackgroundRecoveryHealsWithNewUid) {
  BuildFixture();
  BuildReferences();
  ShardHealthOptions health;
  health.backoff_initial_seconds = 0.01;
  health.backoff_max_seconds = 0.05;
  auto service = MakeServiceWithFaultedAlpha(health);
  if (!service) GTEST_SKIP() << "mmap unavailable";

  ReclaimRequest fan;  // empty lake = fan out
  ASSERT_TRUE(service->Reclaim(source_, fan).ok());  // triggers quarantine
  const uint64_t old_uid = HealthOf(*service, "alpha").uid;

  // The snapshot file is intact, so the first retry's full reopen
  // heals the shard: healthy, not salvaged, counted, re-keyed.
  ASSERT_TRUE(WaitFor([&] {
    const auto h = HealthOf(*service, "alpha");
    return h.state == ShardHealth::kHealthy && h.recoveries >= 1;
  })) << "shard did not heal in time";
  const auto healed = HealthOf(*service, "alpha");
  EXPECT_NE(healed.uid, old_uid) << "a healed shard must carry a new uid";
  EXPECT_FALSE(healed.rebuilt_from_body);
  EXPECT_EQ(healed.recovery_attempts, 0u);

  auto after = service->Reclaim(source_, fan);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(Same(*after, *ref_full_));
  ReclaimRequest named;
  named.lake = "alpha";
  EXPECT_TRUE(service->Reclaim(source_, named).ok());
}

TEST_F(ShardHealthTest, DamagedCatalogTailSalvagesToDegraded) {
  BuildFixture();
  BuildReferences();
  ShardHealthOptions health;
  health.backoff_initial_seconds = 0.01;
  health.backoff_max_seconds = 0.05;
  auto service = MakeService(health);
  if (!service->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable";
  }

  // Damage the on-disk catalog tail under the serving shard, then
  // probe: CheckShardHealth re-verifies the file and must quarantine.
  FlipFooterBytes(alpha_path_);
  Status probe = service->CheckShardHealth("alpha");
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kQuarantined);

  // Recovery cannot fully reopen (tail damaged) but salvages the body:
  // the shard serves again, degraded, catalog rebuilt in RAM.
  ASSERT_TRUE(WaitFor([&] {
    return HealthOf(*service, "alpha").state == ShardHealth::kDegraded;
  })) << "salvage did not complete in time";
  const auto salvaged = HealthOf(*service, "alpha");
  EXPECT_TRUE(salvaged.rebuilt_from_body);
  EXPECT_GE(salvaged.recoveries, 1u);
  EXPECT_FALSE(service->residency_stats()[0].catalog.mapped)
      << "a salvaged shard serves from RAM";

  // Backend parity: the rebuilt catalog answers bit-identically.
  ReclaimRequest fan;  // empty lake = fan out
  auto after = service->Reclaim(source_, fan);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(Same(*after, *ref_full_));

  // And CheckShardHealth on the healthy-file shard stays clean.
  EXPECT_TRUE(service->CheckShardHealth("beta").ok());
  EXPECT_EQ(service->CheckShardHealth("nope").code(), StatusCode::kNotFound);
}

TEST_F(ShardHealthTest, RetryBudgetExhaustsAndStopsRescheduling) {
  BuildFixture();
  BuildReferences();
  ShardHealthOptions health;
  health.backoff_initial_seconds = 0.005;
  health.backoff_max_seconds = 0.02;
  health.max_recovery_attempts = 2;
  auto service = MakeService(health);
  if (!service->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable";
  }

  // Unlink the backing snapshot: every recovery attempt — full reopen
  // AND body salvage — must fail, so the budget runs out.
  ASSERT_TRUE(std::filesystem::remove(alpha_path_));
  ASSERT_FALSE(service->CheckShardHealth("alpha").ok());

  ASSERT_TRUE(WaitFor([&] {
    return HealthOf(*service, "alpha").next_retry_in_seconds == -1;
  })) << "retry budget did not exhaust in time";
  const auto exhausted = HealthOf(*service, "alpha");
  EXPECT_EQ(exhausted.state, ShardHealth::kQuarantined);
  EXPECT_EQ(exhausted.recovery_attempts, 2u);

  // The service keeps answering from the surviving shard.
  ReclaimRequest fan;  // empty lake = fan out
  auto partial = service->Reclaim(source_, fan);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(Same(*partial, *ref_beta_));
}

// Health belongs to the registration: a quarantined shard refuses
// appends before touching its file or the registry.
TEST_F(ShardHealthTest, AppendToQuarantinedShardIsUnavailable) {
  BuildFixture();
  ShardHealthOptions health;
  health.auto_recover = false;  // freeze the quarantined state
  auto service = MakeService(health);
  QuarantineThroughProbe(*service, "alpha", alpha_path_);
  ASSERT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kQuarantined);

  const uint64_t epoch = service->registry_epoch();
  const auto file_size = std::filesystem::file_size(alpha_path_);
  Status st = service->AppendTablesToLake("alpha", ExtraTables("extra"));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(service->registry_epoch(), epoch);
  EXPECT_EQ(std::filesystem::file_size(alpha_path_), file_size);
  EXPECT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kQuarantined);

  // The healthy shard still takes appends.
  ASSERT_TRUE(service->AppendTablesToLake("beta", ExtraTables("extra")).ok());
  EXPECT_EQ(service->registry_epoch(), epoch + 1);
}

// A fold republishes the same registration, so it keeps the uid and
// with it the quarantine: compaction never heals a shard.
TEST_F(ShardHealthTest, CompactingAQuarantinedShardKeepsItQuarantined) {
  BuildFixture();
  ShardHealthOptions health;
  health.auto_recover = false;
  auto service = MakeService(health);
  ASSERT_TRUE(service->AppendTablesToLake("alpha", ExtraTables("extra")).ok());
  QuarantineThroughProbe(*service, "alpha", alpha_path_);
  const auto before = HealthOf(*service, "alpha");
  ASSERT_EQ(before.state, ShardHealth::kQuarantined);

  const uint64_t epoch = service->registry_epoch();
  ASSERT_TRUE(service->CompactShardSnapshot("alpha").ok());
  EXPECT_EQ(service->registry_epoch(), epoch + 1) << "fold not republished";
  const auto after = HealthOf(*service, "alpha");
  EXPECT_EQ(after.uid, before.uid);
  EXPECT_EQ(after.state, ShardHealth::kQuarantined);
  EXPECT_EQ(after.error_count, before.error_count);

  ReclaimRequest named;
  named.lake = "alpha";
  EXPECT_EQ(service->Reclaim(source_, named).status().code(),
            StatusCode::kUnavailable);
}

// A reload and a remove + re-add are new registrations: their health
// starts from zero, whatever the name's previous registration went
// through.
TEST_F(ShardHealthTest, ReloadAndReAddStartFromCleanHealth) {
  BuildFixture();
  ShardHealthOptions health;
  health.auto_recover = false;
  auto service = MakeService(health);
  ReclaimRequest named;
  named.lake = "alpha";

  QuarantineThroughProbe(*service, "alpha", alpha_path_);
  ASSERT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kQuarantined);
  ASSERT_TRUE(service->ReloadLakeFromSnapshot("alpha", alpha_path_).ok());
  ExpectCleanHealth(HealthOf(*service, "alpha"));
  EXPECT_TRUE(service->Reclaim(source_, named).ok());

  QuarantineThroughProbe(*service, "alpha", alpha_path_);
  ASSERT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kQuarantined);
  ASSERT_TRUE(service->RemoveLake("alpha").ok());
  ASSERT_TRUE(service->AddLakeFromSnapshot("alpha", alpha_path_).ok());
  ExpectCleanHealth(HealthOf(*service, "alpha"));
  EXPECT_TRUE(service->Reclaim(source_, named).ok());
}

// Recovery publishes a new registration (new uid) that inherits the
// old one's fault history: error_count and recoveries accumulate over
// quarantine/heal cycles.
TEST_F(ShardHealthTest, HealedShardKeepsErrorCountAndRecoveries) {
  BuildFixture();
  ShardHealthOptions health;
  health.backoff_initial_seconds = 0.01;
  health.backoff_max_seconds = 0.05;
  auto service = MakeService(health);

  for (uint64_t round = 1; round <= 2; ++round) {
    const uint64_t old_uid = HealthOf(*service, "alpha").uid;
    // One probe, one fault. Recovery may run before the bytes are
    // restored (then it salvages to kDegraded) or after (kHealthy).
    QuarantineThroughProbe(*service, "alpha", alpha_path_);
    ASSERT_TRUE(WaitFor([&] {
      const auto h = HealthOf(*service, "alpha");
      return h.uid != old_uid && h.state != ShardHealth::kQuarantined;
    })) << "round " << round << ": shard did not heal in time";
    const auto healed = HealthOf(*service, "alpha");
    EXPECT_EQ(healed.error_count, round);
    EXPECT_EQ(healed.recoveries, round);
    EXPECT_EQ(healed.recovery_attempts, 0u);
    EXPECT_FALSE(healed.last_error.empty());
  }
}

// The TSan target: fan-out readers run concurrently with repeated
// corrupt → quarantine → restore → heal cycles. Every reader result
// must be bit-identical to the full reference or the beta-only
// reference — never an error, never a hybrid.
// A damaged newest footer on a file with delta runs reads as a torn
// append: the file verifies at the previous commit, and a reload would
// silently drop the append. The shard knows how many runs it committed,
// so the probe must report the loss and quarantine it.
TEST_F(ShardHealthTest, DamagedNewestFooterAfterAppendQuarantines) {
  BuildFixture();
  ShardHealthOptions health;
  health.auto_recover = false;
  auto service = MakeService(health);
  ASSERT_TRUE(service->AppendTablesToLake("alpha", ExtraTables("extra")).ok());
  ASSERT_TRUE(service->CheckShardHealth("alpha").ok());

  FlipFooterBytes(alpha_path_);
  size_t runs = 1;
  EXPECT_TRUE(VerifySnapshotIntegrity(alpha_path_, &runs).ok());
  EXPECT_EQ(runs, 0u);
  Status st = service->CheckShardHealth("alpha");
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_EQ(HealthOf(*service, "alpha").state, ShardHealth::kQuarantined);
  EXPECT_TRUE(service->CheckShardHealth("beta").ok());
  FlipFooterBytes(alpha_path_);

  // Restored, the file verifies at the committed run count again; after
  // a fold the shard expects no runs.
  EXPECT_TRUE(VerifySnapshotIntegrity(alpha_path_, &runs).ok());
  EXPECT_EQ(runs, 1u);
  ASSERT_TRUE(service->CompactShardSnapshot("alpha").ok());
  EXPECT_TRUE(VerifySnapshotIntegrity(alpha_path_, &runs).ok());
  EXPECT_EQ(runs, 0u);
}

TEST_F(ShardHealthTest, HammerFanOutDuringQuarantineHealCycles) {
  BuildFixture();
  BuildReferences();
  ShardHealthOptions health;
  health.backoff_initial_seconds = 0.01;
  health.backoff_max_seconds = 0.05;
  auto service = MakeService(health);
  if (!service->residency_stats()[0].catalog.mapped) {
    GTEST_SKIP() << "mmap unavailable";
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      ReclaimRequest fan;  // empty lake = fan out
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = service->Reclaim(source_, fan);
        if (!r.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        served.fetch_add(1, std::memory_order_relaxed);
        if (!Same(*r, *ref_full_) && !Same(*r, *ref_beta_)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto serving = [&] {
    return HealthOf(*service, "alpha").state != ShardHealth::kQuarantined;
  };
  for (int round = 0; round < 4; ++round) {
    FlipFooterBytes(alpha_path_);
    (void)service->CheckShardHealth("alpha");  // observes the damage
    EXPECT_TRUE(WaitFor([&] {
      const auto h = HealthOf(*service, "alpha");
      return h.state == ShardHealth::kQuarantined ||
             h.state == ShardHealth::kDegraded;
    })) << "round " << round << ": quarantine not observed";
    FlipFooterBytes(alpha_path_);  // restore
    EXPECT_TRUE(WaitFor(serving))
        << "round " << round << ": shard did not return to service";
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  // The cycles actually exercised recovery.
  EXPECT_GE(HealthOf(*service, "alpha").recoveries, 1u);
}

}  // namespace
}  // namespace gent
