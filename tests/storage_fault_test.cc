// Deterministic storage-fault tests (DESIGN.md §5.11): the gent::io
// FaultInjector unit contract, failure atomicity of the crash-atomic
// snapshot commit (injected ENOSPC/EIO/short writes leave the
// destination untouched and strand no temp), an exhaustive crash-point
// matrix over the v2 writer (every prefix of the write stream leaves
// the destination loadable as the OLD snapshot or the NEW one, never a
// hybrid), orphan-temp sweeping, and VerifySnapshotIntegrity.

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/lake/snapshot.h"
#include "src/storage/catalog_pager.h"
#include "src/storage/io.h"
#include "src/storage/paged_file.h"
#include "src/table/table_builder.h"
#include "tests/snapshot_fixtures.h"

namespace gent {
namespace {

class StorageFaultTest : public ::testing::Test {
 protected:
  StorageFaultTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_fault_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~StorageFaultTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string TempName(const std::string& path) const {
    return path + ".tmp." + std::to_string(::getpid());
  }

  /// A small lake whose single table carries `marker` — enough to tell
  /// apart which snapshot generation a loaded file came from.
  static DataLake MakeLake(const std::string& marker) {
    DataLake lake;
    (void)lake.AddTable(TableBuilder(lake.dict(), "data")
                            .Columns({"k", "v"})
                            .Row({"1", marker})
                            .Row({"2", "shared"})
                            .Key({"k"})
                            .Build());
    return lake;
  }

  /// Loads `path` into a fresh lake and returns the marker cell, or ""
  /// if the load failed (the caller asserts on it).
  static std::string MarkerOf(const std::string& path) {
    DataLake lake;
    if (!LoadSnapshot(lake, path).ok()) return std::string();
    if (lake.size() != 1 || lake.table(0).num_rows() < 1) return std::string();
    return std::string(lake.table(0).CellString(0, 1));
  }

  std::filesystem::path dir_;
};

// --- Injector unit behavior -------------------------------------------------

TEST_F(StorageFaultTest, InjectorCountsTriggersAndCrashSticks) {
  io::FaultInjector injector;
  EXPECT_EQ(injector.CountOf(io::Op::kWrite), 0u);

  // Unarmed: every call passes but is counted.
  EXPECT_EQ(injector.OnCall(io::Op::kWrite), io::FaultInjector::Outcome::kPass);
  EXPECT_EQ(injector.CountOf(io::Op::kWrite), 1u);

  // One-shot errno on the 2nd matching call; later calls pass again.
  io::FaultPlan plan;
  plan.op_mask = io::OpBit(io::Op::kWrite);
  plan.trigger_at = 2;
  plan.kind = io::FaultKind::kErrno;
  plan.error_code = ENOSPC;
  injector.Arm(plan);
  EXPECT_EQ(injector.OnCall(io::Op::kFlush),
            io::FaultInjector::Outcome::kPass);  // not in mask
  EXPECT_EQ(injector.OnCall(io::Op::kWrite), io::FaultInjector::Outcome::kPass);
  EXPECT_EQ(injector.OnCall(io::Op::kWrite),
            io::FaultInjector::Outcome::kErrno);
  EXPECT_EQ(injector.OnCall(io::Op::kWrite), io::FaultInjector::Outcome::kPass);
  EXPECT_EQ(injector.error_code(), ENOSPC);

  // Crash: sticky for mutating ops, reads still pass.
  plan.trigger_at = 1;
  plan.kind = io::FaultKind::kCrash;
  injector.Arm(plan);
  EXPECT_FALSE(injector.crashed());
  EXPECT_EQ(injector.OnCall(io::Op::kWrite),
            io::FaultInjector::Outcome::kCrashed);
  EXPECT_TRUE(injector.crashed());
  EXPECT_EQ(injector.OnCall(io::Op::kRename),
            io::FaultInjector::Outcome::kCrashed);
  EXPECT_EQ(injector.OnCall(io::Op::kRemove),
            io::FaultInjector::Outcome::kCrashed);
  EXPECT_EQ(injector.OnCall(io::Op::kRead), io::FaultInjector::Outcome::kPass);
  EXPECT_EQ(injector.OnCall(io::Op::kStat), io::FaultInjector::Outcome::kPass);
}

// --- Failure atomicity ------------------------------------------------------

TEST_F(StorageFaultTest, InjectedErrnoLeavesNoDestinationAndNoTemp) {
  DataLake lake = MakeLake("m");
  GenT gent(lake);
  const auto views = gent.catalog().section_views();
  const std::string path = Path("fresh.snap");
  // Fail each op class the commit path exercises, one save per class.
  const io::Op ops[] = {io::Op::kOpen, io::Op::kWrite, io::Op::kFlush,
                        io::Op::kSync, io::Op::kRename};
  for (io::Op op : ops) {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = io::OpBit(op);
    plan.kind = io::FaultKind::kErrno;
    plan.error_code = EIO;
    injector.Arm(plan);
    {
      io::ScopedFaultInjector scope(&injector);
      Status s = SaveSnapshotV2(lake, views, path);
      // A kSync fault can land on SyncParentDir — after the rename — in
      // which case the commit happened; status is still an error.
      EXPECT_FALSE(s.ok()) << "op " << static_cast<int>(op);
      EXPECT_EQ(s.code(), StatusCode::kIOError);
    }
    EXPECT_FALSE(std::filesystem::exists(TempName(path)))
        << "op " << static_cast<int>(op);
    if (std::filesystem::exists(path)) {
      // Only the post-rename sync failure may leave the file — and then
      // it must be the complete new snapshot.
      EXPECT_EQ(op, io::Op::kSync);
      EXPECT_EQ(MarkerOf(path), "m");
      std::filesystem::remove(path);
    }
  }
}

TEST_F(StorageFaultTest, ShortWriteNeverReachesDestination) {
  DataLake lake = MakeLake("m");
  GenT gent(lake);
  const std::string path = Path("short.snap");
  io::FaultInjector injector;
  io::FaultPlan plan;
  plan.op_mask = io::OpBit(io::Op::kWrite);
  plan.trigger_at = 4;
  plan.kind = io::FaultKind::kShortWrite;
  injector.Arm(plan);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(
        SaveSnapshotV2(lake, gent.catalog().section_views(), path).code(),
        StatusCode::kIOError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(TempName(path)));
}

TEST_F(StorageFaultTest, FailedOverwriteKeepsOldSnapshotLoadable) {
  // The destination already holds a good snapshot; a failed re-save
  // must leave it byte-for-byte serviceable.
  const std::string path = Path("overwrite.snap");
  ASSERT_TRUE(SaveV2(MakeLake("old"), path).ok());

  DataLake next = MakeLake("new");
  GenT next_gent(next);
  io::FaultInjector injector;
  io::FaultPlan plan;
  plan.op_mask = io::OpBit(io::Op::kWrite);
  plan.trigger_at = 2;
  plan.kind = io::FaultKind::kErrno;
  plan.error_code = ENOSPC;
  injector.Arm(plan);
  {
    io::ScopedFaultInjector scope(&injector);
    EXPECT_FALSE(
        SaveSnapshotV2(next, next_gent.catalog().section_views(), path).ok());
  }
  EXPECT_EQ(MarkerOf(path), "old");
  EXPECT_TRUE(VerifySnapshotIntegrity(path).ok());
  EXPECT_FALSE(std::filesystem::exists(TempName(path)));
}

// --- Crash-point matrix over the v2 writer ----------------------------------

TEST_F(StorageFaultTest, V2CrashPointMatrixLeavesOldOrNew) {
  // Enumerate every mutating storage call a SaveSnapshotV2 issues and
  // simulate a crash at each one. After every crash point the
  // destination must load as exactly the OLD snapshot or exactly the
  // NEW one (and verify end to end); a stranded temp must be exactly
  // what SweepSnapshotTemps collects.
  const std::string path = Path("matrix.snap");
  {
    DataLake old_lake = MakeLake("old");
    GenT old_gent(old_lake);
    ASSERT_TRUE(
        SaveSnapshotV2(old_lake, old_gent.catalog().section_views(), path)
            .ok());
  }
  DataLake new_lake = MakeLake("new");
  GenT new_gent(new_lake);
  const auto views = new_gent.catalog().section_views();

  constexpr uint32_t kMutatingMask =
      io::OpBit(io::Op::kOpen) | io::OpBit(io::Op::kWrite) |
      io::OpBit(io::Op::kFlush) | io::OpBit(io::Op::kSync) |
      io::OpBit(io::Op::kRename);

  // Counting run: one injected-but-disarmed save sizes the matrix.
  // (The injector disables stdio buffering, so the op sequence of the
  // counting run is identical to every crash run's.)
  uint64_t total_ops = 0;
  {
    io::FaultInjector counter;
    io::ScopedFaultInjector scope(&counter);
    const std::string probe = Path("probe.snap");
    ASSERT_TRUE(SaveSnapshotV2(new_lake, views, probe).ok());
    total_ops = counter.CountOf(io::Op::kOpen) +
                counter.CountOf(io::Op::kWrite) +
                counter.CountOf(io::Op::kFlush) +
                counter.CountOf(io::Op::kSync) +
                counter.CountOf(io::Op::kRename);
  }
  ASSERT_GT(total_ops, 4u);

  size_t old_outcomes = 0;
  size_t new_outcomes = 0;
  for (uint64_t k = 1; k <= total_ops; ++k) {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = kMutatingMask;
    plan.trigger_at = k;
    plan.kind = io::FaultKind::kCrash;
    injector.Arm(plan);
    {
      io::ScopedFaultInjector scope(&injector);
      (void)SaveSnapshotV2(new_lake, views, path);
      EXPECT_TRUE(injector.crashed()) << "crash point " << k;
    }

    // Crash anywhere: the destination is the old file intact or the
    // new file complete — and verifies byte-for-byte either way.
    const std::string marker = MarkerOf(path);
    EXPECT_TRUE(marker == "old" || marker == "new")
        << "crash point " << k << " left an unloadable/hybrid file";
    EXPECT_TRUE(VerifySnapshotIntegrity(path).ok()) << "crash point " << k;
    if (marker == "old") {
      ++old_outcomes;
    } else {
      ++new_outcomes;
    }

    // A crash strands its temp (cleanup "didn't run"); the startup
    // sweep must collect it — and must collect nothing else.
    const bool stranded = std::filesystem::exists(TempName(path));
    const size_t swept = SweepSnapshotTemps(dir_.string());
    EXPECT_EQ(swept, stranded ? 1u : 0u) << "crash point " << k;
    EXPECT_FALSE(std::filesystem::exists(TempName(path)));

    // Re-seed the old generation when the crash landed pre-commit, so
    // every iteration starts from the same two-generation state.
    if (marker != "old") {
      // New content committed: it IS the old generation from here on —
      // no reseed needed, both generations now carry "new". Rewrite a
      // fresh "old" so the old-vs-new discrimination stays sharp.
      DataLake old_lake = MakeLake("old");
      GenT old_gent(old_lake);
      ASSERT_TRUE(
          SaveSnapshotV2(old_lake, old_gent.catalog().section_views(), path)
              .ok());
    }
  }
  // The matrix must actually exercise both outcomes: early crash
  // points preserve the old file, the post-rename tail yields the new.
  EXPECT_GT(old_outcomes, 0u);
  EXPECT_GT(new_outcomes, 0u);
}

// --- Crash-point matrix over the delta-append writer ------------------------

TEST_F(StorageFaultTest, DeltaAppendCrashPointMatrixLeavesOldOrNew) {
  // AppendSnapshotDelta mutates the snapshot IN PLACE (no temp file):
  // run blob, rewritten delta directory, fsync barrier, new footer,
  // fsync. Crash at every mutating call; the file must load as exactly
  // the pre-append generation (base only) or the post-append one (base
  // plus the run's table), and verify end to end either way.
  DictionaryPtr dict = MakeDictionary();
  DataLake base_lake(dict);
  ASSERT_TRUE(base_lake.AddTable(TableBuilder(dict, "data")
                                     .Columns({"k", "v"})
                                     .Row({"1", "old"})
                                     .Key({"k"})
                                     .Build())
                  .ok());
  GenT base_gent(base_lake);
  const std::string tmpl = Path("append_base.snap");
  ASSERT_TRUE(
      SaveSnapshotV2(base_lake, base_gent.catalog().section_views(), tmpl)
          .ok());

  // The appended table interns values the base file's dictionary does
  // not cover, so the run must carry the growth too.
  DataLake full_lake(base_lake);
  ASSERT_TRUE(full_lake.AddTable(TableBuilder(dict, "extra")
                                     .Columns({"x"})
                                     .Row({"appended_value"})
                                     .Build())
                  .ok());
  const auto run = ColumnStatsCatalog::BuildDeltaRun(full_lake, 1);

  const std::string path = Path("append.snap");
  const auto reset = [&] {
    std::filesystem::copy_file(
        tmpl, path, std::filesystem::copy_options::overwrite_existing);
  };

  constexpr uint32_t kMutatingMask =
      io::OpBit(io::Op::kOpen) | io::OpBit(io::Op::kWrite) |
      io::OpBit(io::Op::kFlush) | io::OpBit(io::Op::kSync) |
      io::OpBit(io::Op::kRename);

  uint64_t total_ops = 0;
  {
    reset();
    io::FaultInjector counter;
    io::ScopedFaultInjector scope(&counter);
    ASSERT_TRUE(
        AppendSnapshotDelta(full_lake, 1, run.views(), path).ok());
    total_ops = counter.CountOf(io::Op::kOpen) +
                counter.CountOf(io::Op::kWrite) +
                counter.CountOf(io::Op::kFlush) +
                counter.CountOf(io::Op::kSync) +
                counter.CountOf(io::Op::kRename);
  }
  ASSERT_GT(total_ops, 3u);

  size_t old_outcomes = 0;
  size_t new_outcomes = 0;
  for (uint64_t k = 1; k <= total_ops; ++k) {
    reset();
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = kMutatingMask;
    plan.trigger_at = k;
    plan.kind = io::FaultKind::kCrash;
    injector.Arm(plan);
    {
      io::ScopedFaultInjector scope(&injector);
      (void)AppendSnapshotDelta(full_lake, 1, run.views(), path);
      EXPECT_TRUE(injector.crashed()) << "crash point " << k;
    }

    DataLake loaded;
    SnapshotLoadInfo info;
    ASSERT_TRUE(LoadSnapshot(loaded, path, &info).ok())
        << "crash point " << k << " left an unloadable file";
    ASSERT_TRUE(loaded.size() == 1 || loaded.size() == 2)
        << "crash point " << k << " left a hybrid";
    if (loaded.size() == 1) {
      EXPECT_EQ(info.delta_runs, 0u) << "crash point " << k;
      ++old_outcomes;
    } else {
      EXPECT_EQ(info.delta_runs, 1u) << "crash point " << k;
      EXPECT_EQ(loaded.table(1).CellString(0, 0), "appended_value")
          << "crash point " << k;
      ++new_outcomes;
    }
    EXPECT_TRUE(VerifySnapshotIntegrity(path).ok()) << "crash point " << k;
    // In-place append never stages a temp, crashed or not.
    EXPECT_EQ(SweepSnapshotTemps(dir_.string()), 0u) << "crash point " << k;
  }
  // Pre-barrier crashes keep the old generation; the footer write and
  // the post-commit fsync yield the new one.
  EXPECT_GT(old_outcomes, 0u);
  EXPECT_GT(new_outcomes, 0u);
}

// --- Crash-point matrix over compaction -------------------------------------

TEST_F(StorageFaultTest, CompactionCrashPointMatrixLeavesOldOrNew) {
  // CompactSnapshotV2 folds runs via the temp + rename commit. A crash
  // at any mutating call leaves the file loadable with the SAME content
  // either way — with its run (not yet folded) or without (folded);
  // only delta_runs tells the generations apart.
  DictionaryPtr dict = MakeDictionary();
  DataLake base_lake(dict);
  ASSERT_TRUE(base_lake.AddTable(TableBuilder(dict, "data")
                                     .Columns({"k", "v"})
                                     .Row({"1", "m"})
                                     .Key({"k"})
                                     .Build())
                  .ok());
  GenT base_gent(base_lake);
  const std::string tmpl = Path("compact_base.snap");
  ASSERT_TRUE(
      SaveSnapshotV2(base_lake, base_gent.catalog().section_views(), tmpl)
          .ok());
  DataLake full_lake(base_lake);
  ASSERT_TRUE(full_lake.AddTable(TableBuilder(dict, "extra")
                                     .Columns({"x"})
                                     .Row({"run_value"})
                                     .Build())
                  .ok());
  {
    const auto run = ColumnStatsCatalog::BuildDeltaRun(full_lake, 1);
    ASSERT_TRUE(
        AppendSnapshotDelta(full_lake, 1, run.views(), tmpl).ok());
  }

  const std::string path = Path("compact.snap");
  const auto reset = [&] {
    std::filesystem::copy_file(
        tmpl, path, std::filesystem::copy_options::overwrite_existing);
  };

  constexpr uint32_t kMutatingMask =
      io::OpBit(io::Op::kOpen) | io::OpBit(io::Op::kWrite) |
      io::OpBit(io::Op::kFlush) | io::OpBit(io::Op::kSync) |
      io::OpBit(io::Op::kRename);

  uint64_t total_ops = 0;
  {
    reset();
    io::FaultInjector counter;
    io::ScopedFaultInjector scope(&counter);
    size_t folded = 0;
    ASSERT_TRUE(CompactSnapshotV2(path, &folded).ok());
    ASSERT_EQ(folded, 1u);
    total_ops = counter.CountOf(io::Op::kOpen) +
                counter.CountOf(io::Op::kWrite) +
                counter.CountOf(io::Op::kFlush) +
                counter.CountOf(io::Op::kSync) +
                counter.CountOf(io::Op::kRename);
  }
  ASSERT_GT(total_ops, 4u);

  size_t unfolded_outcomes = 0;
  size_t folded_outcomes = 0;
  for (uint64_t k = 1; k <= total_ops; ++k) {
    reset();
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = kMutatingMask;
    plan.trigger_at = k;
    plan.kind = io::FaultKind::kCrash;
    injector.Arm(plan);
    {
      io::ScopedFaultInjector scope(&injector);
      (void)CompactSnapshotV2(path);
      EXPECT_TRUE(injector.crashed()) << "crash point " << k;
    }

    DataLake loaded;
    SnapshotLoadInfo info;
    ASSERT_TRUE(LoadSnapshot(loaded, path, &info).ok())
        << "crash point " << k << " left an unloadable file";
    // Content is generation-independent: both tables, same cells.
    ASSERT_EQ(loaded.size(), 2u) << "crash point " << k;
    EXPECT_EQ(loaded.table(0).CellString(0, 1), "m") << "crash point " << k;
    EXPECT_EQ(loaded.table(1).CellString(0, 0), "run_value")
        << "crash point " << k;
    EXPECT_TRUE(VerifySnapshotIntegrity(path).ok()) << "crash point " << k;
    if (info.delta_runs == 1) {
      ++unfolded_outcomes;
    } else {
      EXPECT_EQ(info.delta_runs, 0u) << "crash point " << k;
      ++folded_outcomes;
    }

    // A crash before the rename strands the staging temp; the startup
    // sweep collects it (and nothing else).
    const bool stranded = std::filesystem::exists(TempName(path));
    const size_t swept = SweepSnapshotTemps(dir_.string());
    EXPECT_EQ(swept, stranded ? 1u : 0u) << "crash point " << k;
  }
  EXPECT_GT(unfolded_outcomes, 0u);
  EXPECT_GT(folded_outcomes, 0u);
}

// --- Crash-point matrix over the service fold --------------------------------

TEST_F(StorageFaultTest, ServiceFoldCrashPointMatrixKeepsServing) {
  // ReclaimService::CompactShardSnapshot writes the served lake through
  // the SaveSnapshotV2 commit and maps the new file. A crash at any
  // mutating call leaves the file loadable with every table — its run
  // not yet folded, or folded — and a failed fold publishes nothing:
  // the old shard keeps serving at the same registry epoch.
  DictionaryPtr dict = MakeDictionary();
  TableBuilder sb(dict, "source");
  sb.Columns({"k", "a", "b"});
  TableBuilder fa(dict, "frag_a");
  fa.Columns({"k", "a"});
  TableBuilder fb(dict, "frag_b");
  fb.Columns({"k", "b"});
  for (int r = 0; r < 6; ++r) {
    const std::string k = "k" + std::to_string(r);
    sb.Row({k, "a" + std::to_string(r), "b" + std::to_string(r)});
    fa.Row({k, "a" + std::to_string(r)});
    fb.Row({k, "b" + std::to_string(r)});
  }
  const Table source = sb.Key({"k"}).Build();
  const Table frag_b = fb.Build();
  const std::string tmpl = Path("fold_base.snap");
  {
    DataLake base(dict);
    ASSERT_TRUE(base.AddTable(fa.Build()).ok());
    GenT g(base);
    ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), tmpl).ok());
  }
  const std::string path = Path("fold.snap");
  ReclaimRequest named;
  named.lake = "shard";

  // A service serving `path` with frag_b appended as one delta run.
  const auto make_service = [&]() {
    std::filesystem::copy_file(
        tmpl, path, std::filesystem::copy_options::overwrite_existing);
    ServiceOptions opts;
    opts.dict = dict;
    opts.cache_capacity = 0;
    opts.storage.compact_after_runs = 0;
    opts.health.auto_recover = false;
    auto service = std::make_unique<ReclaimService>(std::move(opts));
    EXPECT_TRUE(service->AddLakeFromSnapshot("shard", path).ok());
    std::vector<Table> batch;
    batch.push_back(frag_b.Clone());
    EXPECT_TRUE(service->AppendTablesToLake("shard", std::move(batch)).ok());
    return service;
  };

  constexpr uint32_t kMutatingMask =
      io::OpBit(io::Op::kOpen) | io::OpBit(io::Op::kWrite) |
      io::OpBit(io::Op::kFlush) | io::OpBit(io::Op::kSync) |
      io::OpBit(io::Op::kRename);

  Result<ReclamationResult> expected = Status::Internal("unset");
  uint64_t total_ops = 0;
  {
    auto service = make_service();
    expected = service->Reclaim(source, named);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    io::FaultInjector counter;
    io::ScopedFaultInjector scope(&counter);
    ASSERT_TRUE(service->CompactShardSnapshot("shard").ok());
    total_ops = counter.CountOf(io::Op::kOpen) +
                counter.CountOf(io::Op::kWrite) +
                counter.CountOf(io::Op::kFlush) +
                counter.CountOf(io::Op::kSync) +
                counter.CountOf(io::Op::kRename);
  }
  ASSERT_GT(total_ops, 4u);

  size_t failed_folds = 0;
  size_t unfolded_outcomes = 0;
  size_t folded_outcomes = 0;
  for (uint64_t k = 1; k <= total_ops; ++k) {
    auto service = make_service();
    const uint64_t epoch = service->registry_epoch();
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = kMutatingMask;
    plan.trigger_at = k;
    plan.kind = io::FaultKind::kCrash;
    injector.Arm(plan);
    Status st;
    {
      io::ScopedFaultInjector scope(&injector);
      st = service->CompactShardSnapshot("shard");
      EXPECT_TRUE(injector.crashed()) << "crash point " << k;
    }

    // The shard serves the same answer whether or not the fold landed;
    // only a fold that reported success republished.
    if (st.ok()) {
      EXPECT_EQ(service->registry_epoch(), epoch + 1) << "crash point " << k;
    } else {
      ++failed_folds;
      EXPECT_EQ(service->registry_epoch(), epoch) << "crash point " << k;
    }
    const auto answer = service->Reclaim(source, named);
    ASSERT_TRUE(answer.ok()) << "crash point " << k << ": "
                             << answer.status().ToString();
    EXPECT_TRUE(TablesBitIdentical(answer->reclaimed, expected->reclaimed))
        << "crash point " << k;
    EXPECT_EQ(answer->originating_names, expected->originating_names)
        << "crash point " << k;

    DataLake loaded;
    SnapshotLoadInfo info;
    ASSERT_TRUE(LoadSnapshot(loaded, path, &info).ok())
        << "crash point " << k << " left an unloadable file";
    ASSERT_EQ(loaded.size(), 2u) << "crash point " << k;
    EXPECT_EQ(loaded.table(0).name(), "frag_a") << "crash point " << k;
    EXPECT_TRUE(TablesBitIdentical(loaded.table(1), frag_b))
        << "crash point " << k;
    EXPECT_TRUE(VerifySnapshotIntegrity(path).ok()) << "crash point " << k;
    if (info.delta_runs == 1) {
      ++unfolded_outcomes;
    } else {
      EXPECT_EQ(info.delta_runs, 0u) << "crash point " << k;
      ++folded_outcomes;
    }
    (void)SweepSnapshotTemps(dir_.string());
  }
  EXPECT_GT(failed_folds, 0u);
  EXPECT_GT(unfolded_outcomes, 0u);
  EXPECT_GT(folded_outcomes, 0u);
}

// A fold whose rename landed but whose last sync (the parent directory's)
// failed reports IOError and publishes nothing, so the shard still
// records one run while the file verifies at none. The file holds every
// served table, though, so the health probe must pass, and so must a
// later append and its probe.
TEST_F(StorageFaultTest, FoldWithFailedFinalSyncStaysHealthy) {
  DictionaryPtr dict = MakeDictionary();
  TableBuilder sb(dict, "source");
  sb.Columns({"k", "a", "b"});
  TableBuilder fa(dict, "frag_a");
  fa.Columns({"k", "a"});
  TableBuilder fb(dict, "frag_b");
  fb.Columns({"k", "b"});
  for (int r = 0; r < 6; ++r) {
    const std::string k = "k" + std::to_string(r);
    sb.Row({k, "a" + std::to_string(r), "b" + std::to_string(r)});
    fa.Row({k, "a" + std::to_string(r)});
    fb.Row({k, "b" + std::to_string(r)});
  }
  const Table source = sb.Key({"k"}).Build();
  const std::string path = Path("fold_sync.snap");
  {
    DataLake base(dict);
    ASSERT_TRUE(base.AddTable(fa.Build()).ok());
    GenT g(base);
    ASSERT_TRUE(SaveSnapshotV2(base, g.catalog().section_views(), path).ok());
  }
  ServiceOptions opts;
  opts.dict = dict;
  opts.cache_capacity = 0;
  opts.storage.compact_after_runs = 0;
  opts.health.auto_recover = false;
  ReclaimService service(std::move(opts));
  ASSERT_TRUE(service.AddLakeFromSnapshot("shard", path).ok());
  std::vector<Table> batch;
  batch.push_back(fb.Build());
  ASSERT_TRUE(service.AppendTablesToLake("shard", std::move(batch)).ok());
  ReclaimRequest named;
  named.lake = "shard";
  const auto expected = service.Reclaim(source, named);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Size a fold's syncs on a copy, then fail the last one for real.
  uint64_t syncs = 0;
  {
    const std::string copy = Path("fold_sync_count.snap");
    std::filesystem::copy_file(path, copy);
    ServiceOptions count_opts;
    count_opts.dict = dict;
    count_opts.storage.compact_after_runs = 0;
    ReclaimService counting(std::move(count_opts));
    ASSERT_TRUE(counting.AddLakeFromSnapshot("shard", copy).ok());
    io::FaultInjector counter;
    io::ScopedFaultInjector scope(&counter);
    ASSERT_TRUE(counting.CompactShardSnapshot("shard").ok());
    syncs = counter.CountOf(io::Op::kSync);
  }
  ASSERT_GE(syncs, 2u);
  {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = io::OpBit(io::Op::kSync);
    plan.trigger_at = syncs;
    plan.kind = io::FaultKind::kErrno;
    plan.error_code = EIO;
    injector.Arm(plan);
    io::ScopedFaultInjector scope(&injector);
    EXPECT_EQ(service.CompactShardSnapshot("shard").code(),
              StatusCode::kIOError);
  }
  size_t runs = 1;
  ASSERT_TRUE(VerifySnapshotIntegrity(path, &runs).ok());
  EXPECT_EQ(runs, 0u);  // the fold's rename landed
  auto tables = SnapshotTableCount(path);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(*tables, 2u);

  Status st = service.CheckShardHealth("shard");
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(service.health_stats()[0].state, ShardHealth::kHealthy);
  auto answer = service.Reclaim(source, named);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(TablesBitIdentical(answer->reclaimed, expected->reclaimed));

  std::vector<Table> more;
  more.push_back(TableBuilder(dict, "frag_c")
                     .Columns({"k", "c"})
                     .Row({"k0", "c0"})
                     .Build());
  ASSERT_TRUE(service.AppendTablesToLake("shard", std::move(more)).ok());
  st = service.CheckShardHealth("shard");
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(service.health_stats()[0].state, ShardHealth::kHealthy);
  tables = SnapshotTableCount(path);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(*tables, 3u);
}

// --- Read-side and verification ---------------------------------------------

TEST_F(StorageFaultTest, InjectedReadErrorSurfacesAsTypedIOError) {
  const std::string path = Path("readerr.snap");
  ASSERT_TRUE(SaveV2(MakeLake("m"), path).ok());

  io::FaultInjector injector;
  io::FaultPlan plan;
  plan.op_mask = io::OpBit(io::Op::kRead);
  plan.trigger_at = 3;
  plan.kind = io::FaultKind::kErrno;
  plan.error_code = EIO;
  injector.Arm(plan);
  io::ScopedFaultInjector scope(&injector);
  DataLake lake;
  Status s = LoadSnapshot(lake, path);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(lake.size(), 0u);  // all-or-nothing held
}

TEST_F(StorageFaultTest, ReadFaultAtEveryIndexSurfacesAsTypedIOError) {
  // The loader reads through one large buffer, so a clean load makes
  // few reads: fail each of them in turn. Three files: with the
  // dictionary tags section (adopted), without it (re-interned), and
  // with a delta run.
  DataLake lake = MakeLake("m");
  const std::string tagged = Path("tagged.snap");
  ASSERT_TRUE(SaveV2(lake, tagged).ok());
  const std::string untagged = Path("untagged.snap");
  ASSERT_TRUE(SaveV2(lake, untagged).ok());
  ASSERT_TRUE(StripDictTags(untagged).ok());
  const std::string delta = Path("delta.snap");
  ASSERT_TRUE(SaveV2(lake, delta).ok());
  ASSERT_TRUE(lake.AddTable(TableBuilder(lake.dict(), "extra")
                                .Columns({"x"})
                                .Row({"run_value"})
                                .Build())
                  .ok());
  const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, 1);
  ASSERT_TRUE(AppendSnapshotDelta(lake, 1, run.views(), delta).ok());

  for (const std::string& path : {tagged, untagged, delta}) {
    uint64_t reads = 0;
    {
      io::FaultInjector counter;
      io::ScopedFaultInjector scope(&counter);
      DataLake clean;
      SnapshotLoadInfo info;
      ASSERT_TRUE(LoadSnapshot(clean, path, &info).ok()) << path;
      EXPECT_EQ(info.dictionary_adopted, path != untagged) << path;
      reads = counter.CountOf(io::Op::kRead);
    }
    ASSERT_GT(reads, 3u) << path;
    for (uint64_t k = 1; k <= reads; ++k) {
      io::FaultInjector injector;
      io::FaultPlan plan;
      plan.op_mask = io::OpBit(io::Op::kRead);
      plan.trigger_at = k;
      plan.kind = io::FaultKind::kErrno;
      plan.error_code = EIO;
      injector.Arm(plan);
      io::ScopedFaultInjector scope(&injector);
      DataLake target;
      Status s = LoadSnapshot(target, path);
      EXPECT_EQ(s.code(), StatusCode::kIOError)
          << path << " read " << k << ": " << s.ToString();
      EXPECT_EQ(target.size(), 0u) << path << " read " << k;
    }
  }
}

TEST_F(StorageFaultTest, VerifyIntegrityDetectsBitFlips) {
  // v2: a flip inside any checksummed payload — body or any catalog
  // section — must fail verification, as must one in the footer itself.
  // (Only the zero padding between block-aligned sections is don't-care
  // bytes.)
  const std::string path = Path("verify.snap");
  DataLake lake = MakeLake("m");
  GenT gent(lake);
  ASSERT_TRUE(
      SaveSnapshotV2(lake, gent.catalog().section_views(), path).ok());
  ASSERT_TRUE(VerifySnapshotIntegrity(path).ok());

  const auto size = std::filesystem::file_size(path);
  std::vector<uint64_t> offsets = {24, size - 12};  // body head, footer
  {
    std::FILE* f = io::Fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    auto footer = storage::ReadFooter(f);
    io::Fclose(f);
    ASSERT_TRUE(footer.ok());
    for (const auto& desc : footer->sections) {
      if (desc.bytes == 0) continue;
      offsets.push_back(desc.offset + desc.bytes / 2);
    }
    ASSERT_GT(offsets.size(), 3u) << "fixture catalog has no sections";
    // The dictionary tags section is among the ones walked.
    ASSERT_NE(footer->Find(storage::SectionId::kDictTags), nullptr);
  }
  for (uint64_t offset : offsets) {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    f.close();
    EXPECT_FALSE(VerifySnapshotIntegrity(path).ok())
        << "flip at offset " << offset << " not detected";
    // Restore.
    std::fstream g(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    byte = static_cast<char>(byte ^ 0x40);
    g.seekp(static_cast<std::streamoff>(offset));
    g.write(&byte, 1);
    g.close();
    ASSERT_TRUE(VerifySnapshotIntegrity(path).ok());
  }

  // v1 (no checksums): verification is a full structural parse; a
  // truncation must fail it.
  const std::string v1 = Path("verify_v1.snap");
  ASSERT_TRUE(WriteV1Snapshot(lake, v1).ok());
  ASSERT_TRUE(VerifySnapshotIntegrity(v1).ok());
  std::filesystem::resize_file(v1, std::filesystem::file_size(v1) - 5);
  EXPECT_FALSE(VerifySnapshotIntegrity(v1).ok());

  EXPECT_EQ(VerifySnapshotIntegrity(Path("missing.snap")).code(),
            StatusCode::kIOError);
}

TEST_F(StorageFaultTest, VerifyIntegrityDetectsDeltaRunBitFlips) {
  // A flip anywhere inside an appended run blob — dictionary growth,
  // table bytes, or the run catalog — must fail verification and the
  // full load, exactly like a flip in a base section.
  DictionaryPtr dict = MakeDictionary();
  DataLake lake(dict);
  ASSERT_TRUE(lake.AddTable(TableBuilder(dict, "data")
                                .Columns({"k", "v"})
                                .Row({"1", "m"})
                                .Key({"k"})
                                .Build())
                  .ok());
  GenT gent(lake);
  const std::string path = Path("rundamage.snap");
  ASSERT_TRUE(
      SaveSnapshotV2(lake, gent.catalog().section_views(), path).ok());
  ASSERT_TRUE(lake.AddTable(TableBuilder(dict, "extra")
                                .Columns({"x"})
                                .Row({"run_value"})
                                .Build())
                  .ok());
  const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, 1);
  ASSERT_TRUE(AppendSnapshotDelta(lake, 1, run.views(), path).ok());
  ASSERT_TRUE(VerifySnapshotIntegrity(path).ok());

  // Locate the run extent from the delta directory.
  storage::DeltaRunDesc desc;
  {
    std::FILE* f = io::Fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    auto footer = storage::ReadFooterRecover(f);
    ASSERT_TRUE(footer.ok());
    auto runs = storage::ReadDeltaDir(f, *footer);
    io::Fclose(f);
    ASSERT_TRUE(runs.ok());
    ASSERT_EQ(runs->size(), 1u);
    desc = runs->front();
  }
  for (uint64_t offset : {desc.offset, desc.offset + desc.bytes / 2,
                          desc.offset + desc.bytes - 1}) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    f.close();
    EXPECT_FALSE(VerifySnapshotIntegrity(path).ok())
        << "flip at run offset " << offset << " not detected";
    DataLake poisoned;
    EXPECT_FALSE(LoadSnapshot(poisoned, path).ok())
        << "flip at run offset " << offset << " loaded anyway";
    EXPECT_EQ(poisoned.size(), 0u);
    std::fstream g(path, std::ios::in | std::ios::out | std::ios::binary);
    byte = static_cast<char>(byte ^ 0x40);
    g.seekp(static_cast<std::streamoff>(offset));
    g.write(&byte, 1);
    g.close();
    ASSERT_TRUE(VerifySnapshotIntegrity(path).ok());
  }
}

TEST_F(StorageFaultTest, SalvageLoadIgnoresDamagedCatalogTail) {
  const std::string path = Path("salvage.snap");
  DataLake lake = MakeLake("m");
  GenT gent(lake);
  ASSERT_TRUE(
      SaveSnapshotV2(lake, gent.catalog().section_views(), path).ok());

  // Damage the footer: the full load must refuse, the body salvage
  // must still produce every table.
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size - 16));
    const char junk[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
    f.write(junk, sizeof junk);
  }
  DataLake full;
  EXPECT_FALSE(LoadSnapshot(full, path).ok());
  EXPECT_EQ(full.size(), 0u);

  DataLake body;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshotBody(body, path, &info).ok());
  EXPECT_EQ(info.version, 2u);
  ASSERT_EQ(body.size(), 1u);
  EXPECT_EQ(body.table(0).CellString(0, 1), "m");
}

TEST_F(StorageFaultTest, SweepMatchesOnlyCommitTempNames) {
  const auto touch = [&](const std::string& name) {
    std::ofstream(Path(name)) << "x";
  };
  touch("keep.snap");
  touch("keep.tmp");          // no pid suffix
  touch("keep.tmp.12ab");     // non-digit suffix
  touch("keep.tmp.");         // empty suffix
  touch("a.snap.tmp.123");
  touch("b.snap.tmp.99999");
  EXPECT_EQ(SweepSnapshotTemps(dir_.string()), 2u);
  EXPECT_TRUE(std::filesystem::exists(Path("keep.snap")));
  EXPECT_TRUE(std::filesystem::exists(Path("keep.tmp")));
  EXPECT_TRUE(std::filesystem::exists(Path("keep.tmp.12ab")));
  EXPECT_TRUE(std::filesystem::exists(Path("keep.tmp.")));
  EXPECT_FALSE(std::filesystem::exists(Path("a.snap.tmp.123")));
  EXPECT_FALSE(std::filesystem::exists(Path("b.snap.tmp.99999")));
  EXPECT_EQ(SweepSnapshotTemps(Path("no_such_dir")), 0u);
}

}  // namespace
}  // namespace gent
