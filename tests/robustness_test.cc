// Robustness and failure-injection tests: hostile inputs through the
// whole pipeline — degenerate shapes, adversarial values, duplicate
// tables, exhausted budgets. The contract under attack is always the
// same: never crash, fail with a typed Status when refusing, and degrade
// monotonically (never fabricate values) when proceeding.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "src/engine/reclaim_service.h"
#include "src/storage/io.h"
#include "src/gent/gent.h"
#include "src/metrics/precision_recall.h"
#include "src/metrics/similarity.h"
#include "src/ops/fusion.h"
#include "src/ops/union.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "src/util/random.h"

namespace gent {
namespace {

TEST(RobustnessTest, SingleCellSource) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k"})
                     .Row({"only"})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(
      TableBuilder(dict, "t").Columns({"k"}).Row({"only"}).Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0);
}

TEST(RobustnessTest, AllNullNonKeySource) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a", "b"})
                     .Row({"1", "", ""})
                     .Row({"2", "", ""})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(TableBuilder(dict, "t")
                          .Columns({"k", "a"})
                          .Row({"1", "poison"})
                          .Row({"2", "poison"})
                          .Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok());
  // The ideal reclamation of an all-null source leaves the nulls alone;
  // EIS of an empty reclamation is 0.5 (all nulls match nothing but
  // contradict nothing). Anything above means values were fabricated.
  const double eis = EisScore(source, result->reclaimed).value();
  EXPECT_GE(eis, 0.5 - 1e-9) << result->reclaimed.ToString();
}

TEST(RobustnessTest, AdversarialStringsSurviveThePipeline) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  const std::vector<std::string> nasty = {
      "comma,inside", "quote\"inside", "  leading", "trailing  ",
      "line\nbreak",  "tab\tchar",     "日本語",     "emoji🙂",
      "⊥",            "⟨null:0⟩"};  // even our own sentinels' spellings
  TableBuilder sb(dict, "s");
  sb.Columns({"k", "v"});
  for (size_t i = 0; i < nasty.size(); ++i) {
    sb.Row({std::to_string(i), nasty[i]});
  }
  Table source = sb.Key({"k"}).Build();
  TableBuilder tb(dict, "t");
  tb.Columns({"k", "v"});
  for (size_t i = 0; i < nasty.size(); ++i) {
    tb.Row({std::to_string(i), nasty[i]});
  }
  (void)lake.AddTable(tb.Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0)
      << result->reclaimed.ToString();
}

TEST(RobustnessTest, NumericSpellingsUnifyAcrossLakeAndSource) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "x"})
                     .Row({"1", "3.1"})
                     .Row({"2", "100"})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(TableBuilder(dict, "t")
                          .Columns({"k", "x"})
                          .Row({"1", "3.10"})
                          .Row({"2", "1e2"})
                          .Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0);
}

TEST(RobustnessTest, ExactDuplicateTablesDoNotDoubleOriginating) {
  // Paper Example 9: a duplicate of a candidate adds no information and
  // must not both enter the originating set.
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a", "b"})
                     .Row({"1", "x", "p"})
                     .Row({"2", "y", "q"})
                     .Key({"k"})
                     .Build();
  auto make = [&](const std::string& name) {
    return TableBuilder(dict, name)
        .Columns({"k", "a", "b"})
        .Row({"1", "x", "p"})
        .Row({"2", "y", "q"})
        .Build();
  };
  (void)lake.AddTable(make("original"));
  (void)lake.AddTable(make("duplicate"));
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->originating_names.size(), 1u)
      << "duplicate should be pruned (subsumed candidate removal)";
  EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0);
}

TEST(RobustnessTest, NullKeysInLakeTuplesNeverAlign) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a"})
                     .Row({"1", "x"})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(TableBuilder(dict, "t")
                          .Columns({"k", "a"})
                          .Row({"", "wrong"})  // null key must not align
                          .Row({"1", "x"})
                          .Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok());
  auto pr = ComputePrecisionRecall(source, result->reclaimed);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  // The null-keyed garbage tuple must not contribute a "wrong" value to
  // the aligned tuple for key 1.
  EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0);
}

TEST(RobustnessTest, SourceWithDuplicateKeyValuesIsRejected) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  // A "key" that does not identify rows breaks the alignment contract;
  // Reclaim must refuse or behave sanely (never crash). We accept either
  // an error status or a well-formed table.
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a"})
                     .Row({"1", "x"})
                     .Row({"1", "y"})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(TableBuilder(dict, "t")
                          .Columns({"k", "a"})
                          .Row({"1", "x"})
                          .Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  if (result.ok()) {
    EXPECT_EQ(result->reclaimed.num_cols(), source.num_cols());
  }
}

TEST(RobustnessTest, TightRowBudgetSurfacesTypedError) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  TableBuilder sb(dict, "s");
  sb.Columns({"k", "a", "b", "c"});
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    sb.Row({std::to_string(i), rng.AlphaNum(4), rng.AlphaNum(4),
            rng.AlphaNum(4)});
  }
  Table source = sb.Key({"k"}).Build();
  // Three fragment tables that all must be unioned.
  for (const char* cols : {"a", "b", "c"}) {
    TableBuilder tb(dict, std::string("frag_") + cols);
    tb.Columns({"k", cols});
    for (int i = 0; i < 200; ++i) {
      auto col = source.ColumnIndex(cols);
      tb.Row({std::to_string(i), source.CellString(i, *col)});
    }
    (void)lake.AddTable(tb.Build());
  }
  GenT gent(lake);
  OpLimits limits;
  limits.MaxRows(10);  // absurdly small: must trip OutOfRange somewhere
  auto result = gent.Reclaim(source, limits);
  if (!result.ok()) {
    EXPECT_TRUE(result.status().code() == StatusCode::kOutOfRange ||
                result.status().code() == StatusCode::kTimeout)
        << result.status().ToString();
  }
}

TEST(RobustnessTest, ZeroSecondTimeoutNeverHangs) {
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a"})
                     .Row({"1", "x"})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(
      TableBuilder(dict, "t").Columns({"k", "a"}).Row({"1", "x"}).Build());
  GenT gent(lake);
  auto result = gent.Reclaim(source, OpLimits::WithTimeout(0.0));
  // Either it finished before the first deadline check or it reports
  // Timeout; both are acceptable, hanging/crashing is not.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  }
}

TEST(RobustnessTest, HugeAndInfiniteTimeoutsMeanNoDeadline) {
  // A budget past the steady clock's range (1e10 s is ~317 years) or
  // +inf must saturate to "no deadline", never wrap into one already
  // passed.
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a"})
                     .Row({"1", "x"})
                     .Row({"2", "y"})
                     .Key({"k"})
                     .Build();
  (void)lake.AddTable(TableBuilder(dict, "t")
                          .Columns({"k", "a"})
                          .Row({"1", "x"})
                          .Row({"2", "y"})
                          .Build());
  GenT gent(lake);
  for (double seconds : {1e10, std::numeric_limits<double>::infinity()}) {
    auto result = gent.Reclaim(source, OpLimits::WithTimeout(seconds));
    ASSERT_TRUE(result.ok()) << seconds << ": " << result.status().ToString();
    EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0);
  }
}

TEST(RobustnessTest, SteadyTimeAfterSaturates) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(SteadyTimeAfter(now, inf), Clock::time_point::max());
  EXPECT_EQ(SteadyTimeAfter(now, std::nan("")), Clock::time_point::max());
  EXPECT_EQ(SteadyTimeAfter(now, 1e10), Clock::time_point::max());
  EXPECT_EQ(SteadyTimeAfter(now, -inf), Clock::time_point::min());
  EXPECT_EQ(SteadyTimeAfter(Clock::time_point::max() - std::chrono::hours(1),
                            7200.0),
            Clock::time_point::max());
  EXPECT_EQ(SteadyTimeAfter(now, 0.0), now);
  EXPECT_EQ(SteadyTimeAfter(now, 2.5), now + std::chrono::milliseconds(2500));
  EXPECT_EQ(SteadyTimeAfter(now, -2.5),
            now - std::chrono::milliseconds(2500));
  // A saturated deadline adds none; a real one still composes.
  OpLimits limits = OpLimits::WithTimeout(inf);
  EXPECT_FALSE(limits.has_deadline());
  EXPECT_TRUE(limits.Interrupted().ok());
  EXPECT_EQ(OpLimits::WithTimeout(-1.0).Interrupted().code(),
            StatusCode::kTimeout);
}

TEST(RobustnessTest, WidePaperScaleSource) {
  // Paper §I: sources up to 22 columns; exercise that width end-to-end.
  DataLake lake;
  const DictionaryPtr& dict = lake.dict();
  const size_t kCols = 22;
  std::vector<std::string> names = {"k"};
  for (size_t c = 1; c < kCols; ++c) names.push_back("c" + std::to_string(c));
  Rng rng(11);
  TableBuilder sb(dict, "wide");
  sb.Columns(names);
  std::vector<std::vector<std::string>> rows;
  for (int r = 0; r < 40; ++r) {
    std::vector<std::string> row = {std::to_string(r)};
    for (size_t c = 1; c < kCols; ++c) row.push_back(rng.AlphaNum(5));
    rows.push_back(row);
    sb.Row(row);
  }
  Table source = sb.Key({"k"}).Build();
  // Two overlapping vertical fragments.
  auto fragment = [&](const std::string& name, size_t lo, size_t hi) {
    std::vector<std::string> cols = {"k"};
    for (size_t c = lo; c < hi; ++c) cols.push_back(names[c]);
    TableBuilder tb(dict, name);
    tb.Columns(cols);
    for (const auto& row : rows) {
      std::vector<std::string> cells = {row[0]};
      for (size_t c = lo; c < hi; ++c) cells.push_back(row[c]);
      tb.Row(cells);
    }
    return tb.Build();
  };
  (void)lake.AddTable(fragment("left", 1, 12));
  (void)lake.AddTable(fragment("right", 12, kCols));
  GenT gent(lake);
  auto result = gent.Reclaim(source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(EisScore(source, result->reclaimed).value(), 1.0);
  EXPECT_EQ(result->originating_names.size(), 2u);
}

TEST(RobustnessTest, OuterUnionWithEmptyTables) {
  auto dict = MakeDictionary();
  Table empty = TableBuilder(dict, "e").Columns({"a", "b"}).Build();
  Table full =
      TableBuilder(dict, "f").Columns({"b", "c"}).Row({"1", "2"}).Build();
  Table u1 = OuterUnion(empty, full);
  EXPECT_EQ(u1.num_rows(), 1u);
  EXPECT_EQ(u1.num_cols(), 3u);
  Table u2 = OuterUnion(full, empty);
  EXPECT_EQ(u2.num_rows(), 1u);
  Table u3 = OuterUnion(empty, empty);
  EXPECT_EQ(u3.num_rows(), 0u);
}

TEST(RobustnessTest, MinimalFormOfPathologicallyNullTable) {
  auto dict = MakeDictionary();
  TableBuilder tb(dict, "nulls");
  tb.Columns({"a", "b", "c"});
  for (int i = 0; i < 50; ++i) tb.Row({"", "", ""});
  tb.Row({"1", "", ""});
  auto minimal = TakeMinimalForm(tb.Build());
  ASSERT_TRUE(minimal.ok());
  // All-null tuples are subsumed by the single non-null tuple.
  EXPECT_EQ(minimal->num_rows(), 1u);
}

// CSV fuzz: random tables with adversarial cell content must survive a
// serialize→parse round trip bit-exactly (after dictionary-level numeric
// canonicalization, which Intern applies on both paths).
class CsvFuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzzSweep, RoundTripIsExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL + 9);
  auto dict = MakeDictionary();
  const size_t cols = 1 + rng.Index(6);
  const size_t rows = rng.Index(30);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  TableBuilder builder(dict, "fuzz");
  builder.Columns(names);
  const std::string alphabet = ",\"\n\r 'ab\t;|√東";
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < cols; ++c) {
      switch (rng.Index(4)) {
        case 0:
          row.push_back("");  // null
          break;
        case 1:
          row.push_back(std::to_string(rng.Index(1000)));
          break;
        case 2:
          row.push_back(rng.AlphaNum(1 + rng.Index(10)));
          break;
        default: {
          // Adversarial: random bytes from the nasty alphabet.
          std::string s;
          const size_t len = 1 + rng.Index(8);
          for (size_t i = 0; i < len; ++i) {
            s += alphabet[rng.Index(alphabet.size())];
          }
          // A cell of pure whitespace parses back as that string only if
          // quoting preserves it; our CSV quotes anything with
          // specials, so this is fair game.
          row.push_back(s);
          break;
        }
      }
    }
    builder.Row(row);
  }
  Table original = builder.Build();

  const std::string path =
      (std::string("/tmp/gent_csv_fuzz_") + std::to_string(GetParam())) +
      ".csv";
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto reparsed = ReadCsv(dict, "fuzz", path);
  std::remove(path.c_str());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->num_rows(), original.num_rows());
  ASSERT_EQ(reparsed->column_names(), original.column_names());
  for (size_t r = 0; r < original.num_rows(); ++r) {
    for (size_t c = 0; c < original.num_cols(); ++c) {
      EXPECT_EQ(reparsed->cell(r, c), original.cell(r, c))
          << "cell (" << r << "," << c << "): '"
          << original.CellString(r, c) << "' vs '"
          << reparsed->CellString(r, c) << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzSweep, ::testing::Range(1, 25));

TEST(RobustnessTest, SaveShardSnapshotUnknownShardIsTyped) {
  ReclaimService service{ServiceOptions{}};
  EXPECT_EQ(service.SaveShardSnapshot("nope", "/tmp/never_written").code(),
            StatusCode::kNotFound);
}

TEST(RobustnessTest, FailedShardSnapshotSaveLeavesServiceServing) {
  // Injected ENOSPC mid-save must surface as a typed error and leave
  // the registry serving exactly what it served before — and the
  // crash-atomic commit must leave neither a destination file nor a
  // stranded temp behind.
  DictionaryPtr dict = MakeDictionary();
  DataLake lake(dict);
  (void)lake.AddTable(TableBuilder(dict, "t")
                          .Columns({"k", "a"})
                          .Row({"1", "x"})
                          .Row({"2", "y"})
                          .Build());
  Table source = TableBuilder(dict, "s")
                     .Columns({"k", "a"})
                     .Row({"1", "x"})
                     .Row({"2", ""})
                     .Key({"k"})
                     .Build();
  ServiceOptions options;
  options.dict = dict;
  ReclaimService service(std::move(options));
  ASSERT_TRUE(service.AddLake("lake", std::move(lake)).ok());

  ReclaimRequest request;
  request.lake = "lake";
  request.bypass_cache = true;
  auto before = service.Reclaim(source, request);
  ASSERT_TRUE(before.ok());

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gent_robust_enospc_" + std::to_string(::getpid()) + ".snap"))
          .string();
  {
    io::FaultInjector injector;
    io::FaultPlan plan;
    plan.op_mask = io::OpBit(io::Op::kWrite);
    plan.trigger_at = 3;  // fail mid-stream, not at open
    plan.kind = io::FaultKind::kErrno;
    plan.error_code = ENOSPC;
    injector.Arm(plan);
    io::ScopedFaultInjector scope(&injector);
    Status s = service.SaveShardSnapshot("lake", path);
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));

  auto after = service.Reclaim(source, request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(TablesBitIdentical(before->reclaimed, after->reclaimed));
  EXPECT_EQ(before->originating_names, after->originating_names);
}

TEST(RobustnessTest, AddColumnNameCollisionFails) {
  auto dict = MakeDictionary();
  Table t(std::string("t"), dict);
  ASSERT_TRUE(t.AddColumn("a").ok());
  EXPECT_FALSE(t.AddColumn("a").ok());
  ASSERT_TRUE(t.AddColumn("b").ok());
  EXPECT_FALSE(t.RenameColumn(1, "a").ok());
}

}  // namespace
}  // namespace gent
