#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "src/value/dictionary.h"

namespace gent {
namespace {

// --- Dictionary -------------------------------------------------------------

TEST(DictionaryTest, EmptyStringIsNull) {
  ValueDictionary dict;
  EXPECT_EQ(dict.Intern(""), kNull);
  EXPECT_EQ(dict.Lookup(""), kNull);
  EXPECT_EQ(dict.StringOf(kNull), "");
}

TEST(DictionaryTest, InternIsIdempotent) {
  ValueDictionary dict;
  ValueId a = dict.Intern("hello");
  ValueId b = dict.Intern("hello");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kNull);
  EXPECT_EQ(dict.StringOf(a), "hello");
}

TEST(DictionaryTest, DistinctStringsGetDistinctIds) {
  ValueDictionary dict;
  EXPECT_NE(dict.Intern("a"), dict.Intern("b"));
}

TEST(DictionaryTest, NumericSpellingsCollapse) {
  ValueDictionary dict;
  EXPECT_EQ(dict.Intern("3.10"), dict.Intern("3.1"));
  EXPECT_EQ(dict.Intern("007"), dict.Intern("7"));
}

TEST(DictionaryTest, LookupWithoutIntern) {
  ValueDictionary dict;
  EXPECT_EQ(dict.Lookup("ghost"), kNull);
  dict.Intern("ghost");
  EXPECT_NE(dict.Lookup("ghost"), kNull);
}

TEST(DictionaryTest, LabeledNullsAreUniqueNonValues) {
  ValueDictionary dict;
  ValueId l1 = dict.CreateLabeledNull();
  ValueId l2 = dict.CreateLabeledNull();
  EXPECT_NE(l1, l2);
  EXPECT_NE(l1, kNull);
  EXPECT_TRUE(dict.IsLabeledNull(l1));
  EXPECT_TRUE(dict.IsLabeledNull(l2));
  EXPECT_FALSE(dict.IsLabeledNull(kNull));
  EXPECT_FALSE(dict.IsLabeledNull(dict.Intern("real")));
}

TEST(DictionaryTest, IdsStayDenseAcrossRehashes) {
  ValueDictionary dict;
  // References taken before the index rehashes (many times over).
  std::vector<const std::string*> early;
  std::vector<std::string> spelled;
  const size_t kValues = 20000;
  for (size_t i = 0; i < kValues; ++i) {
    spelled.push_back("value-" + std::to_string(i) + "-padding-past-8-bytes");
    ASSERT_EQ(dict.Intern(spelled.back()), static_cast<ValueId>(i + 1));
    if (i < 64) early.push_back(&dict.StringOf(static_cast<ValueId>(i + 1)));
  }
  EXPECT_EQ(dict.size(), kValues + 1);
  for (size_t i = 0; i < early.size(); ++i) EXPECT_EQ(*early[i], spelled[i]);
  for (size_t i = 0; i < kValues; ++i) {
    EXPECT_EQ(dict.Lookup(spelled[i]), static_cast<ValueId>(i + 1));
    EXPECT_EQ(dict.Intern(spelled[i]), static_cast<ValueId>(i + 1));
  }
}

TEST(DictionaryTest, ReserveChangesNoId) {
  ValueDictionary dict;
  const ValueId a = dict.Intern("a");
  const ValueId b = dict.Intern("a-much-longer-spelling");
  const ValueId seven = dict.Intern("7");
  dict.Reserve(100000);
  EXPECT_EQ(dict.Lookup("a"), a);
  EXPECT_EQ(dict.Lookup("a-much-longer-spelling"), b);
  EXPECT_EQ(dict.Lookup("007"), seven);
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.Intern("next"), 4u);
  dict.Reserve(0);
  EXPECT_EQ(dict.Lookup("next"), 4u);
}

TEST(DictionaryTest, BulkInternEqualsPerStringIntern) {
  const std::vector<std::string> input = {
      "alpha",    "3.10",       "beta",      "3.1",  "007",      "",
      "alpha",    "⟨null:0⟩",   "7",         " 7 ",  "1e2",      "100",
      "",         "eight888",   "eight8888", "beta", "⟨null:0⟩", "gamma",
      "-0",       "0",          "12345678901234567890-a-long-tail"};
  // Both dictionaries already hold a labeled null spelled "⟨null:0⟩":
  // a real value with that spelling must still get its own id.
  ValueDictionary per_string;
  ValueDictionary bulk;
  const ValueId label = per_string.CreateLabeledNull();
  ASSERT_EQ(bulk.CreateLabeledNull(), label);
  per_string.Intern("pre-existing");
  bulk.Intern("pre-existing");

  std::vector<ValueId> expected;
  for (const std::string& s : input) expected.push_back(per_string.Intern(s));
  std::vector<ValueId> ids = {kNull};  // InternAll appends
  bulk.InternAll(std::vector<std::string>(input), &ids);
  ids.erase(ids.begin());

  EXPECT_EQ(ids, expected);
  ASSERT_EQ(bulk.size(), per_string.size());
  for (ValueId id = 0; id < bulk.size(); ++id) {
    EXPECT_EQ(bulk.StringOf(id), per_string.StringOf(id)) << id;
    EXPECT_EQ(bulk.IsLabeledNull(id), per_string.IsLabeledNull(id)) << id;
  }
  const ValueId spelled_label = bulk.Lookup("⟨null:0⟩");
  EXPECT_NE(spelled_label, kNull);
  EXPECT_NE(spelled_label, label);
  EXPECT_FALSE(bulk.IsLabeledNull(spelled_label));
  EXPECT_EQ(bulk.Lookup("3.1"), bulk.Lookup("3.10"));
  EXPECT_EQ(bulk.StringOf(bulk.Lookup("007")), "7");
}

TEST(DictionaryTest, ConcurrentCallersAgreeOnEveryId) {
  // 8 threads intern, look up and read back the same values in
  // different orders, two of them through InternAll; every thread must
  // see one id per string.
  constexpr size_t kThreads = 8;
  constexpr size_t kDistinct = 3000;
  constexpr size_t kChunk = 10;
  ValueDictionary dict;
  auto spelling = [](size_t v) {
    return v % 5 == 0 ? std::to_string(v) : "v" + std::to_string(v) + "-x";
  };
  std::vector<std::vector<ValueId>> seen(kThreads,
                                         std::vector<ValueId>(kDistinct));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // 7 is coprime to kDistinct: each thread visits every value once.
      std::vector<size_t> order(kDistinct);
      for (size_t k = 0; k < kDistinct; ++k) {
        order[k] = (k * 7 + t * 397) % kDistinct;
      }
      for (size_t k = 0; k < kDistinct; k += kChunk) {
        if (t % 4 == 3) {
          std::vector<std::string> batch;
          for (size_t j = 0; j < kChunk; ++j) {
            batch.push_back(spelling(order[k + j]));
          }
          std::vector<ValueId> ids;
          dict.InternAll(std::move(batch), &ids);
          for (size_t j = 0; j < kChunk; ++j) seen[t][order[k + j]] = ids[j];
          continue;
        }
        for (size_t j = 0; j < kChunk; ++j) {
          const size_t v = order[k + j];
          const std::string s = spelling(v);
          const ValueId id = dict.Intern(s);
          // A disagreeing Lookup or StringOf records kNull, which the
          // final check reports.
          const bool agrees = dict.Lookup(s) == id && dict.StringOf(id) == s;
          seen[t][v] = agrees ? id : kNull;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(dict.size(), kDistinct + 1);
  for (size_t v = 0; v < kDistinct; ++v) {
    const ValueId id = dict.Lookup(spelling(v));
    ASSERT_NE(id, kNull) << v;
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][v], id) << "thread " << t << " value " << v;
    }
  }
}

// --- Table -------------------------------------------------------------------

class TableTest : public ::testing::Test {
 protected:
  DictionaryPtr dict_ = MakeDictionary();

  Table Sample() {
    return TableBuilder(dict_, "t")
        .Columns({"id", "name", "age"})
        .Row({"0", "Smith", "27"})
        .Row({"1", "Brown", ""})
        .Row({"2", "Wang", "32"})
        .Key({"id"})
        .Build();
  }
};

TEST_F(TableTest, Dimensions) {
  Table t = Sample();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.num_cells(), 9u);
}

TEST_F(TableTest, CellAccess) {
  Table t = Sample();
  EXPECT_EQ(t.CellString(0, 1), "Smith");
  EXPECT_EQ(t.cell(1, 2), kNull);  // Brown's age missing
  EXPECT_EQ(t.CellString(2, 2), "32");
}

TEST_F(TableTest, ColumnIndexLookup) {
  Table t = Sample();
  EXPECT_EQ(*t.ColumnIndex("name"), 1u);
  EXPECT_FALSE(t.ColumnIndex("ghost").has_value());
  EXPECT_TRUE(t.HasColumn("age"));
}

TEST_F(TableTest, AddColumnRejectsDuplicate) {
  Table t = Sample();
  EXPECT_TRUE(t.AddColumn("extra").ok());
  EXPECT_EQ(t.cell(0, 3), kNull);  // new column padded with nulls
  EXPECT_EQ(t.AddColumn("name").code(), StatusCode::kAlreadyExists);
}

TEST_F(TableTest, RenameColumn) {
  Table t = Sample();
  EXPECT_TRUE(t.RenameColumn(1, "full_name").ok());
  EXPECT_TRUE(t.HasColumn("full_name"));
  EXPECT_FALSE(t.HasColumn("name"));
  EXPECT_EQ(t.RenameColumn(0, "full_name").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(t.RenameColumn(0, "id").ok());  // self-rename is fine
}

TEST_F(TableTest, KeyDesignation) {
  Table t = Sample();
  EXPECT_TRUE(t.has_key());
  EXPECT_TRUE(t.IsKeyColumn(0));
  EXPECT_FALSE(t.IsKeyColumn(1));
  EXPECT_EQ(t.KeyOf(1), KeyTuple{t.dict()->Lookup("1")});
}

TEST_F(TableTest, SetKeyColumnsValidates) {
  Table t = Sample();
  EXPECT_EQ(t.SetKeyColumns({9}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(t.SetKeyColumns({0, 0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.SetKeyColumnsByName({"nope"}).code(), StatusCode::kNotFound);
  EXPECT_TRUE(t.SetKeyColumnsByName({"id", "name"}).ok());
  EXPECT_EQ(t.key_columns().size(), 2u);
}

TEST_F(TableTest, KeyIndexGroupsRows) {
  Table t = TableBuilder(dict_, "dups")
                .Columns({"k", "v"})
                .Row({"a", "1"})
                .Row({"b", "2"})
                .Row({"a", "3"})
                .Key({"k"})
                .Build();
  KeyIndex idx = t.BuildKeyIndex();
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[KeyTuple{dict_->Lookup("a")}].size(), 2u);
}

TEST_F(TableTest, RemoveRows) {
  Table t = Sample();
  t.RemoveRows({0, 2});
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.CellString(0, 1), "Brown");
}

TEST_F(TableTest, RemoveNoRowsIsNoop) {
  Table t = Sample();
  t.RemoveRows({});
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(TableTest, CloneIsDeep) {
  Table t = Sample();
  Table copy = t.Clone();
  copy.set_cell(0, 1, kNull);
  EXPECT_EQ(t.CellString(0, 1), "Smith");
  EXPECT_EQ(copy.cell(0, 1), kNull);
}

TEST_F(TableTest, RowMaterialization) {
  Table t = Sample();
  auto row = t.Row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], dict_->Lookup("Smith"));
  EXPECT_EQ(t.RowNonNullCount(1), 2u);  // Brown's age is null
}

TEST_F(TableTest, ToStringMentionsNameAndKey) {
  Table t = Sample();
  std::string s = t.ToString();
  EXPECT_NE(s.find("t ["), std::string::npos);
  EXPECT_NE(s.find("id*"), std::string::npos);  // key marker
}

// --- CSV IO -------------------------------------------------------------------

class TableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DictionaryPtr dict_ = MakeDictionary();
  std::filesystem::path dir_;
};

TEST_F(TableIoTest, RoundTripSimple) {
  Table t = TableBuilder(dict_, "rt")
                .Columns({"a", "b"})
                .Row({"1", "x"})
                .Row({"2", ""})
                .Build();
  std::string path = (dir_ / "rt.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(dict_, "rt", path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->CellString(0, 1), "x");
  EXPECT_EQ(loaded->cell(1, 1), kNull);
}

TEST_F(TableIoTest, RoundTripQuotingAndEscapes) {
  Table t = TableBuilder(dict_, "q")
                .Columns({"text"})
                .Row({"has,comma"})
                .Row({"has \"quote\""})
                .Row({"has\nnewline"})
                .Build();
  std::string path = (dir_ / "q.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(dict_, "q", path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), 3u);
  EXPECT_EQ(loaded->CellString(0, 0), "has,comma");
  EXPECT_EQ(loaded->CellString(1, 0), "has \"quote\"");
  EXPECT_EQ(loaded->CellString(2, 0), "has\nnewline");
}

TEST_F(TableIoTest, ParseRejectsRaggedRows) {
  auto r = ParseCsvText(dict_, "bad", "a,b\n1,2,3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TableIoTest, ParseRejectsUnterminatedQuote) {
  auto r = ParseCsvText(dict_, "bad", "a\n\"oops\n");
  EXPECT_FALSE(r.ok());
}

TEST_F(TableIoTest, ParseToleratesCrlfAndMissingTrailingNewline) {
  auto r = ParseCsvText(dict_, "crlf", "a,b\r\n1,2\r\n3,4");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->CellString(1, 1), "4");
}

TEST_F(TableIoTest, ReadMissingFileFails) {
  auto r = ReadCsv(dict_, "x", (dir_ / "nope.csv").string());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(TableIoTest, DirectoryRoundTrip) {
  std::vector<Table> tables;
  tables.push_back(TableBuilder(dict_, "one").Columns({"a"}).Row({"1"}).Build());
  tables.push_back(TableBuilder(dict_, "two").Columns({"b"}).Row({"2"}).Build());
  std::string sub = (dir_ / "lake").string();
  ASSERT_TRUE(WriteTableDirectory(tables, sub).ok());
  auto loaded = ReadTableDirectory(dict_, sub);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
}

}  // namespace
}  // namespace gent
