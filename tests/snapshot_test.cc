// Tests for binary lake snapshots (src/lake/snapshot), including
// corruption injection.

#include "src/lake/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchgen/benchmarks.h"
#include "src/benchgen/tpch.h"
#include "src/engine/column_stats_catalog.h"
#include "src/engine/reclaim_service.h"
#include "src/gent/gent.h"
#include "src/ops/unary.h"
#include "src/storage/catalog_pager.h"
#include "src/storage/io.h"
#include "src/table/table_builder.h"
#include "tests/snapshot_fixtures.h"

namespace gent {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("gent_snap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  ~SnapshotTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static DataLake MakeLake() {
    DataLake lake;
    const DictionaryPtr& dict = lake.dict();
    (void)lake.AddTable(TableBuilder(dict, "people")
                            .Columns({"id", "name", "city"})
                            .Row({"1", "smith", "boston"})
                            .Row({"2", "brown", ""})
                            .Key({"id"})
                            .Build());
    (void)lake.AddTable(TableBuilder(dict, "empty")
                            .Columns({"a", "b"})
                            .Build());
    (void)lake.AddTable(TableBuilder(dict, "weird")
                            .Columns({"v"})
                            .Row({"comma,and\"quote"})
                            .Row({"3.10"})  // numeric canonicalization
                            .Build());
    return lake;
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());

  DataLake loaded;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("lake.snap")).ok());
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    const Table& a = lake.table(i);
    const Table& b = loaded.table(i);
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.column_names(), b.column_names());
    EXPECT_EQ(a.key_columns(), b.key_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_cols(); ++c) {
        EXPECT_EQ(a.CellString(r, c), b.CellString(r, c))
            << a.name() << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST_F(SnapshotTest, LoadIntoNonEmptyLakeRemapsIds) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());

  // Target lake already has values interned in a different order, so
  // the saved ids cannot be reused verbatim — remap must kick in.
  DataLake target;
  (void)target.AddTable(TableBuilder(target.dict(), "pre")
                            .Columns({"x"})
                            .Row({"boston"})
                            .Row({"zzz"})
                            .Build());
  ASSERT_TRUE(LoadSnapshot(target, Path("lake.snap")).ok());
  ASSERT_EQ(target.size(), 4u);
  auto idx = target.IndexOf("people");
  ASSERT_TRUE(idx.ok());
  const Table& people = target.table(*idx);
  EXPECT_EQ(people.CellString(0, 2), "boston");
  // The same string must intern to one id across old and new tables.
  EXPECT_EQ(people.cell(0, 2), target.table(0).cell(0, 0));
}

TEST_F(SnapshotTest, RoundTripTpchScale) {
  DataLake lake;
  for (Table& t : GenerateTpch(lake.dict(), TpchConfig{.scale = 0.5})) {
    ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
  }
  ASSERT_TRUE(SaveV2(lake, Path("tpch.snap")).ok());
  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("tpch.snap"), &info).ok());
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_EQ(RowsOf(lake.table(i)), RowsOf(loaded.table(i)))
        << lake.table(i).name();
  }
  // The bulk-interned dictionary reproduces every id's string.
  ASSERT_EQ(loaded.dict()->size(), lake.dict()->size());
  size_t mismatched = 0;
  for (ValueId id = 0; id < lake.dict()->size(); ++id) {
    mismatched += loaded.dict()->StringOf(id) != lake.dict()->StringOf(id);
  }
  EXPECT_EQ(mismatched, 0u);
}

// --- Hand-built v1 files -----------------------------------------------------

// Little-endian builder for snapshot bytes the writer would never emit.
class RawSnapshot {
 public:
  explicit RawSnapshot(uint64_t dict_size) {
    bytes_.append("GENTSNAP", 8);
    U32(1);  // version
    U64(dict_size);
  }
  RawSnapshot& U32(uint32_t v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
    return *this;
  }
  RawSnapshot& U64(uint64_t v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
    return *this;
  }
  RawSnapshot& Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    bytes_.append(s);
    return *this;
  }
  void Save(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  std::string bytes_;
};

// Every reader entry point must turn `path` into a typed IOError without
// throwing and without touching the target lake.
void ExpectTypedIOError(const std::string& path, const std::string& what) {
  for (bool body_only : {false, true}) {
    DataLake lake;
    Status s = Status::OK();
    EXPECT_NO_THROW(s = body_only ? LoadSnapshotBody(lake, path)
                                  : LoadSnapshot(lake, path))
        << what;
    EXPECT_EQ(s.code(), StatusCode::kIOError) << what << ": " << s.ToString();
    EXPECT_EQ(lake.size(), 0u) << what;
  }
  Status s = Status::OK();
  EXPECT_NO_THROW(s = VerifySnapshotIntegrity(path)) << what;
  EXPECT_EQ(s.code(), StatusCode::kIOError) << what << ": " << s.ToString();
}

TEST_F(SnapshotTest, HostileDictionarySizeFailsTyped) {
  // 20 bytes: magic, version 1 and a dictionary size no file can hold.
  for (uint64_t dict_size : {uint64_t{1} << 40, uint64_t{1} << 62,
                             ~uint64_t{0}}) {
    RawSnapshot(dict_size).Save(Path("dict.snap"));
    ExpectTypedIOError(Path("dict.snap"),
                       "dict_size " + std::to_string(dict_size));
  }
  // A plausible size just past what the remaining bytes can encode.
  RawSnapshot(4).Str("").Str("a").Str("b").Save(Path("dict_short.snap"));
  ExpectTypedIOError(Path("dict_short.snap"), "dict_size 4 of 3");
}

TEST_F(SnapshotTest, HostileStringLengthFailsTyped) {
  // Under the 16 MiB string cap, but far beyond the file.
  RawSnapshot(2).Str("").U32(0x00ffffff).Save(Path("len.snap"));
  ExpectTypedIOError(Path("len.snap"), "string length");
}

TEST_F(SnapshotTest, HostileTableFieldsFailTyped) {
  // One table "t" with `cols` columns, `key_count` keys and `rows` rows,
  // followed by a single cell.
  auto table = [&](uint32_t cols, uint32_t key_count, uint64_t rows) {
    RawSnapshot raw(2);
    raw.Str("").Str("x").U64(1).Str("t").U32(cols);
    for (uint32_t c = 0; c < cols; ++c) raw.Str("c" + std::to_string(c));
    raw.U32(key_count);
    for (uint32_t k = 0; k < key_count && k < 4; ++k) raw.U32(0);
    raw.U64(rows).U32(1);
    const std::string path = Path("table.snap");
    raw.Save(path);
    return path;
  };
  ExpectTypedIOError(table(1, 0, uint64_t{1} << 40), "rows 2^40");
  ExpectTypedIOError(table(1, 0, uint64_t{1} << 62), "rows 2^62");
  // rows * cols * 4 overflows 64 bits.
  ExpectTypedIOError(table(3, 0, uint64_t{1} << 62), "rows 2^62 x 3 cols");
  ExpectTypedIOError(table(1, 0, 2), "rows 2 with one cell");
  ExpectTypedIOError(table(1, 0xffffffffu, 1), "key_count 2^32-1");
  ExpectTypedIOError(table(1, 2, 1), "key_count > cols");

  // The same builder with honest fields loads.
  DataLake lake;
  ASSERT_TRUE(LoadSnapshot(lake, table(1, 1, 1)).ok());
  ASSERT_EQ(lake.size(), 1u);
  EXPECT_EQ(lake.table(0).CellString(0, 0), "x");
  EXPECT_EQ(lake.table(0).key_columns(), std::vector<size_t>{0});
}

TEST_F(SnapshotTest, BulkLoadMatchesPerStringInternOracle) {
  // Saved ids 0..6; "alpha" is stored twice and "3.10"/"007" are
  // non-canonical spellings of values also stored canonically.
  const std::vector<std::string> entries = {"",    "alpha", "3.10", "alpha",
                                            "007", "7",     "beta"};
  RawSnapshot raw(entries.size());
  for (const std::string& e : entries) raw.Str(e);
  const std::vector<uint32_t> col_a = {1, 2, 3, 4};
  const std::vector<uint32_t> col_b = {5, 6, 0, 2};
  raw.U64(1).Str("t").U32(2).Str("a").Str("b").U32(0).U64(col_a.size());
  for (uint32_t v : col_a) raw.U32(v);
  for (uint32_t v : col_b) raw.U32(v);
  raw.Save(Path("parity.snap"));

  ValueDictionary oracle;
  std::vector<ValueId> remap = {kNull};
  for (size_t i = 1; i < entries.size(); ++i) {
    remap.push_back(oracle.Intern(entries[i]));
  }

  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("parity.snap"), &info).ok());
  EXPECT_FALSE(info.identity_remap);
  ASSERT_EQ(loaded.size(), 1u);
  const Table& t = loaded.table(0);
  ASSERT_EQ(t.num_rows(), col_a.size());
  for (size_t r = 0; r < col_a.size(); ++r) {
    EXPECT_EQ(t.cell(r, 0), remap[col_a[r]]) << r;
    EXPECT_EQ(t.cell(r, 1), remap[col_b[r]]) << r;
  }
  ASSERT_EQ(loaded.dict()->size(), oracle.size());
  for (ValueId id = 0; id < oracle.size(); ++id) {
    EXPECT_EQ(loaded.dict()->StringOf(id), oracle.StringOf(id)) << id;
  }
}

// --- Dictionary adoption (kDictTags) -----------------------------------------

// Loads `path` into a fresh lake and into one with the dictionary tags
// stripped (the InternAll oracle), and checks the adopted load equals it:
// dictionary size, every id's string, lookups of every string and of a
// non-canonical spelling, the tables and identity_remap.
void ExpectAdoptedLoadMatchesOracle(const std::string& path,
                                    const std::string& stripped) {
  std::filesystem::copy_file(
      path, stripped, std::filesystem::copy_options::overwrite_existing);
  ASSERT_TRUE(StripDictTags(stripped).ok());
  ASSERT_TRUE(VerifySnapshotIntegrity(stripped).ok());

  DataLake adopted, oracle;
  SnapshotLoadInfo adopted_info, oracle_info;
  ASSERT_TRUE(LoadSnapshot(adopted, path, &adopted_info).ok());
  ASSERT_TRUE(LoadSnapshot(oracle, stripped, &oracle_info).ok());
  EXPECT_TRUE(adopted_info.dictionary_adopted);
  EXPECT_FALSE(oracle_info.dictionary_adopted);
  EXPECT_EQ(adopted_info.identity_remap, oracle_info.identity_remap);
  EXPECT_EQ(adopted_info.delta_runs, oracle_info.delta_runs);

  const ValueDictionary& a = *adopted.dict();
  const ValueDictionary& o = *oracle.dict();
  ASSERT_EQ(a.size(), o.size());
  size_t mismatched = 0;
  for (ValueId id = 0; id < o.size(); ++id) {
    const std::string& value = o.StringOf(id);
    mismatched += a.StringOf(id) != value;
    mismatched += a.Lookup(value) != o.Lookup(value);
    mismatched += id != kNull && a.Lookup(value) != id;
  }
  EXPECT_EQ(mismatched, 0u);
  for (const char* spelling : {"3.10", "007", "-0.50", "not-in-the-lake"}) {
    EXPECT_EQ(a.Lookup(spelling), o.Lookup(spelling)) << spelling;
  }

  ASSERT_EQ(adopted.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    const Table& x = adopted.table(i);
    const Table& y = oracle.table(i);
    EXPECT_EQ(x.name(), y.name());
    EXPECT_EQ(x.column_names(), y.column_names());
    EXPECT_EQ(x.key_columns(), y.key_columns());
    ASSERT_EQ(x.num_cols(), y.num_cols());
    for (size_t c = 0; c < x.num_cols(); ++c) {
      EXPECT_EQ(x.column(c), y.column(c)) << x.name() << " column " << c;
    }
  }
}

// Reclaims every source through a fresh service opened on `path` and on
// `stripped` (each with its own, empty dictionary) and expects the same
// answers from the two mapped catalogs.
void ExpectSameServiceAnswers(const std::string& path,
                              const std::string& stripped,
                              const std::vector<const Table*>& sources) {
  ReclaimService adopted, oracle;
  ASSERT_TRUE(adopted.AddLakeFromSnapshot("lake", path).ok());
  ASSERT_TRUE(oracle.AddLakeFromSnapshot("lake", stripped).ok());
  ASSERT_TRUE(adopted.residency_stats()[0].catalog.mapped);
  ASSERT_TRUE(oracle.residency_stats()[0].catalog.mapped);
  ReclaimRequest request;
  request.lake = "lake";
  for (const Table* source : sources) {
    auto x = adopted.Reclaim(TranslateToDictionary(*source, adopted.dict()),
                             request);
    auto y = oracle.Reclaim(TranslateToDictionary(*source, oracle.dict()),
                            request);
    ASSERT_EQ(x.ok(), y.ok()) << source->name();
    if (!x.ok()) continue;
    EXPECT_EQ(RowsOf(x->reclaimed), RowsOf(y->reclaimed)) << source->name();
    EXPECT_EQ(x->originating_names, y->originating_names) << source->name();
    EXPECT_EQ(x->predicted_eis, y->predicted_eis) << source->name();
  }
}

TEST_F(SnapshotTest, AdoptedDictionaryMatchesReinternedOnTpTrSmall) {
  auto bench = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  ASSERT_TRUE(bench.ok());
  ASSERT_TRUE(SaveV2(*bench->lake, Path("small.snap")).ok());
  ExpectAdoptedLoadMatchesOracle(Path("small.snap"), Path("stripped.snap"));
  std::vector<const Table*> sources;
  for (size_t i = 0; i < bench->sources.size() && i < 4; ++i) {
    sources.push_back(&bench->sources[i].source);
  }
  ExpectSameServiceAnswers(Path("small.snap"), Path("stripped.snap"),
                           sources);
}

TEST_F(SnapshotTest, AdoptedDictionaryMatchesReinternedOnRandomSpellings) {
  // Words, integers and decimals, many spelled non-canonically ("007",
  // "3.10", "+4", "1e3", " 12"), so the saved dictionary is the
  // canonical forms and lookups must canonicalize to find them.
  std::mt19937 rng(20);
  const auto spell = [&rng]() -> std::string {
    std::uniform_int_distribution<int> kind(0, 7);
    std::uniform_int_distribution<int> small(0, 999);
    const int n = small(rng);
    switch (kind(rng)) {
      case 0: return "w" + std::to_string(n) + "-" + std::to_string(small(rng));
      case 1: return std::to_string(n);
      case 2: return "00" + std::to_string(n);
      case 3: return std::to_string(n) + "." + std::to_string(n % 10) + "0";
      case 4: return "+" + std::to_string(n);
      case 5: return std::to_string(n % 9 + 1) + "e" + std::to_string(n % 4);
      case 6: return " " + std::to_string(n) + " ";
      default: return "-" + std::to_string(n) + ".50";
    }
  };
  DataLake lake;
  for (int t = 0; t < 6; ++t) {
    TableBuilder b(lake.dict(), "t" + std::to_string(t));
    b.Columns({"a", "b", "c"});
    for (int r = 0; r < 300; ++r) b.Row({spell(), spell(), spell()});
    ASSERT_TRUE(lake.AddTable(b.Build()).ok());
  }
  ASSERT_TRUE(SaveV2(lake, Path("random.snap")).ok());
  ExpectAdoptedLoadMatchesOracle(Path("random.snap"), Path("stripped.snap"));

  // The adopted dictionary reproduces the saved one id for id.
  DataLake loaded;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("random.snap")).ok());
  ASSERT_EQ(loaded.dict()->size(), lake.dict()->size());
  for (ValueId id = 0; id < lake.dict()->size(); ++id) {
    ASSERT_EQ(loaded.dict()->StringOf(id), lake.dict()->StringOf(id)) << id;
  }
}

TEST_F(SnapshotTest, AdoptionKeepsEverySavedSpelling) {
  // The canonical spelling of a non-integer of 13+ digits is the %.12g
  // exponent form, which parses back to an integer: canonicalizing it
  // again rewrites it. Adoption never canonicalizes, so the loaded
  // dictionary is the saved one and the original spelling still finds
  // its id.
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(TableBuilder(lake.dict(), "t")
                                .Columns({"v"})
                                .Row({"1234567890123.5"})
                                .Row({"3.10"})
                                .Build())
                  .ok());
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("lake.snap"), &info).ok());
  ASSERT_TRUE(info.dictionary_adopted);
  ASSERT_EQ(loaded.dict()->size(), lake.dict()->size());
  for (ValueId id = 0; id < lake.dict()->size(); ++id) {
    EXPECT_EQ(loaded.dict()->StringOf(id), lake.dict()->StringOf(id));
  }
  for (const char* spelling : {"1234567890123.5", "3.10", "3.1"}) {
    EXPECT_EQ(loaded.dict()->Lookup(spelling), lake.dict()->Lookup(spelling))
        << spelling;
    EXPECT_NE(loaded.dict()->Lookup(spelling), kNull) << spelling;
  }
}

TEST_F(SnapshotTest, AdoptionOnlyIntoAnEmptyDictionary) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
  // Pre-interned target: InternAll path, same strings per cell.
  DataLake target;
  (void)target.AddTable(TableBuilder(target.dict(), "pre")
                            .Columns({"x"})
                            .Row({"boston"})
                            .Build());
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(target, Path("lake.snap"), &info).ok());
  EXPECT_FALSE(info.dictionary_adopted);
  EXPECT_FALSE(info.identity_remap);
  EXPECT_EQ(target.table(*target.IndexOf("people")).CellString(0, 2),
            "boston");
  // Salvage never adopts; v1 files have no section to adopt.
  DataLake salvaged;
  ASSERT_TRUE(LoadSnapshotBody(salvaged, Path("lake.snap"), &info).ok());
  EXPECT_FALSE(info.dictionary_adopted);
  ASSERT_TRUE(WriteV1Snapshot(lake, Path("lake.v1")).ok());
  DataLake v1;
  ASSERT_TRUE(LoadSnapshot(v1, Path("lake.v1"), &info).ok());
  EXPECT_FALSE(info.dictionary_adopted);
  // A fresh lake adopts.
  DataLake fresh;
  ASSERT_TRUE(LoadSnapshot(fresh, Path("lake.snap"), &info).ok());
  EXPECT_TRUE(info.dictionary_adopted);
  EXPECT_TRUE(info.identity_remap);
}

TEST_F(SnapshotTest, DictTagsBitFlipFailsVerifyAndLoad) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
  storage::SectionDesc desc;
  {
    std::FILE* f = std::fopen(Path("lake.snap").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    auto footer = storage::ReadFooter(f);
    std::fclose(f);
    ASSERT_TRUE(footer.ok());
    const storage::SectionDesc* d =
        footer->Find(storage::SectionId::kDictTags);
    ASSERT_NE(d, nullptr);
    desc = *d;
  }
  for (uint64_t offset : {desc.offset, desc.offset + 9,
                          desc.offset + desc.bytes - 1}) {
    std::fstream f(Path("lake.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.get(b);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(b ^ 0x10));
    f.close();
    EXPECT_EQ(VerifySnapshotIntegrity(Path("lake.snap")).code(),
              StatusCode::kIOError) << offset;
    DataLake fresh;
    EXPECT_EQ(LoadSnapshot(fresh, Path("lake.snap")).code(),
              StatusCode::kIOError) << offset;
    EXPECT_EQ(fresh.size(), 0u);
    std::fstream g(Path("lake.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    g.seekp(static_cast<std::streamoff>(offset));
    g.put(b);
    g.close();
    ASSERT_TRUE(VerifySnapshotIntegrity(Path("lake.snap")).ok());
  }
}

TEST_F(SnapshotTest, DictTagsCountDisagreeingWithDictionaryFailsTyped) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
  // One tag short, with count and checksum sealed to match: the section
  // is self-consistent but disagrees with the body's dictionary.
  ASSERT_TRUE(ForgeDictTags(Path("lake.snap"), [](std::vector<uint8_t>* p) {
                uint64_t count;
                std::memcpy(&count, p->data() + 8, 8);
                --count;
                std::memcpy(p->data() + 8, &count, 8);
                p->resize(p->size() - 4);
              }).ok());
  EXPECT_EQ(VerifySnapshotIntegrity(Path("lake.snap")).code(),
            StatusCode::kIOError);
  DataLake fresh;
  EXPECT_EQ(LoadSnapshot(fresh, Path("lake.snap")).code(),
            StatusCode::kIOError);
  EXPECT_EQ(fresh.size(), 0u);
  // Whether or not the target could adopt.
  DataLake target;
  (void)target.AddTable(
      TableBuilder(target.dict(), "pre").Columns({"x"}).Row({"y"}).Build());
  EXPECT_EQ(LoadSnapshot(target, Path("lake.snap")).code(),
            StatusCode::kIOError);
  EXPECT_EQ(target.size(), 1u);

  // A count the section's own size cannot hold fails the same way.
  ASSERT_TRUE(SaveV2(lake, Path("size.snap")).ok());
  ASSERT_TRUE(ForgeDictTags(Path("size.snap"), [](std::vector<uint8_t>* p) {
                const uint64_t count = uint64_t{1} << 40;
                std::memcpy(p->data() + 8, &count, 8);
              }).ok());
  DataLake other;
  EXPECT_EQ(LoadSnapshot(other, Path("size.snap")).code(),
            StatusCode::kIOError);
  EXPECT_EQ(other.size(), 0u);
}

TEST_F(SnapshotTest, ForeignTagVersionFallsBackAndLoadsIdentically) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
  ASSERT_TRUE(ForgeDictTags(Path("lake.snap"), [](std::vector<uint8_t>* p) {
                const uint32_t version = ValueDictionary::kTagVersion + 1;
                std::memcpy(p->data(), &version, 4);
              }).ok());
  DataLake fresh;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(fresh, Path("lake.snap"), &info).ok());
  EXPECT_FALSE(info.dictionary_adopted);
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(fresh.dict()->size(), lake.dict()->size());
  for (ValueId id = 0; id < lake.dict()->size(); ++id) {
    EXPECT_EQ(fresh.dict()->StringOf(id), lake.dict()->StringOf(id));
    EXPECT_EQ(fresh.dict()->Lookup(lake.dict()->StringOf(id)),
              lake.dict()->Lookup(lake.dict()->StringOf(id)));
  }
  ASSERT_EQ(fresh.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_EQ(RowsOf(fresh.table(i)), RowsOf(lake.table(i)));
  }
}

TEST_F(SnapshotTest, ForgedTagsLoadWithoutCrash) {
  // Lying tags, re-sealed: adoption trusts them, so lookups of the
  // mis-tagged values may miss, but the load, every id's string and
  // every cell are unaffected, and nothing reads out of bounds.
  DataLake lake = MakeLake();
  for (uint32_t fill : {0u, 0xffffffffu, 7u}) {
    ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
    const auto forge = [fill](std::vector<uint8_t>* p) {
      for (size_t at = storage::kDictTagsHeaderBytes; at + 4 <= p->size();
           at += 4) {
        std::memcpy(p->data() + at, &fill, 4);
      }
    };
    ASSERT_TRUE(ForgeDictTags(Path("lake.snap"), forge).ok());
    DataLake fresh;
    SnapshotLoadInfo info;
    ASSERT_TRUE(LoadSnapshot(fresh, Path("lake.snap"), &info).ok()) << fill;
    EXPECT_TRUE(info.dictionary_adopted);
    ASSERT_EQ(fresh.dict()->size(), lake.dict()->size());
    for (ValueId id = 0; id < lake.dict()->size(); ++id) {
      EXPECT_EQ(fresh.dict()->StringOf(id), lake.dict()->StringOf(id));
      (void)fresh.dict()->Lookup(lake.dict()->StringOf(id));
    }
    (void)fresh.dict()->Intern("a-new-value");
    ASSERT_EQ(fresh.size(), lake.size());
    for (size_t i = 0; i < lake.size(); ++i) {
      EXPECT_EQ(RowsOf(fresh.table(i)), RowsOf(lake.table(i)));
    }
  }
}

TEST_F(SnapshotTest, MissingFileFails) {
  DataLake lake;
  Status s = LoadSnapshot(lake, Path("nope.snap"));
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, BadMagicRejected) {
  std::ofstream out(Path("bad.snap"), std::ios::binary);
  out << "NOTASNAPxxxxxxxxxxxxxxxx";
  out.close();
  DataLake lake;
  Status s = LoadSnapshot(lake, Path("bad.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, TruncationAtEveryPrefixFailsCleanly) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(WriteV1Snapshot(lake, Path("lake.snap")).ok());
  std::ifstream in(Path("lake.snap"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 32u);
  // Cut the file at a spread of prefixes; every load must fail with a
  // typed error and never crash. (Skipping prefix 0: an empty file fails
  // at the magic check, also typed.)
  for (size_t cut = 1; cut < bytes.size(); cut += 7) {
    const std::string path = Path("cut.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    DataLake fresh;
    Status s = LoadSnapshot(fresh, path);
    EXPECT_FALSE(s.ok()) << "cut at " << cut << " unexpectedly loaded";
  }
}

TEST_F(SnapshotTest, FutureVersionRejected) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(WriteV1Snapshot(lake, Path("lake.snap")).ok());
  // Bump the version field (bytes 8..11) to 99.
  std::fstream f(Path("lake.snap"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  uint32_t version = 99;
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
  f.close();
  DataLake fresh;
  Status s = LoadSnapshot(fresh, Path("lake.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, NameCollisionRejected) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());
  DataLake target;
  (void)target.AddTable(TableBuilder(target.dict(), "people")
                            .Columns({"x"})
                            .Row({"1"})
                            .Build());
  Status s = LoadSnapshot(target, Path("lake.snap"));
  EXPECT_FALSE(s.ok());
}

// Labeled nulls are transient integration state. They are not
// dictionary entries, so a dictionary that allocated one still saves;
// a table cell holding one refuses to serialize, through the full save
// and through a delta run, and leaves no file behind or changed.
TEST_F(SnapshotTest, LabeledNullsRefuseToSerialize) {
  DataLake lake = MakeLake();
  const ValueId label = lake.dict()->CreateLabeledNull();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap")).ok());

  Table labeled =
      TableBuilder(lake.dict(), "labeled").Columns({"x"}).Row({"1"}).Build();
  labeled.set_cell(0, 0, label);
  DataLake with_label(lake);
  ASSERT_TRUE(with_label.AddTable(std::move(labeled)).ok());
  Status s = SaveV2(with_label, Path("labeled.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("labeled null"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(Path("labeled.snap")));

  const auto size_before = std::filesystem::file_size(Path("lake.snap"));
  const auto run = ColumnStatsCatalog::BuildDeltaRun(with_label, lake.size());
  s = AppendSnapshotDelta(with_label, lake.size(), run.views(),
                          Path("lake.snap"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(std::filesystem::file_size(Path("lake.snap")), size_before);
  EXPECT_TRUE(VerifySnapshotIntegrity(Path("lake.snap")).ok());
}

// --- Snapshot v2 (catalog-carrying, src/storage) -----------------------------

TEST_F(SnapshotTest, V2RoundTripLoadsTablesAndReportsIdentity) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  DataLake loaded;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(loaded, Path("lake.snap2"), &info).ok());
  EXPECT_EQ(info.version, 2u);
  // A fresh dictionary re-interns the saved dictionary in id order, so
  // the remap is the identity — the condition for mapped opens.
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(loaded.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    const Table& a = lake.table(i);
    const Table& b = loaded.table(i);
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_cols(); ++c) {
        EXPECT_EQ(a.CellString(r, c), b.CellString(r, c));
      }
    }
  }
}

TEST_F(SnapshotTest, V2LoadIntoPreInternedDictClearsIdentityFlag) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  DataLake target;
  // Interning anything first shifts ids, so the remap cannot be the
  // identity and a mapped open would be wrong — the flag must say so.
  (void)target.AddTable(TableBuilder(target.dict(), "pre")
                            .Columns({"x"})
                            .Row({"zzz"})
                            .Build());
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(target, Path("lake.snap2"), &info).ok());
  EXPECT_EQ(info.version, 2u);
  EXPECT_FALSE(info.identity_remap);
}

TEST_F(SnapshotTest, DeltaRunDictionaryLoadsThroughBulkPath) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("delta.snap2")).ok());
  // The run repeats base values ("smith", "3.1"), adds new ones, and
  // spells a base numeric non-canonically.
  const size_t first = lake.size();
  ASSERT_TRUE(lake.AddTable(TableBuilder(lake.dict(), "more")
                                .Columns({"id", "name", "score"})
                                .Row({"3", "smith", "3.10"})
                                .Row({"4", "garcia", "0042"})
                                .Row({"5", "", "new-long-value-past-8"})
                                .Key({"id"})
                                .Build())
                  .ok());
  const auto run = ColumnStatsCatalog::BuildDeltaRun(lake, first);
  ASSERT_TRUE(AppendSnapshotDelta(lake, first, run.views(),
                                  Path("delta.snap2"))
                  .ok());

  DataLake fresh;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(fresh, Path("delta.snap2"), &info).ok());
  EXPECT_EQ(info.delta_runs, 1u);
  EXPECT_TRUE(info.identity_remap);
  ASSERT_EQ(fresh.dict()->size(), lake.dict()->size());
  for (ValueId id = 0; id < lake.dict()->size(); ++id) {
    EXPECT_EQ(fresh.dict()->StringOf(id), lake.dict()->StringOf(id)) << id;
  }
  ASSERT_EQ(fresh.size(), lake.size());
  for (size_t i = 0; i < lake.size(); ++i) {
    EXPECT_EQ(RowsOf(fresh.table(i)), RowsOf(lake.table(i))) << i;
    for (size_t r = 0; r < lake.table(i).num_rows(); ++r) {
      for (size_t c = 0; c < lake.table(i).num_cols(); ++c) {
        EXPECT_EQ(fresh.table(i).cell(r, c), lake.table(i).cell(r, c));
      }
    }
  }

  // Into a dictionary that already holds some of the run's values the
  // remap is no identity, but every cell still reads the same string.
  DataLake target;
  (void)target.AddTable(TableBuilder(target.dict(), "pre")
                            .Columns({"x"})
                            .Row({"garcia"})
                            .Row({"42"})
                            .Build());
  ASSERT_TRUE(LoadSnapshot(target, Path("delta.snap2"), &info).ok());
  EXPECT_FALSE(info.identity_remap);
  auto idx = target.IndexOf("more");
  ASSERT_TRUE(idx.ok());
  const Table& more = target.table(*idx);
  EXPECT_EQ(more.cell(1, 1), target.table(0).cell(0, 0));  // "garcia"
  EXPECT_EQ(more.cell(1, 2), target.table(0).cell(1, 0));  // 42
  EXPECT_EQ(more.CellString(0, 2), "3.1");
  EXPECT_EQ(more.CellString(2, 2), "new-long-value-past-8");
}

TEST_F(SnapshotTest, V2TruncationFailsCleanlyAtStrategicCuts) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  std::ifstream in(Path("lake.snap2"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const size_t n = bytes.size();
  ASSERT_GT(n, storage::kFooterBytes + storage::kBlockSize);
  // Cuts inside the body, at the section region, inside the footer, and
  // one byte short of complete. Every one must fail typed, never crash,
  // and register nothing.
  std::vector<size_t> cuts = {1,
                              50,
                              storage::kBlockSize - 1,
                              storage::kBlockSize + 17,
                              n / 2,
                              n - storage::kFooterBytes - 1,
                              n - storage::kFooterBytes + 5,
                              n - 9,
                              n - 1};
  for (size_t cut : cuts) {
    ASSERT_LT(cut, n);
    const std::string path = Path("cut.snap2");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    DataLake fresh;
    Status s = LoadSnapshot(fresh, path);
    EXPECT_FALSE(s.ok()) << "cut at " << cut << " unexpectedly loaded";
    EXPECT_EQ(fresh.size(), 0u) << "cut at " << cut;
  }
}

TEST_F(SnapshotTest, V2CorruptedSectionChecksumRejected) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  const auto n = std::filesystem::file_size(Path("lake.snap2"));
  // Flip a byte inside the catalog region (after the first block, well
  // clear of the footer).
  std::fstream f(Path("lake.snap2"),
                 std::ios::binary | std::ios::in | std::ios::out);
  const std::streamoff pos = storage::kBlockSize + 64;
  ASSERT_LT(static_cast<uint64_t>(pos), n - storage::kFooterBytes);
  f.seekg(pos);
  char b;
  f.get(b);
  b ^= 0x08;
  f.seekp(pos);
  f.put(b);
  f.close();
  DataLake fresh;
  Status s = LoadSnapshot(fresh, Path("lake.snap2"));
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(fresh.size(), 0u);
}

TEST_F(SnapshotTest, V1FileRefusesMappedOpen) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(WriteV1Snapshot(lake, Path("lake.snap")).ok());
  // A v1 snapshot has no catalog tail; treating it as v2 must be a
  // typed refusal, not garbage views.
  auto mapped = storage::MappedCatalog::Open(Path("lake.snap"), {});
  EXPECT_FALSE(mapped.ok());
}

TEST_F(SnapshotTest, V1FixtureLoadsAsTheSameLake) {
  // v1 files written by earlier builds stay supported input: the
  // fixture loads as version 1, verifies, and yields exactly the lake
  // the v2 file of the same tables yields.
  DataLake lake = MakeLake();
  ASSERT_TRUE(WriteV1Snapshot(lake, Path("lake.snap")).ok());
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  EXPECT_TRUE(VerifySnapshotIntegrity(Path("lake.snap")).ok());
  DataLake from_v1;
  DataLake from_v2;
  SnapshotLoadInfo v1_info;
  SnapshotLoadInfo v2_info;
  ASSERT_TRUE(LoadSnapshot(from_v1, Path("lake.snap"), &v1_info).ok());
  ASSERT_TRUE(LoadSnapshot(from_v2, Path("lake.snap2"), &v2_info).ok());
  EXPECT_EQ(v1_info.version, 1u);
  EXPECT_EQ(v2_info.version, 2u);
  EXPECT_TRUE(v1_info.identity_remap);
  ASSERT_EQ(from_v1.dict()->size(), from_v2.dict()->size());
  for (ValueId id = 0; id < from_v2.dict()->size(); ++id) {
    EXPECT_EQ(from_v1.dict()->StringOf(id), from_v2.dict()->StringOf(id));
  }
  ASSERT_EQ(from_v1.size(), from_v2.size());
  for (size_t i = 0; i < from_v2.size(); ++i) {
    const Table& a = from_v1.table(i);
    const Table& b = from_v2.table(i);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.column_names(), b.column_names());
    EXPECT_EQ(a.key_columns(), b.key_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t c = 0; c < a.num_cols(); ++c) {
      EXPECT_EQ(a.column(c), b.column(c)) << a.name() << " column " << c;
    }
  }
}

TEST_F(SnapshotTest, V2FutureVersionRejected) {
  DataLake lake = MakeLake();
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  std::fstream f(Path("lake.snap2"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);
  uint32_t version = 7;
  f.write(reinterpret_cast<const char*>(&version), sizeof version);
  f.close();
  DataLake fresh;
  Status s = LoadSnapshot(fresh, Path("lake.snap2"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, CollisionLeavesTargetCompletelyUntouched) {
  // All-or-nothing: a collision on ANY snapshot table must register
  // NONE of them, for both formats.
  DataLake lake = MakeLake();
  ASSERT_TRUE(WriteV1Snapshot(lake, Path("lake.snap")).ok());
  ASSERT_TRUE(SaveV2(lake, Path("lake.snap2")).ok());
  for (const char* snap : {"lake.snap", "lake.snap2"}) {
    DataLake target;
    // Collides with "weird" — the LAST table in the snapshot, so a
    // non-atomic loader would have registered "people" and "empty"
    // before noticing.
    (void)target.AddTable(TableBuilder(target.dict(), "weird")
                              .Columns({"q"})
                              .Row({"1"})
                              .Build());
    Status s = LoadSnapshot(target, Path(snap));
    EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << snap;
    ASSERT_EQ(target.size(), 1u) << snap;
    EXPECT_EQ(target.table(0).name(), "weird");
    EXPECT_EQ(target.table(0).CellString(0, 0), "1");
  }
}

TEST_F(SnapshotTest, V2FullDiskSurfacesTypedError) {
  // Injected ENOSPC at the durability flush — the classic full-disk
  // shape, where every fwrite "succeeded" and the failure surfaces only
  // when the bytes drain. SaveSnapshotV2 must report it, never claim
  // success, and the crash-atomic commit must leave no file behind:
  // neither the destination nor the staging temp.
  DataLake lake = MakeLake();
  GenT gent(lake);
  const std::string path = Path("v2_enospc.snap");
  io::FaultInjector injector;
  io::FaultPlan plan;
  plan.op_mask = io::OpBit(io::Op::kFlush);
  plan.kind = io::FaultKind::kErrno;
  plan.error_code = ENOSPC;
  injector.Arm(plan);
  {
    io::ScopedFaultInjector scope(&injector);
    Status s = SaveSnapshotV2(lake, gent.catalog().section_views(), path);
    EXPECT_EQ(s.code(), StatusCode::kIOError);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
}

}  // namespace
}  // namespace gent
