// Focused tests of Expand (Algorithm 5) behaviours added during
// reproduction: keyness-weighted join pairs, alternative-path scoring,
// hop-family unions, and post-expansion mapping verification.

#include <gtest/gtest.h>
#include <unordered_set>

#include "src/matrix/expand.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

class ExpandTest : public ::testing::Test {
 protected:
  DictionaryPtr dict_ = MakeDictionary();

  Candidate MakeCandidate(Table t, bool covers_key) {
    Candidate c(std::move(t));
    c.covers_key = covers_key;
    return c;
  }
};

TEST_F(ExpandTest, PrefersFunctionalJoinOverManyToMany) {
  // Source keyed on id; the keyless candidate can reach a key-covering
  // table either via a proper FK (unique ref values) or via a 2-value
  // "category" column shared with a decoy. Keyness must pick the FK.
  TableBuilder sb(dict_, "source");
  sb.Columns({"id", "attr", "extra"});
  for (int i = 0; i < 20; ++i) {
    sb.Row({"id" + std::to_string(i), "attr" + std::to_string(i),
            "x" + std::to_string(i)});
  }
  Table source = sb.Key({"id"}).Build();

  // Key-covering candidate: id + ref (unique per row).
  TableBuilder kb(dict_, "keyed");
  kb.Columns({"id", "ref"});
  for (int i = 0; i < 20; ++i) {
    kb.Row({"id" + std::to_string(i), "r" + std::to_string(i)});
  }
  // Keyless candidate holding the attr values, joinable on ref.
  TableBuilder ab(dict_, "attrs");
  ab.Columns({"ref", "attr", "category"});
  for (int i = 0; i < 20; ++i) {
    ab.Row({"r" + std::to_string(i), "attr" + std::to_string(i),
            i % 2 == 0 ? "even" : "odd"});
  }
  // Decoy also key-covering but sharing only the 2-value category.
  TableBuilder db(dict_, "decoy");
  db.Columns({"id", "category"});
  for (int i = 0; i < 20; ++i) {
    db.Row({"id" + std::to_string(i), i % 2 == 0 ? "odd" : "even"});
  }

  std::vector<Candidate> candidates;
  candidates.push_back(MakeCandidate(kb.Build(), true));
  candidates.push_back(MakeCandidate(ab.Build(), false));
  candidates.push_back(MakeCandidate(db.Build(), true));

  auto r = Expand(source, candidates);
  ASSERT_TRUE(r.ok());
  // The attrs candidate must be expanded through `keyed` on ref (giving
  // each attr its true id), not fanned out through the category decoy.
  const Table* expanded = nullptr;
  for (const auto& t : r->tables) {
    if (t.name() == "attrs+expanded") expanded = &t;
  }
  ASSERT_NE(expanded, nullptr);
  auto idc = expanded->ColumnIndex("id");
  auto ac = expanded->ColumnIndex("attr");
  ASSERT_TRUE(idc.has_value());
  ASSERT_TRUE(ac.has_value());
  size_t correct = 0;
  for (size_t row = 0; row < expanded->num_rows(); ++row) {
    const std::string id(expanded->CellString(row, *idc));
    const std::string attr(expanded->CellString(row, *ac));
    correct += id.substr(2) == attr.substr(4);  // idN ↔ attrN
  }
  EXPECT_EQ(correct, expanded->num_rows());
  EXPECT_EQ(expanded->num_rows(), 20u);
}

TEST_F(ExpandTest, HopFamilyUnionCoversNullJoinKeys) {
  // Two same-schema keyed variants each missing half the join-key cells:
  // the hop union must still expand all rows of the keyless candidate.
  TableBuilder sb(dict_, "source");
  sb.Columns({"id", "v"});
  for (int i = 0; i < 10; ++i) {
    sb.Row({"id" + std::to_string(i), "v" + std::to_string(i)});
  }
  Table source = sb.Key({"id"}).Build();

  auto keyed_variant = [&](const std::string& name, bool even_nulls) {
    TableBuilder b(dict_, name);
    b.Columns({"id", "ref"});
    for (int i = 0; i < 10; ++i) {
      bool null_here = (i % 2 == 0) == even_nulls;
      b.Row({"id" + std::to_string(i),
             null_here ? "" : "r" + std::to_string(i)});
    }
    return b.Build();
  };
  TableBuilder vb(dict_, "values");
  vb.Columns({"ref", "v"});
  for (int i = 0; i < 10; ++i) {
    vb.Row({"r" + std::to_string(i), "v" + std::to_string(i)});
  }

  std::vector<Candidate> candidates;
  candidates.push_back(MakeCandidate(keyed_variant("k1", true), true));
  candidates.push_back(MakeCandidate(keyed_variant("k2", false), true));
  candidates.push_back(MakeCandidate(vb.Build(), false));

  auto r = Expand(source, candidates);
  ASSERT_TRUE(r.ok());
  const Table* expanded = nullptr;
  for (const auto& t : r->tables) {
    if (t.name() == "values+expanded") expanded = &t;
  }
  ASSERT_NE(expanded, nullptr);
  // All 10 rows reachable despite each variant covering only 5 keys.
  std::unordered_set<ValueId> ids;
  auto idc = *expanded->ColumnIndex("id");
  for (size_t row = 0; row < expanded->num_rows(); ++row) {
    ids.insert(expanded->cell(row, idc));
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST_F(ExpandTest, MismappedConstantColumnIsUnmapped) {
  // A keyless candidate whose column was (wrongly) renamed to a source
  // column holding a constant: after expansion the aligned values
  // contradict the source, so the column must be neutralized.
  TableBuilder sb(dict_, "source");
  sb.Columns({"id", "flag", "v"});
  for (int i = 0; i < 12; ++i) {
    sb.Row({"id" + std::to_string(i), "0", "v" + std::to_string(i)});
  }
  Table source = sb.Key({"id"}).Build();

  TableBuilder kb(dict_, "keyed");
  kb.Columns({"id", "ref"});
  for (int i = 0; i < 12; ++i) {
    kb.Row({"id" + std::to_string(i), "r" + std::to_string(i)});
  }
  // The keyless candidate's "flag" column actually holds small ints
  // 0..11 — a classic constant-containment mis-mapping.
  TableBuilder bb(dict_, "bad");
  bb.Columns({"ref", "v", "flag"});
  for (int i = 0; i < 12; ++i) {
    bb.Row({"r" + std::to_string(i), "v" + std::to_string(i),
            std::to_string(i)});
  }

  std::vector<Candidate> candidates;
  candidates.push_back(MakeCandidate(kb.Build(), true));
  candidates.push_back(MakeCandidate(bb.Build(), false));

  auto r = Expand(source, candidates);
  ASSERT_TRUE(r.ok());
  const Table* expanded = nullptr;
  for (const auto& t : r->tables) {
    if (t.name() == "bad+expanded") expanded = &t;
  }
  ASSERT_NE(expanded, nullptr);
  // The poisoned flag column must be unmapped (renamed away); v kept.
  EXPECT_FALSE(expanded->HasColumn("flag")) << expanded->ToString();
  EXPECT_TRUE(expanded->HasColumn("v"));
}

TEST_F(ExpandTest, UnreachableCandidateIsDropped) {
  Table source = TableBuilder(dict_, "s")
                     .Columns({"id", "v"})
                     .Row({"a", "1"})
                     .Key({"id"})
                     .Build();
  std::vector<Candidate> candidates;
  candidates.push_back(MakeCandidate(TableBuilder(dict_, "island")
                                         .Columns({"zzz"})
                                         .Row({"qqq"})
                                         .Build(),
                                     false));
  auto r = Expand(source, candidates);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->tables.empty());
  EXPECT_EQ(r->num_dropped, 1u);
}

TEST_F(ExpandTest, KeyCoveringCandidatesPassThroughUnchanged) {
  Table source = TableBuilder(dict_, "s")
                     .Columns({"id", "v"})
                     .Row({"a", "1"})
                     .Key({"id"})
                     .Build();
  std::vector<Candidate> candidates;
  candidates.push_back(MakeCandidate(
      TableBuilder(dict_, "t").Columns({"id", "v"}).Row({"a", "1"}).Build(),
      true));
  auto r = Expand(source, candidates);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->tables.size(), 1u);
  EXPECT_EQ(r->tables[0].name(), "t");
  EXPECT_EQ(r->num_expanded, 0u);
}

}  // namespace
}  // namespace gent
