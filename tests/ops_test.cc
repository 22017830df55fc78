#include <gtest/gtest.h>
#include <unordered_set>

#include "src/lake/inverted_index.h"
#include "src/ops/full_disjunction.h"
#include "src/ops/fusion.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"
#include "src/table/table_builder.h"

namespace gent {
namespace {

class OpsTest : public ::testing::Test {
 protected:
  DictionaryPtr dict_ = MakeDictionary();

  ValueId V(const std::string& s) { return dict_->Intern(s); }

  Table People() {
    return TableBuilder(dict_, "people")
        .Columns({"id", "name", "city"})
        .Row({"1", "ann", "boston"})
        .Row({"2", "bob", ""})
        .Row({"3", "cat", "denver"})
        .Key({"id"})
        .Build();
  }
};

// --- Projection --------------------------------------------------------------

TEST_F(OpsTest, ProjectReordersColumns) {
  auto p = Project(People(), {"city", "id"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_cols(), 2u);
  EXPECT_EQ(p->column_name(0), "city");
  EXPECT_EQ(p->CellString(0, 1), "1");
}

TEST_F(OpsTest, ProjectMissingColumnFails) {
  EXPECT_EQ(Project(People(), {"ghost"}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(OpsTest, ProjectKeepsKeyWhenKeySurvives) {
  auto p = Project(People(), {"name", "id"});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->has_key());
  EXPECT_TRUE(p->IsKeyColumn(1));
}

TEST_F(OpsTest, ProjectDropsKeyWhenKeyColumnDropped) {
  auto p = Project(People(), {"name", "city"});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->has_key());
}

// --- Selection ----------------------------------------------------------------

TEST_F(OpsTest, SelectFiltersRows) {
  Table t = People();
  Table sel = Select(t, [&](const Table& tt, size_t r) {
    return tt.cell(r, 2) != kNull;
  });
  EXPECT_EQ(sel.num_rows(), 2u);
}

TEST_F(OpsTest, SelectValueIn) {
  Table t = People();
  Table sel = SelectValueIn(t, 0, {V("1"), V("3")});
  ASSERT_EQ(sel.num_rows(), 2u);
  EXPECT_EQ(sel.CellString(0, 1), "ann");
  EXPECT_EQ(sel.CellString(1, 1), "cat");
}

TEST_F(OpsTest, DistinctRemovesExactDuplicates) {
  Table t = TableBuilder(dict_, "d")
                .Columns({"a", "b"})
                .Row({"1", "x"})
                .Row({"1", "x"})
                .Row({"1", ""})
                .Row({"", ""})
                .Row({"1", ""})
                .Row({"2", "x"})
                .Row({"", ""})
                .Row({"1", "x"})
                .Key({"a"})
                .Build();
  Table d = Distinct(t);
  // First occurrences, in order; rows with null cells compare by id like
  // any other (two all-null rows are duplicates).
  ASSERT_EQ(d.num_rows(), 4u);
  EXPECT_EQ(d.Row(0), (std::vector<ValueId>{V("1"), V("x")}));
  EXPECT_EQ(d.Row(1), (std::vector<ValueId>{V("1"), kNull}));
  EXPECT_EQ(d.Row(2), (std::vector<ValueId>{kNull, kNull}));
  EXPECT_EQ(d.Row(3), (std::vector<ValueId>{V("2"), V("x")}));
  EXPECT_EQ(d.name(), "d");
  EXPECT_EQ(d.column_names(), t.column_names());
  EXPECT_EQ(d.key_columns(), t.key_columns());
  // Without duplicates the table comes back unchanged.
  EXPECT_TRUE(TablesBitIdentical(Distinct(d), d));
}

// --- Subsumption ---------------------------------------------------------------

TEST_F(OpsTest, SubsumesSemantics) {
  std::vector<ValueId> full{V("a"), V("b"), V("c")};
  std::vector<ValueId> partial{V("a"), kNull, V("c")};
  std::vector<ValueId> conflicting{V("a"), V("x"), kNull};
  EXPECT_TRUE(Subsumes(full, partial));
  EXPECT_FALSE(Subsumes(partial, full));
  EXPECT_FALSE(Subsumes(full, full));  // equal tuples don't subsume
  EXPECT_FALSE(Subsumes(full, conflicting));
}

TEST_F(OpsTest, SubsumptionRemovesDominatedTuples) {
  Table t = TableBuilder(dict_, "s")
                .Columns({"a", "b", "c"})
                .Row({"1", "x", "y"})
                .Row({"1", "", "y"})
                .Row({"1", "", ""})
                .Row({"2", "", ""})
                .Build();
  auto b = Subsumption(t);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_rows(), 2u);  // (1,x,y) and (2,⊥,⊥) survive
}

TEST_F(OpsTest, SubsumptionKeepsIncomparableTuples) {
  Table t = TableBuilder(dict_, "s")
                .Columns({"a", "b"})
                .Row({"1", ""})
                .Row({"", "2"})
                .Build();
  auto b = Subsumption(t);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_rows(), 2u);
}

// --- Complementation -------------------------------------------------------------

TEST_F(OpsTest, ComplementsSemantics) {
  std::vector<ValueId> t1{V("k"), V("a"), kNull};
  std::vector<ValueId> t2{V("k"), kNull, V("b")};
  std::vector<ValueId> t3{V("j"), kNull, V("b")};  // no shared value
  std::vector<ValueId> t4{V("k"), V("x"), V("b")}; // conflicts with t1
  EXPECT_TRUE(Complements(t1, t2));
  EXPECT_TRUE(Complements(t2, t1));
  EXPECT_FALSE(Complements(t1, t3));
  EXPECT_FALSE(Complements(t1, t4));
  EXPECT_FALSE(Complements(t1, t1));  // nothing new on either side
  auto merged = MergeComplement(t1, t2);
  EXPECT_EQ(merged, (std::vector<ValueId>{V("k"), V("a"), V("b")}));
}

TEST_F(OpsTest, ComplementationMergesChains) {
  // Three tuples that pairwise complement into one complete tuple.
  Table t = TableBuilder(dict_, "c")
                .Columns({"k", "a", "b", "c"})
                .Row({"1", "x", "", ""})
                .Row({"1", "", "y", ""})
                .Row({"1", "", "", "z"})
                .Build();
  auto k = Complementation(t);
  ASSERT_TRUE(k.ok());
  ASSERT_EQ(k->num_rows(), 1u);
  EXPECT_EQ(k->CellString(0, 1), "x");
  EXPECT_EQ(k->CellString(0, 2), "y");
  EXPECT_EQ(k->CellString(0, 3), "z");
}

TEST_F(OpsTest, ComplementationKeepsConflicts) {
  Table t = TableBuilder(dict_, "c")
                .Columns({"k", "a"})
                .Row({"1", "x"})
                .Row({"1", "y"})
                .Build();
  auto k = Complementation(t);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k->num_rows(), 2u);  // conflicting non-nulls never merge
}

TEST_F(OpsTest, MinimalFormIsStable) {
  Table t = TableBuilder(dict_, "m")
                .Columns({"k", "a", "b"})
                .Row({"1", "x", ""})
                .Row({"1", "", "y"})
                .Row({"1", "x", "y"})
                .Row({"1", "x", "y"})
                .Build();
  auto m = TakeMinimalForm(t);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_rows(), 1u);
  // Reapplying is a no-op.
  auto m2 = TakeMinimalForm(*m);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->num_rows(), 1u);
}

// --- Unions -------------------------------------------------------------------

TEST_F(OpsTest, OuterUnionPadsMissingColumns) {
  Table a = TableBuilder(dict_, "a").Columns({"x", "y"}).Row({"1", "2"}).Build();
  Table b = TableBuilder(dict_, "b").Columns({"y", "z"}).Row({"3", "4"}).Build();
  Table u = OuterUnion(a, b);
  ASSERT_EQ(u.num_cols(), 3u);
  ASSERT_EQ(u.num_rows(), 2u);
  EXPECT_EQ(u.CellString(0, 0), "1");
  EXPECT_EQ(u.cell(0, 2), kNull);   // a lacks z
  EXPECT_EQ(u.cell(1, 0), kNull);   // b lacks x
  EXPECT_EQ(u.CellString(1, 1), "3");
}

TEST_F(OpsTest, OuterUnionOnSameSchemaEqualsInnerUnion) {
  Table a = TableBuilder(dict_, "a").Columns({"x"}).Row({"1"}).Build();
  Table b = TableBuilder(dict_, "b").Columns({"x"}).Row({"2"}).Build();
  Table u = OuterUnion(a, b);
  auto i = InnerUnion(a, b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(RowsOf(u), RowsOf(*i));  // Lemma 11
}

TEST_F(OpsTest, InnerUnionRejectsDifferentSchemas) {
  Table a = TableBuilder(dict_, "a").Columns({"x"}).Row({"1"}).Build();
  Table b = TableBuilder(dict_, "b").Columns({"y"}).Row({"2"}).Build();
  EXPECT_FALSE(InnerUnion(a, b).ok());
}

TEST_F(OpsTest, InnerUnionBySchemaGroups) {
  std::vector<Table> tables;
  tables.push_back(
      TableBuilder(dict_, "a1").Columns({"x", "y"}).Row({"1", "2"}).Build());
  tables.push_back(
      TableBuilder(dict_, "a2").Columns({"y", "x"}).Row({"9", "8"}).Build());
  tables.push_back(TableBuilder(dict_, "b").Columns({"z"}).Row({"3"}).Build());
  auto merged = InnerUnionBySchema(tables);
  EXPECT_EQ(merged.size(), 2u);
}

// --- Joins --------------------------------------------------------------------

TEST_F(OpsTest, InnerJoinOnSharedColumn) {
  Table a = TableBuilder(dict_, "a")
                .Columns({"id", "name"})
                .Row({"1", "ann"})
                .Row({"2", "bob"})
                .Build();
  Table b = TableBuilder(dict_, "b")
                .Columns({"id", "age"})
                .Row({"1", "30"})
                .Row({"3", "40"})
                .Build();
  auto j = NaturalJoin(a, b, JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->num_rows(), 1u);
  EXPECT_EQ(j->CellString(0, 1), "ann");
  EXPECT_EQ(j->CellString(0, 2), "30");
}

TEST_F(OpsTest, JoinIsNullRejecting) {
  Table a = TableBuilder(dict_, "a").Columns({"id", "v"}).Row({"", "x"}).Build();
  Table b = TableBuilder(dict_, "b").Columns({"id", "w"}).Row({"", "y"}).Build();
  auto j = NaturalJoin(a, b, JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 0u);  // null keys never match
}

TEST_F(OpsTest, LeftJoinPreservesLeft) {
  Table a = TableBuilder(dict_, "a")
                .Columns({"id", "name"})
                .Row({"1", "ann"})
                .Row({"2", "bob"})
                .Build();
  Table b = TableBuilder(dict_, "b").Columns({"id", "age"}).Row({"1", "30"}).Build();
  auto j = NaturalJoin(a, b, JoinKind::kLeft);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->num_rows(), 2u);
  EXPECT_EQ(j->CellString(1, 1), "bob");
  EXPECT_EQ(j->cell(1, 2), kNull);
}

TEST_F(OpsTest, FullOuterJoinPreservesBoth) {
  Table a = TableBuilder(dict_, "a").Columns({"id", "n"}).Row({"1", "x"}).Build();
  Table b = TableBuilder(dict_, "b").Columns({"id", "m"}).Row({"2", "y"}).Build();
  auto j = NaturalJoin(a, b, JoinKind::kFullOuter);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->num_rows(), 2u);
  // Right-preserved row carries its join-key value.
  EXPECT_EQ(j->CellString(1, 0), "2");
  EXPECT_EQ(j->cell(1, 1), kNull);
  EXPECT_EQ(j->CellString(1, 2), "y");
}

TEST_F(OpsTest, JoinDuplicateKeysMultiply) {
  Table a = TableBuilder(dict_, "a")
                .Columns({"id", "n"})
                .Row({"1", "x"})
                .Row({"1", "y"})
                .Build();
  Table b = TableBuilder(dict_, "b")
                .Columns({"id", "m"})
                .Row({"1", "p"})
                .Row({"1", "q"})
                .Build();
  auto j = NaturalJoin(a, b, JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 4u);
}

TEST_F(OpsTest, CrossProductCountsAndLimits) {
  Table a = TableBuilder(dict_, "a").Columns({"x"}).Row({"1"}).Row({"2"}).Build();
  Table b = TableBuilder(dict_, "b").Columns({"y"}).Row({"3"}).Row({"4"}).Build();
  auto cp = CrossProduct(a, b);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->num_rows(), 4u);
  auto limited = CrossProduct(a, b, OpLimits().MaxRows(2));
  EXPECT_EQ(limited.status().code(), StatusCode::kOutOfRange);
}

TEST_F(OpsTest, JoinCardinalityEstimate) {
  Table a = TableBuilder(dict_, "a")
                .Columns({"id", "n"})
                .Row({"1", "x"})
                .Row({"2", "y"})
                .Build();
  Table b = TableBuilder(dict_, "b")
                .Columns({"id", "m"})
                .Row({"1", "p"})
                .Row({"2", "q"})
                .Build();
  // |a|*|b| / max(2,2) = 2.
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(a, b), 2.0);
  Table empty = TableBuilder(dict_, "e").Columns({"id"}).Build();
  EXPECT_DOUBLE_EQ(EstimateJoinCardinality(a, empty), 0.0);
}

// --- Full disjunction ------------------------------------------------------------

TEST_F(OpsTest, FullDisjunctionCombinesAcrossTables) {
  // Paper Fig. 5 tables A, B, C over the applicant source.
  Table a = TableBuilder(dict_, "A")
                .Columns({"ID", "Name", "Education Level"})
                .Row({"0", "Smith", "Bachelors"})
                .Row({"1", "Brown", ""})
                .Row({"2", "Wang", "High School"})
                .Build();
  Table b = TableBuilder(dict_, "B")
                .Columns({"Name", "Age"})
                .Row({"Smith", "27"})
                .Row({"Brown", "24"})
                .Row({"Wang", "32"})
                .Build();
  auto fd = FullDisjunction({a, b});
  ASSERT_TRUE(fd.ok());
  // Every Name appears exactly once, with ID, Age and Education combined.
  EXPECT_EQ(fd->num_rows(), 3u);
  auto name = *fd->ColumnIndex("Name");
  auto age = *fd->ColumnIndex("Age");
  auto id = *fd->ColumnIndex("ID");
  for (size_t r = 0; r < fd->num_rows(); ++r) {
    EXPECT_NE(fd->cell(r, name), kNull);
    EXPECT_NE(fd->cell(r, age), kNull);
    EXPECT_NE(fd->cell(r, id), kNull);
  }
}

TEST_F(OpsTest, FullDisjunctionOfNothingFails) {
  EXPECT_FALSE(FullDisjunction({}).ok());
}

// --- Theorem 8 equivalences (Lemmas 12-14) ------------------------------------

// Helper: σ(T1.C = T2.C ≠ ⊥, β(κ(T1 ⊎ T2))) — the Lemma 12 rewriting of
// inner join for tables in minimal form.
Result<Table> JoinViaOperators(const Table& t1, const Table& t2,
                               const DictionaryPtr& dict) {
  auto shared = SharedColumns(t1, t2);
  Table u = OuterUnion(t1, t2);
  GENT_ASSIGN_OR_RETURN(Table k, Complementation(u));
  GENT_ASSIGN_OR_RETURN(Table b, Subsumption(k));
  // Select tuples whose shared-column values appear in both inputs.
  std::vector<std::unordered_set<ValueId>> in_both;
  std::vector<size_t> shared_cols;
  for (const auto& name : shared) {
    auto v1 = DistinctColumnValues(t1, *t1.ColumnIndex(name));
    auto v2 = DistinctColumnValues(t2, *t2.ColumnIndex(name));
    std::unordered_set<ValueId> inter;
    for (ValueId v : v1) {
      if (v2.count(v)) inter.insert(v);
    }
    in_both.push_back(std::move(inter));
    shared_cols.push_back(*b.ColumnIndex(name));
  }
  (void)dict;
  return Select(b, [&](const Table& t, size_t r) {
    for (size_t i = 0; i < shared_cols.size(); ++i) {
      ValueId v = t.cell(r, shared_cols[i]);
      if (v == kNull || in_both[i].count(v) == 0) return false;
    }
    return true;
  });
}

TEST_F(OpsTest, Lemma12InnerJoinEquivalence) {
  Table t1 = TableBuilder(dict_, "t1")
                 .Columns({"k", "a"})
                 .Row({"1", "x"})
                 .Row({"2", "y"})
                 .Row({"3", "z"})
                 .Build();
  Table t2 = TableBuilder(dict_, "t2")
                 .Columns({"k", "b"})
                 .Row({"1", "p"})
                 .Row({"2", "q"})
                 .Row({"4", "r"})
                 .Build();
  auto direct = NaturalJoin(t1, t2, JoinKind::kInner);
  auto via = JoinViaOperators(t1, t2, dict_);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via.ok());
  auto direct_proj = Project(*direct, via->column_names());
  ASSERT_TRUE(direct_proj.ok());
  EXPECT_EQ(RowsOf(*direct_proj), RowsOf(*via));
}

TEST_F(OpsTest, Lemma13LeftJoinEquivalence) {
  Table t1 = TableBuilder(dict_, "t1")
                 .Columns({"k", "a"})
                 .Row({"1", "x"})
                 .Row({"5", "w"})
                 .Build();
  Table t2 = TableBuilder(dict_, "t2")
                 .Columns({"k", "b"})
                 .Row({"1", "p"})
                 .Build();
  auto direct = NaturalJoin(t1, t2, JoinKind::kLeft);
  ASSERT_TRUE(direct.ok());
  // β((T1 ⋈ T2) ⊎ T1)
  auto inner = NaturalJoin(t1, t2, JoinKind::kInner);
  ASSERT_TRUE(inner.ok());
  auto via = Subsumption(OuterUnion(*inner, t1));
  ASSERT_TRUE(via.ok());
  auto direct_proj = Project(*direct, via->column_names());
  ASSERT_TRUE(direct_proj.ok());
  EXPECT_EQ(RowsOf(*direct_proj), RowsOf(*via));
}

TEST_F(OpsTest, Lemma14FullOuterJoinEquivalence) {
  Table t1 = TableBuilder(dict_, "t1")
                 .Columns({"k", "a"})
                 .Row({"1", "x"})
                 .Row({"5", "w"})
                 .Build();
  Table t2 = TableBuilder(dict_, "t2")
                 .Columns({"k", "b"})
                 .Row({"1", "p"})
                 .Row({"6", "r"})
                 .Build();
  auto direct = NaturalJoin(t1, t2, JoinKind::kFullOuter);
  ASSERT_TRUE(direct.ok());
  // β(β((T1 ⋈ T2) ⊎ T1) ⊎ T2)
  auto inner = NaturalJoin(t1, t2, JoinKind::kInner);
  ASSERT_TRUE(inner.ok());
  auto step1 = Subsumption(OuterUnion(*inner, t1));
  ASSERT_TRUE(step1.ok());
  auto via = Subsumption(OuterUnion(*step1, t2));
  ASSERT_TRUE(via.ok());
  auto direct_proj = Project(*direct, via->column_names());
  ASSERT_TRUE(direct_proj.ok());
  EXPECT_EQ(RowsOf(*direct_proj), RowsOf(*via));
}

}  // namespace
}  // namespace gent
