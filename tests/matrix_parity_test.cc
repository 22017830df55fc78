// Randomized parity: the bit-packed two-plane alignment matrices must
// reproduce the reference int8 semantics (tests/matrix_reference.h — the
// pre-rewrite implementation, kept as the oracle) EXACTLY: CombineRows
// contradiction/merge outcomes, alternative lists, similarity scores
// (bitwise-equal doubles), and full MatrixTraversal results, in both the
// three-valued and the binary-ablation encoding, at any thread count.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matrix_reference.h"
#include "src/matrix/alignment_matrix.h"
#include "src/matrix/traversal.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

// Exact double equality, diagnosed in bits.
#define EXPECT_SAME_BITS(a, b)                                         \
  do {                                                                 \
    double _x = (a), _y = (b);                                         \
    uint64_t _xb, _yb;                                                 \
    std::memcpy(&_xb, &_x, 8);                                         \
    std::memcpy(&_yb, &_y, 8);                                         \
    EXPECT_EQ(_xb, _yb) << "doubles differ: " << _x << " vs " << _y;   \
  } while (false)

TruthRow RandomRow(Rng& rng, size_t cols, bool three_valued) {
  TruthRow row(cols);
  for (size_t c = 0; c < cols; ++c) {
    double p = rng.NextDouble();
    row[c] = p < 0.45 ? 1 : p < 0.8 ? 0 : (three_valued ? -1 : 0);
  }
  return row;
}

class ParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ParitySweep, CombineRowsMatchesReference) {
  Rng rng(GetParam() * 9176 + 5);
  for (int trial = 0; trial < 200; ++trial) {
    // Cross word boundaries: up to 70 columns spans two planes words.
    size_t cols = 1 + rng.Index(70);
    bool three = rng.Bernoulli(0.8);
    TruthRow a = RandomRow(rng, cols, three);
    TruthRow b = RandomRow(rng, cols, three);
    TruthRow merged, ref_merged;
    bool ok = CombineRows(a, b, &merged);
    bool ref_ok = ref::RefCombineRows(a, b, &ref_merged);
    ASSERT_EQ(ok, ref_ok) << "contradiction verdicts diverge, trial "
                          << trial;
    if (ok) {
      ASSERT_EQ(merged, ref_merged) << "merged rows diverge, trial " << trial;
    }
  }
}

// A seeded source + candidate pair sharing key values, with nulls,
// contradictions, duplicate candidate keys (multiple alternatives per
// source row), and unmatched keys. The source key has one or two
// columns, and a source key cell is now and then null: such a row is
// left out of the source key table and must never align (a candidate
// row with a null key cell is skipped), exactly as in the reference.
struct TablePair {
  DictionaryPtr dict = MakeDictionary();
  std::unique_ptr<Table> source;
  std::unique_ptr<Table> candidate;
};

TablePair MakePair(Rng& rng) {
  TablePair out;
  size_t rows = 4 + rng.Index(20);
  const size_t key_cols = rng.Bernoulli(0.5) ? 2 : 1;
  size_t cols = key_cols + 1 + rng.Index(8);
  std::vector<std::string> names = {"k"};
  if (key_cols == 2) names.push_back("k2");
  for (size_t c = key_cols; c < cols; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  std::vector<std::string> key_names(names.begin(), names.begin() + key_cols);

  TableBuilder sb(out.dict, "source");
  sb.Columns(names);
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    row.push_back(rng.Bernoulli(0.1) ? "" : "key" + std::to_string(r));
    if (key_cols == 2) {
      // Few distinct second parts: tuples collide on either half alone.
      row.push_back(rng.Bernoulli(0.1) ? ""
                                       : "sub" + std::to_string(rng.Index(3)));
    }
    for (size_t c = key_cols; c < cols; ++c) {
      row.push_back(rng.Bernoulli(0.1) ? ""
                                       : "v" + std::to_string(rng.Index(9)));
    }
    data.push_back(row);
    sb.Row(row);
  }
  out.source = std::make_unique<Table>(sb.Key(key_names).Build());

  TableBuilder cb(out.dict, "cand");
  cb.Columns(names);
  size_t cand_rows = 2 + rng.Index(2 * rows);
  for (size_t r = 0; r < cand_rows; ++r) {
    std::vector<std::string> row;
    // Mix of aligned keys (possibly duplicated), half-matching tuples,
    // misses, and nulls.
    double p = rng.NextDouble();
    const auto& src_row = data[rng.Index(rows)];
    row.assign(src_row.begin(), src_row.begin() + key_cols);
    if (p < 0.7) {
      if (key_cols == 2 && rng.Bernoulli(0.2)) {
        row[1] = data[rng.Index(rows)][1];  // other row's second part
      }
    } else if (p < 0.9) {
      row[0] = "ghost" + std::to_string(rng.Index(5));
    } else {
      row[rng.Index(key_cols)] = "";
    }
    for (size_t c = key_cols; c < cols; ++c) {
      double q = rng.NextDouble();
      if (q < 0.3) {
        row.push_back("");  // nullified
      } else if (q < 0.7) {
        size_t src = rng.Index(rows);
        row.push_back(data[src][c]);  // often a match
      } else {
        row.push_back("w" + std::to_string(rng.Index(9)));  // contradiction
      }
    }
    cb.Row(row);
  }
  out.candidate = std::make_unique<Table>(cb.Build());
  return out;
}

TEST_P(ParitySweep, InitializeAndEvaluateMatchReference) {
  Rng rng(GetParam() * 7451 + 11);
  for (int trial = 0; trial < 20; ++trial) {
    TablePair tp = MakePair(rng);
    for (bool three : {true, false}) {
      MatrixOptions options;
      options.three_valued = three;
      auto m = InitializeMatrix(*tp.source, *tp.candidate, options);
      auto ref = ref::RefInitializeMatrix(*tp.source, *tp.candidate, options);
      ASSERT_EQ(m.ok(), ref.ok());
      if (!m.ok()) continue;
      ASSERT_EQ(m->TotalAlternatives(), ref->TotalAlternatives());
      for (size_t r = 0; r < m->num_source_rows(); ++r) {
        ASSERT_EQ(m->num_alternatives(r), ref->alternatives(r).size());
        for (size_t k = 0; k < m->num_alternatives(r); ++k) {
          ASSERT_EQ(m->Unpack(r, k), ref->alternatives(r)[k])
              << "row " << r << " alt " << k << " three=" << three;
        }
      }
      EXPECT_SAME_BITS(EvaluateMatrixSimilarity(*m, *tp.source),
                       ref::RefEvaluateMatrixSimilarity(*ref, *tp.source));
    }
  }
}

TEST_P(ParitySweep, CombineMatricesMatchesReference) {
  Rng rng(GetParam() * 3313 + 29);
  for (int trial = 0; trial < 12; ++trial) {
    TablePair tp = MakePair(rng);
    auto m1 = InitializeMatrix(*tp.source, *tp.candidate);
    ASSERT_TRUE(m1.ok());
    auto r1 = ref::RefInitializeMatrix(*tp.source, *tp.candidate);
    ASSERT_TRUE(r1.ok());
    // Build a second, different matrix over the same source from a
    // perturbed candidate (drop rows).
    Table cand2 = tp.candidate->Clone();
    if (cand2.num_rows() > 2) {
      cand2.RemoveRows({0, cand2.num_rows() / 2});
    }
    auto m2 = InitializeMatrix(*tp.source, cand2);
    auto r2 = ref::RefInitializeMatrix(*tp.source, cand2);
    ASSERT_TRUE(m2.ok());
    AlignmentMatrix combined = CombineMatrices(*m1, *m2);
    ref::RefAlignmentMatrix ref_combined = ref::RefCombineMatrices(*r1, *r2);
    ASSERT_EQ(combined.TotalAlternatives(), ref_combined.TotalAlternatives());
    for (size_t r = 0; r < combined.num_source_rows(); ++r) {
      ASSERT_EQ(combined.num_alternatives(r),
                ref_combined.alternatives(r).size());
      for (size_t k = 0; k < combined.num_alternatives(r); ++k) {
        ASSERT_EQ(combined.Unpack(r, k), ref_combined.alternatives(r)[k]);
      }
    }
    EXPECT_SAME_BITS(EvaluateMatrixSimilarity(combined, *tp.source),
                     ref::RefEvaluateMatrixSimilarity(ref_combined,
                                                      *tp.source));
  }
}

// Fragment-lake traversal cases in the style of the paper's running
// example: clean fragments, nullified variants, erroneous variants.
struct TraversalCase {
  DictionaryPtr dict = MakeDictionary();
  std::unique_ptr<Table> source;
  std::vector<Table> tables;
};

TraversalCase MakeTraversalCase(uint64_t seed, size_t rows) {
  TraversalCase out;
  Rng rng(seed);
  TableBuilder sb(out.dict, "source");
  sb.Columns({"k", "a", "b", "c", "d"});
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row = {
        "key" + std::to_string(r), "av" + std::to_string(rng.Index(15)),
        "bv" + std::to_string(rng.Index(15)),
        "cv" + std::to_string(rng.Index(15)),
        "dv" + std::to_string(rng.Index(15))};
    data.push_back(row);
    sb.Row(row);
  }
  out.source = std::make_unique<Table>(sb.Key({"k"}).Build());

  size_t num_frags = 5 + rng.Index(5);
  for (size_t f = 0; f < num_frags; ++f) {
    // Random column subset (always the key), random noise mode.
    std::vector<size_t> cols = {0};
    for (size_t c = 1; c < 5; ++c) {
      if (rng.Bernoulli(0.6)) cols.push_back(c);
    }
    if (cols.size() == 1) cols.push_back(1 + rng.Index(4));
    std::vector<std::string> names = {"k", "a", "b", "c", "d"};
    std::vector<std::string> frag_names;
    for (size_t c : cols) frag_names.push_back(names[c]);
    TableBuilder fb(out.dict, "frag" + std::to_string(f));
    fb.Columns(frag_names);
    double err = rng.NextDouble() < 0.3 ? 0.5 : 0.0;
    double null_rate = rng.NextDouble() < 0.4 ? 0.4 : 0.0;
    for (const auto& row : data) {
      std::vector<std::string> frag_row;
      for (size_t c : cols) {
        if (c == 0) {
          frag_row.push_back(row[0]);
        } else if (rng.Bernoulli(null_rate)) {
          frag_row.push_back("");
        } else if (rng.Bernoulli(err)) {
          frag_row.push_back("WRONG" + std::to_string(rng.Index(7)));
        } else {
          frag_row.push_back(row[c]);
        }
      }
      fb.Row(frag_row);
    }
    out.tables.push_back(fb.Build());
  }
  return out;
}

TEST_P(ParitySweep, TraversalMatchesReferenceSerial) {
  TraversalCase c = MakeTraversalCase(GetParam() * 104729 + 3, 8);
  for (bool three : {true, false}) {
    for (bool prune : {true, false}) {
      TraversalOptions options;
      options.matrix.three_valued = three;
      options.prune_redundant = prune;
      options.num_threads = 1;
      auto got = MatrixTraversal(*c.source, c.tables, options);
      auto want = ref::RefMatrixTraversal(*c.source, c.tables, options);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->selected, want->selected)
          << "three=" << three << " prune=" << prune;
      EXPECT_SAME_BITS(got->final_score, want->final_score);
    }
  }
}

TEST_P(ParitySweep, TraversalMatchesReferencePooled) {
  // Large enough to clear the parallel-work floor, so this exercises the
  // ThreadPool fan-out paths against the serial oracle.
  TraversalCase c = MakeTraversalCase(GetParam() * 50551 + 17, 400);
  TraversalOptions options;
  options.num_threads = 4;
  auto got = MatrixTraversal(*c.source, c.tables, options);
  auto want = ref::RefMatrixTraversal(*c.source, c.tables, options);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->selected, want->selected);
  EXPECT_SAME_BITS(got->final_score, want->final_score);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParitySweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace gent
