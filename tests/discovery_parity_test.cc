// Parity: Discovery::FindCandidates (src/discovery/discovery.cc), which
// aligns candidates through one per-request source key table and reuses
// the containment search's overlaps, must reproduce
// the reference discovery (tests/discovery_reference.h, the previous
// implementation kept verbatim as the oracle) EXACTLY: the same
// candidates in the same order, each with the same lake index, mapping,
// renamed schema, cells, score and covers_key. Lakes: TP-TR Small, Small
// in 400 seeded distractors, capped TP-TR Med, and seeded random lakes
// built to hit every verification branch — null cells in mapped and key
// columns, duplicated source keys whose second copy contradicts the
// first, one- and two-column keys, a labeled null carried by both the
// source and a lake cell, and exclude_table.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "discovery_reference.h"
#include "src/benchgen/benchmarks.h"
#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/lake/data_lake.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

// Runs both implementations on `source` and compares them field by field.
void ExpectParity(const ColumnStatsCatalog& catalog,
                  const DiscoveryConfig& config, const Table& source,
                  const std::string& label) {
  auto want = ref::RefFindCandidates(catalog, config, source);
  auto got = Discovery(catalog, config).FindCandidates(source);
  ASSERT_EQ(want.ok(), got.ok()) << label;
  if (!want.ok()) return;
  std::string why;
  EXPECT_TRUE(ref::SameCandidates(*want, *got, &why)) << label << ": " << why;
}

void ExpectBenchmarkParity(const Result<TpTrBenchmark>& bench,
                           const std::vector<size_t>& sources) {
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  ColumnStatsCatalog catalog(*bench->lake);
  for (size_t i : sources) {
    ASSERT_LT(i, bench->sources.size());
    ExpectParity(catalog, DiscoveryConfig{}, bench->sources[i].source,
                 "source " + std::to_string(i));
  }
}

std::vector<size_t> AllSources(const Result<TpTrBenchmark>& bench) {
  std::vector<size_t> all;
  for (size_t i = 0; bench.ok() && i < bench->sources.size(); ++i) {
    all.push_back(i);
  }
  return all;
}

TEST(DiscoveryParityTpTr, SmallMatchesReference) {
  auto small = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  ExpectBenchmarkParity(small, AllSources(small));
}

TEST(DiscoveryParityTpTr, SmallInNoiseMatchesReference) {
  auto small = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  ASSERT_TRUE(small.ok());
  auto noisy = EmbedInNoiseLake(*small, 400, 29);
  ExpectBenchmarkParity(noisy, AllSources(noisy));
}

// Capped: the reference needs ~0.1–0.2 s per Med source. Source 22 is
// the one a restart probe answers.
TEST(DiscoveryParityTpTr, MedMatchesReference) {
  ExpectBenchmarkParity(MakeTpTrBenchmark("TP-TR Med", TpTrMedConfig()),
                        {0, 22});
}

// A seeded lake around a source with a one- or two-column key. Lake
// tables are vertical fragments of the source with renamed columns (so
// discovery must match by value), row subsets, null holes in key and
// attribute columns, corrupted cells, supersets and exact copies (for
// subsumption), and noise; one lake cell carries the same labeled null
// as a source cell.
struct RandomLake {
  DictionaryPtr dict = MakeDictionary();
  Table source{"source", dict};
  DataLake lake{dict};
  std::vector<std::string> table_names;
};

void BuildRandomLake(RandomLake* out, Rng& rng) {
  const bool two_col_key = rng.Bernoulli(0.5);
  const size_t attrs = 1 + rng.Index(3);
  const size_t rows = 6 + rng.Index(20);
  std::vector<std::string> cols = {"k0"};
  if (two_col_key) cols.push_back("k1");
  const size_t key_cols = cols.size();
  for (size_t a = 0; a < attrs; ++a) cols.push_back("a" + std::to_string(a));

  // Small value domains so overlaps, agreements and coincidences occur.
  auto value = [&rng](const std::string& prefix, size_t domain) {
    return prefix + std::to_string(rng.Index(domain));
  };
  std::vector<std::vector<std::string>> src_rows;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    if (two_col_key) {
      row.push_back("x" + std::to_string(r % 5));
      row.push_back("y" + std::to_string(r / 5));
    } else {
      row.push_back(std::to_string(r));  // numeric: overlaps other columns
    }
    for (size_t a = 0; a < attrs; ++a) {
      row.push_back(rng.Bernoulli(0.1) ? "" : value("v", 3 + 3 * a));
    }
    // A null key cell now and then.
    if (rng.Bernoulli(0.08)) row[rng.Index(key_cols)] = "";
    src_rows.push_back(row);
  }
  // Duplicated keys whose second copy contradicts the first.
  const size_t dups = rng.Index(3);
  for (size_t d = 0; d < dups; ++d) {
    std::vector<std::string> row = src_rows[rng.Index(src_rows.size())];
    for (size_t a = 0; a < attrs; ++a) row[key_cols + a] = value("w", 4);
    src_rows.push_back(row);
  }
  TableBuilder sb(out->dict, "source");
  sb.Columns(cols);
  for (const auto& row : src_rows) sb.Row(row);
  std::vector<std::string> key_names(cols.begin(), cols.begin() + key_cols);
  out->source = sb.Key(key_names).Build();

  const size_t tables = 4 + rng.Index(7);
  std::vector<Table> built;
  for (size_t t = 0; t < tables; ++t) {
    const std::string name = "t" + std::to_string(t);
    const double kind = rng.NextDouble();
    if (kind < 0.15 && !built.empty()) {
      // An exact copy or a row-superset of an earlier table.
      Table copy = built[rng.Index(built.size())].Clone();
      copy.set_name(name);
      if (rng.Bernoulli(0.5) && copy.num_rows() > 0) {
        std::vector<ValueId> extra = copy.Row(0);
        extra[0] = out->dict->Intern(value("extra", 50));
        copy.AddRow(extra);
      }
      built.push_back(std::move(copy));
      continue;
    }
    TableBuilder tb(out->dict, name);
    if (kind < 0.25) {
      // Noise over overlapping numeric and value domains.
      tb.Columns({"n0", "n1"});
      for (size_t r = 0; r < 4 + rng.Index(8); ++r) {
        tb.Row({std::to_string(rng.Index(30)), value("v", 6)});
      }
      built.push_back(tb.Build());
      continue;
    }
    // A fragment: some source columns (the key usually), renamed, plus an
    // extra column; rows a subset, with holes and corrupted cells.
    std::vector<size_t> picked;
    const bool with_key = rng.Bernoulli(0.75);
    const bool partial_key = two_col_key && rng.Bernoulli(0.2);
    for (size_t c = 0; c < cols.size(); ++c) {
      const bool is_key = c < key_cols;
      if (is_key ? (with_key && !(partial_key && c == 1))
                 : rng.Bernoulli(0.6)) {
        picked.push_back(c);
      }
    }
    if (picked.empty()) picked.push_back(key_cols);
    std::vector<std::string> names;
    for (size_t c : picked) names.push_back("c" + std::to_string(c) + "_" + name);
    names.push_back("extra");
    tb.Columns(names);
    for (const auto& row : src_rows) {
      if (rng.Bernoulli(0.3)) continue;
      std::vector<std::string> out_row;
      for (size_t c : picked) {
        const double roll = rng.NextDouble();
        out_row.push_back(roll < 0.1    ? std::string()
                          : roll < 0.2 ? value("v", 9)
                                       : row[c]);
      }
      out_row.push_back(value("e", 5));
      tb.Row(out_row);
    }
    built.push_back(tb.Build());
  }

  // One labeled null shared by a source cell and a lake cell in the same
  // (attribute or key) column position.
  const ValueId label = out->dict->CreateLabeledNull();
  const size_t label_col = rng.Index(cols.size());
  if (out->source.num_rows() > 0) {
    out->source.mutable_column(label_col)[rng.Index(out->source.num_rows())] =
        label;
  }
  for (Table& t : built) {
    if (t.num_rows() == 0 || t.num_cols() < 2 || !rng.Bernoulli(0.5)) continue;
    t.mutable_column(rng.Index(t.num_cols() - 1))[rng.Index(t.num_rows())] =
        label;
  }

  for (Table& t : built) {
    out->table_names.push_back(t.name());
    ASSERT_TRUE(out->lake.AddTable(std::move(t)).ok());
  }
}

class DiscoveryParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryParitySweep, RandomLakesMatchReference) {
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(GetParam() * 7919 + trial * 131 + 3);
    RandomLake seeded;
    BuildRandomLake(&seeded, rng);
    if (HasFatalFailure()) return;
    ColumnStatsCatalog catalog(seeded.lake);

    DiscoveryConfig plain;
    ExpectParity(catalog, plain, seeded.source, "default config");
    DiscoveryConfig strict;
    strict.tau = 0.5;
    ExpectParity(catalog, strict, seeded.source, "tau 0.5");
    DiscoveryConfig loose;
    loose.tau = 0.05;
    loose.diversify = false;
    ExpectParity(catalog, loose, seeded.source, "tau 0.05, no diversify");
    DiscoveryConfig zero;
    zero.tau = 0.0;
    ExpectParity(catalog, zero, seeded.source, "tau 0");
    DiscoveryConfig exclude;
    exclude.exclude_table =
        seeded.table_names[rng.Index(seeded.table_names.size())];
    ExpectParity(catalog, exclude, seeded.source,
                 "exclude " + exclude.exclude_table);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryParitySweep, ::testing::Range(0, 8));

// The labeled-null case pinned down: a source attribute cell and a lake
// cell carry the same label. The source's sorted sets skip labels, so
// the label must not count as an aligned value or an overlap hit.
TEST(DiscoveryParityEdge, SharedLabeledNullIsNeverAMatch) {
  auto dict = MakeDictionary();
  TableBuilder sb(dict, "source");
  sb.Columns({"id", "v"});
  TableBuilder lb(dict, "lake_t");
  lb.Columns({"key", "val"});
  for (int r = 0; r < 6; ++r) {
    sb.Row({"id" + std::to_string(r), "v" + std::to_string(r)});
    lb.Row({r < 3 ? "id" + std::to_string(r) : "zz" + std::to_string(r),
            "u" + std::to_string(r)});
  }
  Table source = sb.Key({"id"}).Build();
  Table lake_table = lb.Build();
  const ValueId label = dict->CreateLabeledNull();
  for (int r = 0; r < 6; ++r) {
    source.mutable_column(1)[r] = r < 3 ? label : source.cell(r, 1);
    lake_table.mutable_column(1)[r] = label;
  }
  DataLake lake(dict);
  ASSERT_TRUE(lake.AddTable(std::move(lake_table)).ok());
  ColumnStatsCatalog catalog(lake);
  for (double tau : {0.2, 0.5, 0.6}) {
    DiscoveryConfig config;
    config.tau = tau;
    ExpectParity(catalog, config, source, "tau " + std::to_string(tau));
  }
}

}  // namespace
}  // namespace gent
