// Randomized parity: the catalog-aware parallel ExpandEngine
// (src/matrix/expand.cc) must reproduce the reference expansion
// (tests/expand_reference.h — the pre-engine implementation, kept
// verbatim as the oracle) EXACTLY: same expanded tables (names, schemas,
// cells, row order — bit-identical), same expansion/drop counts, at any
// thread count, on both the catalog-backed path (candidates straight
// from Discovery, Candidate::stats set) and the sorted-set fallback
// (hand-built candidates, stats null), including empty-column and
// all-null edge cases, row budgets that drop paths (the fused last hop
// must trip the cap exactly where the oracle's full join does), an
// explicit multi-hop chain, and seeded 3–5 node chains (ChainSweep)
// whose intermediate hops exercise every way of deriving a hop's column
// sets from its inputs — the oracle rebuilds them from each
// materialized join — plus the hop sides every path of a call shares
// (ExpandParitySides): the up-front row cap at each hop side's last row,
// permuted schema families and their refold, and mapping verification
// against duplicated source keys. The lazy join graph's pair count
// (ExpandResult::join_pairs_scored) must match across thread counts and
// stay below n(n−1)/2 when most candidates cover the key
// (ExpandParityGraph).

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expand_reference.h"
#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/lake/data_lake.h"
#include "src/matrix/expand.h"
#include "src/ops/join.h"
#include "src/ops/union.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

bool SameExpansion(const ExpandResult& want, const ExpandResult& got,
                   std::string* why) {
  if (want.num_expanded != got.num_expanded) {
    *why = "num_expanded diverges";
    return false;
  }
  if (want.num_dropped != got.num_dropped) {
    *why = "num_dropped diverges";
    return false;
  }
  if (want.tables.size() != got.tables.size()) {
    *why = "table counts diverge";
    return false;
  }
  for (size_t i = 0; i < want.tables.size(); ++i) {
    if (want.tables[i].name() != got.tables[i].name()) {
      *why = "table " + std::to_string(i) + " names diverge: " +
             want.tables[i].name() + " vs " + got.tables[i].name();
      return false;
    }
    if (!TablesBitIdentical(want.tables[i], got.tables[i])) {
      *why = "table " + want.tables[i].name() + " cells diverge";
      return false;
    }
  }
  return true;
}

// The engine's work counters (the oracle reports none).
struct HopCounters {
  size_t hops = 0, borrowed = 0, deduped = 0;
  size_t sides_built = 0, sides_reused = 0;
  size_t pairs_scored = 0;
  bool operator==(const HopCounters& o) const {
    return hops == o.hops && borrowed == o.borrowed &&
           deduped == o.deduped && sides_built == o.sides_built &&
           sides_reused == o.sides_reused && pairs_scored == o.pairs_scored;
  }
};

HopCounters CountersOf(const ExpandResult& r) {
  return {r.intermediate_hops, r.hop_sets_borrowed, r.hop_sets_deduped,
          r.hop_sides_built,   r.hop_sides_reused,  r.join_pairs_scored};
}

// Runs the engine at each of `thread_counts` (1/2/8 by default) against
// the oracle under `limits`; returns the oracle's result (empty on
// failure). The engine's counters must not depend on the thread count
// either; `counters`, when set, receives them.
ExpandResult ExpectParity(const Table& source,
                          const std::vector<Candidate>& cands,
                          const std::string& label,
                          const OpLimits& limits = {},
                          HopCounters* counters = nullptr,
                          const std::vector<size_t>& thread_counts = {1, 2,
                                                                      8}) {
  auto want = ref::RefExpand(source, cands, limits);
  EXPECT_TRUE(want.ok()) << label << ": " << want.status().ToString();
  if (!want.ok()) return {};
  std::optional<HopCounters> serial;
  for (size_t threads : thread_counts) {
    ExpandOptions options;
    options.num_threads = threads;
    auto got = Expand(source, cands, limits, options);
    EXPECT_TRUE(got.ok()) << label << " threads=" << threads << ": "
                          << got.status().ToString();
    if (!got.ok()) continue;
    std::string why;
    EXPECT_TRUE(SameExpansion(*want, *got, &why))
        << label << " threads=" << threads << ": " << why;
    if (!serial) {
      serial = CountersOf(*got);
    } else {
      EXPECT_TRUE(*serial == CountersOf(*got))
          << label << " threads=" << threads << ": counters diverge";
    }
  }
  if (counters != nullptr && serial) *counters = *serial;
  return std::move(want).value();
}

// A seeded lake with the join structure expansion exercises: a keyed hub
// (source key + foreign refs), keyless attribute tables reachable over
// the refs, sibling variants with null holes, low-keyness decoys, noise
// tables, and (sometimes) all-null columns or tables.
struct SeededLake {
  DictionaryPtr dict = MakeDictionary();
  Table source{"source", dict};
  DataLake lake{dict};
};

void BuildLake(SeededLake* out, Rng& rng) {
  const size_t rows = 8 + rng.Index(24);
  const size_t attrs = 1 + rng.Index(3);

  std::vector<std::string> source_cols = {"id"};
  for (size_t a = 0; a < attrs; ++a) {
    source_cols.push_back("attr" + std::to_string(a));
  }
  TableBuilder sb(out->dict, "source");
  sb.Columns(source_cols);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row = {"id" + std::to_string(r)};
    for (size_t a = 0; a < attrs; ++a) {
      row.push_back(rng.Bernoulli(0.08)
                        ? ""
                        : "a" + std::to_string(a) + "_" + std::to_string(r));
    }
    sb.Row(row);
  }
  out->source = sb.Key({"id"}).Build();

  // Keyed hub: id + ref (a near-unique FK into the attribute tables).
  TableBuilder hub(out->dict, "hub");
  hub.Columns({"id", "ref"});
  for (size_t r = 0; r < rows; ++r) {
    hub.Row({"id" + std::to_string(r),
             rng.Bernoulli(0.1) ? "" : "r" + std::to_string(r)});
  }
  ASSERT_TRUE(out->lake.AddTable(hub.Build()).ok());

  // Keyless attribute table(s) reachable over ref, carrying the source
  // attr values. A sibling variant gets complementary null holes.
  const int variants = rng.Bernoulli(0.6) ? 2 : 1;
  for (int variant = 0; variant < variants; ++variant) {
    TableBuilder ab(out->dict, variant == 0 ? "attrs" : "attrs_v2");
    std::vector<std::string> cols = {"ref"};
    for (size_t a = 0; a < attrs; ++a) {
      cols.push_back("attr" + std::to_string(a));
    }
    ab.Columns(cols);
    for (size_t r = 0; r < rows; ++r) {
      bool hole = ((r % 2 == 0) == (variant == 0)) && rng.Bernoulli(0.5);
      std::vector<std::string> row = {hole ? "" : "r" + std::to_string(r)};
      for (size_t a = 0; a < attrs; ++a) {
        row.push_back(rng.Bernoulli(0.1)
                          ? ""
                          : "a" + std::to_string(a) + "_" +
                                std::to_string(r));
      }
      ab.Row(row);
    }
    ASSERT_TRUE(out->lake.AddTable(ab.Build()).ok());
  }

  // Low-keyness decoy: covers the key but shares only a 2-value column.
  if (rng.Bernoulli(0.7)) {
    TableBuilder db(out->dict, "decoy");
    db.Columns({"id", "category"});
    for (size_t r = 0; r < rows; ++r) {
      db.Row({"id" + std::to_string(r), r % 2 == 0 ? "even" : "odd"});
    }
    ASSERT_TRUE(out->lake.AddTable(db.Build()).ok());
  }

  // Edge cases: an all-null column, sometimes an entirely null table.
  if (rng.Bernoulli(0.6)) {
    TableBuilder nb(out->dict, "nully");
    nb.Columns({"ref", "void"});
    for (size_t r = 0; r < rows; ++r) {
      nb.Row({rng.Bernoulli(0.8) ? "r" + std::to_string(r) : "", ""});
    }
    ASSERT_TRUE(out->lake.AddTable(nb.Build()).ok());
  }
  if (rng.Bernoulli(0.3)) {
    TableBuilder vb(out->dict, "void_table");
    vb.Columns({"v1", "v2"});
    for (size_t r = 0; r < 4; ++r) vb.Row({"", ""});
    ASSERT_TRUE(out->lake.AddTable(vb.Build()).ok());
  }

  // Unrelated noise.
  size_t noise = rng.Index(3);
  for (size_t t = 0; t < noise; ++t) {
    TableBuilder tb(out->dict, "noise" + std::to_string(t));
    tb.Columns({"x", "y"});
    for (size_t r = 0; r < 6; ++r) {
      tb.Row({rng.AlphaNum(6), rng.AlphaNum(6)});
    }
    ASSERT_TRUE(out->lake.AddTable(tb.Build()).ok());
  }
}

class ParitySweep : public ::testing::TestWithParam<int> {};

// Candidates straight from Discovery over a seeded lake: the engine's
// catalog-backed path (Candidate::stats set) must match the oracle at
// every thread count.
TEST_P(ParitySweep, DiscoveryBackedExpansionMatchesReference) {
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(GetParam() * 104729 + trial * 31 + 7);
    SeededLake seeded;
    BuildLake(&seeded, rng);
    if (::testing::Test::HasFatalFailure()) return;

    ColumnStatsCatalog catalog(seeded.lake);
    Discovery discovery(catalog, DiscoveryConfig{});
    auto candidates = discovery.FindCandidates(seeded.source);
    ASSERT_TRUE(candidates.ok());
    for (const Candidate& c : *candidates) {
      EXPECT_EQ(c.stats, &catalog);  // discovery wires the catalog in
    }
    ExpectParity(seeded.source, *candidates,
                 "catalog trial " + std::to_string(trial));
  }
}

// The same lakes with hand-built candidates (stats = null): the
// sorted-set fallback path must agree with the oracle too.
TEST_P(ParitySweep, FallbackExpansionMatchesReference) {
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(GetParam() * 84631 + trial * 17 + 3);
    SeededLake seeded;
    BuildLake(&seeded, rng);
    if (::testing::Test::HasFatalFailure()) return;

    // Candidates cloned straight off the lake: the keyed hub/decoy cover
    // the key (their id column carries the source key values), the rest
    // do not. No catalog attached anywhere.
    std::vector<Candidate> candidates;
    for (size_t t = 0; t < seeded.lake.size(); ++t) {
      Candidate c(seeded.lake.table(t).Clone());
      c.lake_index = t;
      c.covers_key = c.table.HasColumn("id");
      candidates.push_back(std::move(c));
    }
    ExpectParity(seeded.source, candidates,
                 "fallback trial " + std::to_string(trial));
  }
}

// Mixed: catalog-backed and ad-hoc candidates in one expansion (as a
// cross-shard merge would produce) — the per-candidate choice of stats
// source must not change results.
TEST_P(ParitySweep, MixedStatsSourcesMatchReference) {
  Rng rng(GetParam() * 65537 + 11);
  SeededLake seeded;
  BuildLake(&seeded, rng);
  if (::testing::Test::HasFatalFailure()) return;

  ColumnStatsCatalog catalog(seeded.lake);
  Discovery discovery(catalog, DiscoveryConfig{});
  auto candidates = discovery.FindCandidates(seeded.source);
  ASSERT_TRUE(candidates.ok());
  // Strip the catalog from every other candidate.
  for (size_t i = 0; i < candidates->size(); i += 2) {
    (*candidates)[i].stats = nullptr;
  }
  ExpectParity(seeded.source, *candidates, "mixed");
}

// Row budgets small enough to trip joins: every budget must drop exactly
// the paths the oracle's full joins drop, and keep the rest identical.
// At least one budget must drop a path the unbounded run expands, or the
// sweep would pass without exercising the cap.
TEST_P(ParitySweep, RowBudgetSweepsMatchReference) {
  bool cap_dropped_a_path = false;
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(GetParam() * 7919 + trial * 13 + 5);
    SeededLake seeded;
    BuildLake(&seeded, rng);
    if (::testing::Test::HasFatalFailure()) return;

    ColumnStatsCatalog catalog(seeded.lake);
    Discovery discovery(catalog, DiscoveryConfig{});
    auto candidates = discovery.FindCandidates(seeded.source);
    ASSERT_TRUE(candidates.ok());
    const ExpandResult unbounded = ExpectParity(
        seeded.source, *candidates, "unbounded trial " + std::to_string(trial));
    for (uint64_t k : {1, 2, 3, 5, 8, 13, 21, 34}) {
      const ExpandResult bounded =
          ExpectParity(seeded.source, *candidates,
                       "budget " + std::to_string(k) + " trial " +
                           std::to_string(trial),
                       OpLimits().MaxRows(k));
      cap_dropped_a_path |= bounded.num_expanded < unbounded.num_expanded;
    }
  }
  EXPECT_TRUE(cap_dropped_a_path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParitySweep, ::testing::Range(0, 4));

// An explicit chain: keyless start → keyless hop → keyless hop →
// key-covering end, over disjoint value domains so the four-node path
// is the only route. Links fan out, the start carries duplicate rows,
// the hops carry null join values, and two join values of the end reach
// the same key, so the fused last hop deduplicates on both sides and
// (its join column projected away) deduplicates its output too. Budgets sweep every value from 1 until the result matches
// the unbounded one: that covers the budgets at which an intermediate
// join trips, the ones at which only the last hop trips, and the exact
// boundary of each.
TEST(ExpandParityChain, FourNodeChainUnderEveryBudget) {
  auto dict = MakeDictionary();
  constexpr size_t kN = 10;
  auto v = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  TableBuilder sb(dict, "source");
  sb.Columns({"id", "name"});
  for (size_t i = 0; i < kN; ++i) sb.Row({v("id", i), v("n", i)});
  Table source = sb.Key({"id"}).Build();

  TableBuilder start(dict, "start");
  start.Columns({"a", "name"});
  for (size_t i = 0; i < kN; ++i) {
    start.Row({v("a", i), v("n", i)});
    if (i % 3 == 0) start.Row({v("a", i), v("n", i)});  // duplicate row
  }
  TableBuilder hop1(dict, "hop1");
  hop1.Columns({"a", "b"});
  for (size_t i = 0; i < kN; ++i) {
    hop1.Row({v("a", i), v("b", i)});
    hop1.Row({v("a", i), v("b", (i + 1) % kN)});
    if (i % 4 == 0) hop1.Row({v("a", i), ""});
  }
  TableBuilder hop2(dict, "hop2");
  hop2.Columns({"b", "c"});
  for (size_t i = 0; i < kN; ++i) {
    hop2.Row({v("b", i), v("c", i)});
    if (i % 2 == 0) hop2.Row({v("b", i), v("c", (i + 3) % kN)});
    if (i % 5 == 0) hop2.Row({"", v("c", i)});
  }
  TableBuilder end(dict, "end");
  end.Columns({"c", "id"});
  for (size_t i = 0; i < kN; ++i) {
    end.Row({v("c", i), v("id", i)});
    if (i % 3 == 1) end.Row({v("c", i), v("id", i)});  // duplicate row
    // A second link into the same key: two join values reach one output
    // tuple, which only the output Distinct can merge.
    if (i % 2 == 0) end.Row({v("c", (i + 1) % kN), v("id", i)});
  }
  std::vector<Candidate> candidates;
  for (Table t : {start.Build(), hop1.Build(), hop2.Build(), end.Build()}) {
    Candidate c(std::move(t));
    c.covers_key = c.table.HasColumn("id");
    candidates.push_back(std::move(c));
  }

  const ExpandResult unbounded =
      ExpectParity(source, candidates, "chain unbounded");
  // Every keyless candidate expands when nothing caps the joins; the
  // start's expansion is the four-node chain.
  ASSERT_EQ(unbounded.num_expanded, 3u);
  ASSERT_EQ(unbounded.tables[0].name(), "start+expanded");
  EXPECT_EQ(unbounded.tables[0].column_names(),
            (std::vector<std::string>{"id", "a", "name"}));

  // The chain's schemas never collide, so its hops are plain natural
  // joins. A budget as large as both intermediates lets them through,
  // so the budget sweep below reaches one where only the last hop trips.
  auto j1 = NaturalJoin(candidates[1].table, candidates[0].table,
                        JoinKind::kInner);
  ASSERT_TRUE(j1.ok());
  auto j2 = NaturalJoin(candidates[2].table, *j1, JoinKind::kInner);
  ASSERT_TRUE(j2.ok());
  const uint64_t intermediates = std::max(j1->num_rows(), j2->num_rows());
  bool last_hop_tripped = false;

  size_t budgets_dropping_start = 0;
  for (uint64_t k = 1;; ++k) {
    ASSERT_LT(k, 10000u) << "budget sweep never reached the unbounded result";
    const ExpandResult bounded = ExpectParity(
        source, candidates, "chain budget " + std::to_string(k),
        OpLimits().MaxRows(k));
    if (::testing::Test::HasFailure()) return;
    const bool start_expanded =
        !bounded.tables.empty() &&
        bounded.tables[0].name() == "start+expanded";
    budgets_dropping_start += !start_expanded;
    last_hop_tripped |= k >= intermediates && !start_expanded;
    std::string why;
    if (SameExpansion(unbounded, bounded, &why)) break;
  }
  EXPECT_GT(budgets_dropping_start, 0u);
  EXPECT_TRUE(last_hop_tripped);
}

// A seeded chain lake for multi-hop expansion: a keyless start "n0"
// (carrying the source's `name`), keyless hops n1..n(k-2), and a
// key-covering end n(k-1) (carrying `id`), 3–5 nodes. Node t joins node
// t+1 over link column l<t>, whose values name entities; each link has
// its own value domain, so the chain is the only route from start to
// key. Per node and column the generator randomly keeps every entity
// or drops some, and may blank link cells (kNull), replace them by
// strays no other table holds, or put labeled nulls in them — one of
// them shared by both sides of the link, so the join matches on it.
// That gives intermediate hops whose hop side, path side, both or
// neither are fully matched. Links fan out (a row also pointing at the
// next entity) and rows repeat, so joins are many-to-many. Hops carry a
// payload column with labeled nulls, sometimes a decoy that competes
// with the out-link for the next join. Usually one middle hop has a
// sibling variant with the same columns (order sometimes reversed), so
// that hop's family union absorbs it; the variant is itself a keyless
// start whose path forced through the previous node runs through its
// own family (the refold case).
struct ChainLake {
  DictionaryPtr dict = MakeDictionary();
  Table source{"source", dict};
  DataLake lake{dict};
};

void BuildChainLake(ChainLake* out, Rng& rng) {
  constexpr size_t kEntities = 12;
  const size_t nodes = 3 + rng.Index(3);
  const DictionaryPtr& dict = out->dict;
  auto id = [&](const std::string& s) { return dict->Intern(s); };
  auto link = [](size_t t) { return "l" + std::to_string(t); };

  TableBuilder sb(dict, "source");
  sb.Columns({"id", "name"});
  for (size_t i = 0; i < kEntities; ++i) {
    sb.Row({"id" + std::to_string(i), "nm" + std::to_string(i)});
  }
  out->source = sb.Key({"id"}).Build();

  std::vector<ValueId> shared_label(nodes);
  for (ValueId& v : shared_label) v = dict->CreateLabeledNull();
  // One link cell of node `t` for link `l` and entity `e`, damaged under
  // this column's `damage` probability.
  auto link_cell = [&](size_t t, size_t l, size_t e, double damage) {
    if (!rng.Bernoulli(damage)) {
      return id("L" + std::to_string(l) + "_" + std::to_string(e));
    }
    switch (rng.Index(4)) {
      case 0: return kNull;
      case 1:
        return id("stray" + std::to_string(t) + "_" + std::to_string(l) +
                  "_" + std::to_string(rng.Index(1000)));
      case 2: return dict->CreateLabeledNull();
      default: return shared_label[l];
    }
  };

  // Node t's columns: in-link (t > 0), out-link (t < nodes - 1), then
  // name (start), payload (hops) or id (end). Its rows describe the
  // entities in [lo, hi).
  auto make_node = [&](size_t t, const std::string& name, bool reversed,
                       size_t lo, size_t hi) {
    std::vector<std::string> cols;
    if (t > 0) cols.push_back(link(t - 1));
    if (t + 1 < nodes) cols.push_back(link(t));
    cols.push_back(t == 0 ? "name"
                          : t + 1 == nodes ? "id" : "x" + std::to_string(t));
    if (reversed) std::reverse(cols.begin(), cols.end());
    Table tab(name, dict);
    for (const std::string& c : cols) EXPECT_TRUE(tab.AddColumn(c).ok());

    const double keep = rng.Bernoulli(0.6) ? 1.0 : 0.75;
    const double in_damage = rng.Bernoulli(0.6) ? 0.0 : 0.25;
    const double out_damage = rng.Bernoulli(0.6) ? 0.0 : 0.25;
    // A decoy payload holds out-link values of shifted entities, so the
    // next hop weighs two path columns against its in-link and the
    // winner depends on both columns' exact sets.
    const bool decoy = rng.Bernoulli(0.5);
    // Up to 1, 2 or 4 rows per entity: a repetitive table's columns are
    // weak keys, so the next hop's pair weight rests on the other
    // side's keyness, i.e. on the exact size of the derived set.
    const size_t repeat = size_t{1} << rng.Index(3);
    for (size_t e = lo; e < hi; ++e) {
      if (!rng.Bernoulli(keep)) continue;
      const size_t copies = 1 + rng.Index(repeat) + rng.Bernoulli(0.25);
      for (size_t k = 0; k < copies; ++k) {
        // Extra copies fan out to the next entity on the out-link.
        const size_t out_e = k == 1 ? (e + 1) % kEntities : e;
        std::vector<ValueId> row;
        for (const std::string& c : cols) {
          if (t > 0 && c == link(t - 1)) {
            row.push_back(link_cell(t, t - 1, e, in_damage));
          } else if (t + 1 < nodes && c == link(t)) {
            row.push_back(link_cell(t, t, out_e, out_damage));
          } else if (c == "name") {
            row.push_back(id("nm" + std::to_string(e)));
          } else if (c == "id") {
            row.push_back(id("id" + std::to_string(e)));
          } else if (rng.Bernoulli(0.2)) {
            row.push_back(dict->CreateLabeledNull());
          } else if (decoy) {
            row.push_back(
                id("L" + std::to_string(t) + "_" +
                   std::to_string((e + 1 + rng.Index(3)) % kEntities)));
          } else {
            row.push_back(
                id("p" + std::to_string(t) + "_" + std::to_string(e % 5)));
          }
        }
        tab.AddRow(row);
      }
    }
    return tab;
  };

  // A middle hop with a sibling shares the entities with it, so the
  // family union holds values the hop lacks: either the two overlap in
  // the middle third, or the hop holds only the middle third and the
  // sibling (a keyless start whose own paths refold the hop's family)
  // everything.
  const size_t sibling =
      rng.Bernoulli(0.75) ? 1 + rng.Index(nodes - 2) : SIZE_MAX;
  const bool nested = rng.Bernoulli(0.5);
  const size_t third = kEntities / 3;
  for (size_t t = 0; t < nodes; ++t) {
    const bool split = t == sibling;
    ASSERT_TRUE(out->lake
                    .AddTable(make_node(t, "n" + std::to_string(t), false,
                                        split && nested ? third : 0,
                                        split ? 2 * third : kEntities))
                    .ok());
  }
  if (sibling != SIZE_MAX) {
    ASSERT_TRUE(out->lake
                    .AddTable(make_node(
                        sibling, "n" + std::to_string(sibling) + "_v2",
                        rng.Bernoulli(0.5), nested ? 0 : third, kEntities))
                    .ok());
  }
}

// Every lake table as a candidate; `catalog` (when set) backs them all.
std::vector<Candidate> ChainCandidates(const ChainLake& chain,
                                       const ColumnStatsCatalog* catalog) {
  std::vector<Candidate> candidates;
  for (size_t t = 0; t < chain.lake.size(); ++t) {
    Candidate c(chain.lake.table(t).Clone());
    c.lake_index = t;
    c.covers_key = c.table.HasColumn("id");
    c.stats = catalog;
    candidates.push_back(std::move(c));
  }
  return candidates;
}

bool StartExpanded(const ExpandResult& r) {
  return !r.tables.empty() && r.tables[0].name() == "n0+expanded";
}

class ChainSweep : public ::testing::TestWithParam<int> {};

// Multi-hop chains, catalog-backed and hand-built, with and without row
// budgets: every intermediate hop derives its column sets from its
// inputs, and the oracle rebuilds them from each materialized join, so
// parity here is parity of the derivation. Over the sweep both
// derivation branches (borrowed and deduplicated columns) must run.
TEST_P(ChainSweep, MultiHopChainsMatchReference) {
  HopCounters total;
  size_t starts_expanded = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(GetParam() * 15485863 + trial * 101 + 1);
    ChainLake chain;
    BuildChainLake(&chain, rng);
    if (::testing::Test::HasFatalFailure()) return;
    ColumnStatsCatalog catalog(chain.lake);
    const ColumnStatsCatalog* backings[] = {&catalog, nullptr};
    for (const ColumnStatsCatalog* stats : backings) {
      const std::string label = std::string(stats ? "catalog" : "hand-built") +
                                " trial " + std::to_string(trial);
      const std::vector<Candidate> candidates = ChainCandidates(chain, stats);
      HopCounters counters;
      const ExpandResult unbounded =
          ExpectParity(chain.source, candidates, label, {}, &counters);
      starts_expanded += StartExpanded(unbounded);
      total.hops += counters.hops;
      total.borrowed += counters.borrowed;
      total.deduped += counters.deduped;
      for (uint64_t k : {1, 2, 3, 5, 8, 13, 21, 34, 55}) {
        ExpectParity(chain.source, candidates,
                     label + " budget " + std::to_string(k),
                     OpLimits().MaxRows(k));
      }
    }
  }
  EXPECT_GT(starts_expanded, 0u);
  EXPECT_GT(total.hops, 0u);
  EXPECT_GT(total.borrowed, 0u);
  EXPECT_GT(total.deduped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainSweep, ::testing::Range(0, 8));

// The refold case pinned down: the start "v" shares its schema with
// the hop "h", so v's path refolds h's family without v, and every row
// of the refolded h matches. The family union (h plus v) holds v's
// extra `lh` values, which h's join output never carries. With h's own
// set the last hop's pair (4 of e's 12 `k` values, path keyness 4/12,
// e's 1/2) weighs 1/6 and v is dropped; the union's set would weigh
// 1/3 and expand it. Parity therefore requires the refolded side to be
// deduplicated from its own rows, never borrowed from the union.
TEST(ExpandParityChain, RefoldedHopNeverBorrowsTheFamilyUnion) {
  auto dict = MakeDictionary();
  auto v = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  TableBuilder sb(dict, "source");
  sb.Columns({"id", "name"});
  for (size_t i = 0; i < 12; ++i) sb.Row({v("id", i), v("nm", i)});
  Table source = sb.Key({"id"}).Build();

  TableBuilder vb(dict, "v");  // three rows per lp value
  vb.Columns({"lp", "lh", "x"});
  for (size_t i = 0; i < 12; ++i) {
    vb.Row({v("P", i % 4), v("Z", i), v("X", i)});
  }
  TableBuilder hb(dict, "h");
  hb.Columns({"lp", "lh", "x"});
  for (size_t i = 0; i < 4; ++i) hb.Row({v("P", i), v("K", i), v("Y", i)});
  TableBuilder eb(dict, "e");  // two rows per key
  eb.Columns({"k", "id"});
  for (size_t i = 0; i < 24; ++i) eb.Row({v("K", i % 12), v("id", i % 12)});

  DataLake lake(dict);
  for (Table t : {vb.Build(), hb.Build(), eb.Build()}) {
    ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
  }
  ColumnStatsCatalog catalog(lake);
  const ColumnStatsCatalog* backings[] = {&catalog, nullptr};
  for (const ColumnStatsCatalog* stats : backings) {
    std::vector<Candidate> candidates;
    for (size_t t = 0; t < lake.size(); ++t) {
      Candidate c(lake.table(t).Clone());
      c.lake_index = t;
      c.covers_key = c.table.HasColumn("id");
      c.stats = stats;
      candidates.push_back(std::move(c));
    }
    HopCounters counters;
    const ExpandResult want = ExpectParity(
        source, candidates, stats ? "catalog" : "hand-built", {}, &counters);
    // h expands straight into e; v's one path [v, h, e] is dropped at
    // its last hop.
    ASSERT_EQ(want.num_expanded, 1u);
    ASSERT_EQ(want.num_dropped, 1u);
    EXPECT_EQ(want.tables[0].name(), "h+expanded");
    // The one intermediate hop: h's three columns deduplicated, v's two
    // (every v row matched) borrowed.
    EXPECT_EQ(counters.hops, 1u);
    EXPECT_EQ(counters.deduped, 3u);
    EXPECT_EQ(counters.borrowed, 2u);
  }
}

// Candidates for every table in order; those with an `id` column cover
// the source key.
std::vector<Candidate> KeyedCandidates(std::vector<Table> tables) {
  std::vector<Candidate> candidates;
  for (Table& t : tables) {
    Candidate c(std::move(t));
    c.covers_key = c.table.HasColumn("id");
    candidates.push_back(std::move(c));
  }
  return candidates;
}

// The shared hop sides are checked at 1 and 4 threads: one builds every
// side on the path that first needs it, the other races paths to it.
const std::vector<size_t> kSideThreads = {1, 4};

// Sweeps every row budget from 1 until the result matches the unbounded
// one, each against the oracle. Returns the smallest budget at which
// candidate `start` expands (0 when it never does).
uint64_t SweepEveryBudget(const Table& source,
                          const std::vector<Candidate>& candidates,
                          const std::string& label,
                          const std::string& start) {
  const ExpandResult unbounded =
      ExpectParity(source, candidates, label + " unbounded", {}, nullptr,
                   kSideThreads);
  auto expanded = [&](const ExpandResult& r) {
    for (const Table& t : r.tables) {
      if (t.name() == start + "+expanded") return true;
    }
    return false;
  };
  EXPECT_TRUE(expanded(unbounded)) << label;
  uint64_t first = 0;
  for (uint64_t k = 1;; ++k) {
    EXPECT_LT(k, 10000u) << label << ": budget sweep never converged";
    if (k >= 10000u) return first;
    const ExpandResult bounded =
        ExpectParity(source, candidates, label + " budget " + std::to_string(k),
                     OpLimits().MaxRows(k), nullptr, kSideThreads);
    if (::testing::Test::HasFailure()) return first;
    if (first == 0 && expanded(bounded)) first = k;
    std::string why;
    if (SameExpansion(unbounded, bounded, &why)) return first;
  }
}

// What the last row of a hop family union carries.
enum class LastRow { kUnmatched, kNull, kHeavy };

// A chain s -> h -> e: keyless start s(a, name), keyless hop h(a, b),
// key-covering end e(b, id), over one value domain per link. Both h
// and e have a sibling with their columns reversed (h_v2, e_v2), listed
// after them, so each family union ends in its sibling's last row. At
// the intermediate hop (`at_last_hop` false) h_v2's last row, at the
// last hop e_v2's, is the special one: its join value is a stray no
// other table holds (kUnmatched), null (kNull), or one that kHeavy path
// rows carry (kHeavy). A heavy intermediate row's partner rows carry a
// stray out-link, so the last hop stays small; a heavy last row is
// checked on start h, whose one-hop path [h, e] joins it straight.
constexpr size_t kChainN = 8;
constexpr size_t kHeavyRows = 12;

std::vector<Table> LastRowChain(const DictionaryPtr& dict, LastRow kind,
                                bool at_last_hop) {
  auto v = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  const bool heavy = kind == LastRow::kHeavy;
  auto special = [&](const char* prefix) -> std::string {
    switch (kind) {
      case LastRow::kUnmatched: return std::string(prefix) + "_stray";
      case LastRow::kNull: return "";
      default: return std::string(prefix) + "_hot";
    }
  };
  TableBuilder s(dict, "s");
  s.Columns({"a", "name"});
  for (size_t i = 0; i < kChainN; ++i) s.Row({v("a", i), v("n", i)});
  if (heavy && !at_last_hop) {
    for (size_t k = 0; k < kHeavyRows; ++k) {
      s.Row({"a_hot", v("n", k % kChainN)});
    }
  }
  TableBuilder h(dict, "h");
  h.Columns({"a", "b"});
  for (size_t i = 0; i < kChainN; ++i) h.Row({v("a", i), v("b", i)});
  if (heavy && at_last_hop) {
    for (size_t k = 0; k < kHeavyRows; ++k) {
      h.Row({v("a", k % kChainN), "b_hot"});
    }
  }
  TableBuilder h2(dict, "h_v2");
  h2.Columns({"b", "a"});
  for (size_t i = 0; i < kChainN; i += 2) {
    h2.Row({v("b", (i + 1) % kChainN), v("a", i)});
  }
  if (!at_last_hop) h2.Row({heavy ? "b_none" : "b1", special("a")});
  TableBuilder e(dict, "e");
  e.Columns({"b", "id"});
  for (size_t i = 0; i < kChainN; ++i) e.Row({v("b", i), v("id", i)});
  TableBuilder e2(dict, "e_v2");
  e2.Columns({"id", "b"});
  for (size_t i = 0; i < kChainN; i += 3) {
    e2.Row({v("id", i), v("b", (i + 2) % kChainN)});
  }
  if (at_last_hop) e2.Row({"id0", special("b")});
  return {s.Build(), h.Build(), h2.Build(), e.Build(), e2.Build()};
}

// The hop join's cap is decided up front from the full join size minus
// the last left row's multiplicity. These chains put an unmatched, a
// null and a cap-deciding row last in the hop side, at an intermediate
// and at the last hop, and sweep every budget against the oracle. A
// heavy last row alone pushes its join over the cap without tripping
// it (NaturalJoin never checks after its last left row), so the start
// must expand below the heavy join's full size.
TEST(ExpandParitySides, LastHopRowUnderEveryBudget) {
  const char* kinds[] = {"unmatched", "null", "heavy"};
  for (LastRow kind : {LastRow::kUnmatched, LastRow::kNull, LastRow::kHeavy}) {
    for (bool at_last_hop : {false, true}) {
      const std::string label =
          std::string(kinds[static_cast<int>(kind)]) + " last row at the " +
          (at_last_hop ? "last" : "intermediate") + " hop";
      SCOPED_TRACE(label);
      auto dict = MakeDictionary();
      TableBuilder sb(dict, "source");
      sb.Columns({"id", "name"});
      for (size_t i = 0; i < kChainN; ++i) {
        sb.Row({"id" + std::to_string(i), "n" + std::to_string(i)});
      }
      const Table source = sb.Key({"id"}).Build();
      const std::vector<Candidate> candidates =
          KeyedCandidates(LastRowChain(dict, kind, at_last_hop));
      // The start whose path puts the special row last in a hop side.
      const std::string start = at_last_hop ? "h" : "s";
      const uint64_t first =
          SweepEveryBudget(source, candidates, label, start);
      if (::testing::Test::HasFailure()) return;
      EXPECT_GT(first, 1u);
      if (kind != LastRow::kHeavy) continue;
      // The heavy hop's full join: its family union on the left, the
      // path so far on the right (the chain's names never collide).
      auto u = [&](size_t a, size_t b) {
        return InnerUnion(candidates[a].table, candidates[b].table).value();
      };
      auto heavy = at_last_hop
                       ? NaturalJoin(u(3, 4), candidates[1].table,
                                     JoinKind::kInner)
                       : NaturalJoin(u(1, 2), candidates[0].table,
                                     JoinKind::kInner);
      ASSERT_TRUE(heavy.ok());
      EXPECT_LT(first, heavy->num_rows());
      EXPECT_GE(first, heavy->num_rows() - kHeavyRows);
    }
  }
}

// A schema family of three members, each with its columns in another
// order: f1(lp, lh, x), f2(x, lp, lh), f3(lh, x, lp), between the start
// s(lp, name) and the end e(k, id). Their rows overlap in the middle, f3
// has a null lp, and the family union folds all three by name. With
// `refold_start` a fourth member f4 (lp first, x last) is a keyless
// start whose lh values no end holds, so its path runs through another
// member, whose family is refolded without f4.
std::vector<Table> PermutedFamily(const DictionaryPtr& dict,
                                  bool refold_start) {
  auto v = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  auto member = [&](const std::string& name,
                    const std::vector<std::string>& cols, size_t lo,
                    size_t hi, const char* lh) {
    Table t(name, dict);
    for (const std::string& c : cols) EXPECT_TRUE(t.AddColumn(c).ok());
    for (size_t i = lo; i < hi; ++i) {
      std::vector<ValueId> row;
      for (const std::string& c : cols) {
        if (c == "lp") row.push_back(dict->Intern(v("P", i)));
        if (c == "lh") row.push_back(dict->Intern(v(lh, i)));
        if (c == "x") row.push_back(dict->Intern(v("X", i % 3)));
      }
      t.AddRow(row);
    }
    return t;
  };
  std::vector<Table> tables;
  TableBuilder s(dict, "s");
  s.Columns({"lp", "name"});
  for (size_t i = 0; i < 12; ++i) s.Row({v("P", i), v("n", i)});
  tables.push_back(s.Build());
  tables.push_back(member("f1", {"lp", "lh", "x"}, 0, 6, "K"));
  tables.push_back(member("f2", {"x", "lp", "lh"}, 3, 9, "K"));
  Table f3 = member("f3", {"lh", "x", "lp"}, 6, 12, "K");
  f3.AddRow({dict->Intern("K0"), dict->Intern("X0"), kNull});
  tables.push_back(std::move(f3));
  if (refold_start) {
    tables.push_back(member("f4", {"lp", "lh", "x"}, 0, 12, "Z"));
  }
  TableBuilder e(dict, "e");
  e.Columns({"k", "id"});
  for (size_t i = 0; i < 12; ++i) e.Row({v("K", i), v("id", i)});
  tables.push_back(e.Build());
  return tables;
}

TEST(ExpandParitySides, PermutedFamilyUnderEveryBudget) {
  for (bool refold_start : {false, true}) {
    const std::string label = refold_start ? "refold" : "shared union";
    SCOPED_TRACE(label);
    auto dict = MakeDictionary();
    TableBuilder sb(dict, "source");
    sb.Columns({"id", "name"});
    for (size_t i = 0; i < 12; ++i) {
      sb.Row({"id" + std::to_string(i), "n" + std::to_string(i)});
    }
    const Table source = sb.Key({"id"}).Build();
    const std::vector<Candidate> candidates =
        KeyedCandidates(PermutedFamily(dict, refold_start));
    SweepEveryBudget(source, candidates, label, refold_start ? "f4" : "s");
    if (::testing::Test::HasFailure()) return;
  }
}

// Mapping verification aligns each expanded row to the FIRST source row
// carrying its key. Here every key is duplicated, the first copy
// holding the attribute values the expansion carries and the second
// contradicting them, and one source row has a null key cell: aligned
// to the first copies the attribute column is kept, aligned to any
// other it would be unmapped. Once with a one-column key, once with a
// two-column key (the null in its second column), each under every
// budget.
TEST(ExpandParitySides, VerificationAlignsToTheFirstKeyRow) {
  for (bool two_col_key : {false, true}) {
    SCOPED_TRACE(two_col_key ? "two-column key" : "one-column key");
    auto dict = MakeDictionary();
    auto v = [](const char* prefix, size_t i) {
      return prefix + std::to_string(i);
    };
    std::vector<std::string> key = {"id"};
    if (two_col_key) key.push_back("yr");
    std::vector<std::string> source_cols = key;
    source_cols.push_back("attr");
    TableBuilder sb(dict, "source");
    sb.Columns(source_cols);
    auto source_row = [&](std::string id, const std::string& attr) {
      std::vector<std::string> row = {std::move(id)};
      if (two_col_key) row.push_back("y");
      row.push_back(attr);
      return row;
    };
    for (size_t i = 0; i < 6; ++i) sb.Row(source_row(v("id", i), v("a", i)));
    for (size_t i = 0; i < 6; ++i) sb.Row(source_row(v("id", i), v("z", i)));
    if (two_col_key) {
      sb.Row({"id6", "", "a6"});
    } else {
      sb.Row({"", "a6"});
    }
    const Table source = sb.Key(key).Build();

    TableBuilder t(dict, "t");
    t.Columns({"ref", "attr"});
    for (size_t i = 0; i < 6; ++i) t.Row({v("r", i), v("a", i)});
    std::vector<std::string> end_cols = {"ref"};
    end_cols.insert(end_cols.end(), key.begin(), key.end());
    TableBuilder e(dict, "e");
    e.Columns(end_cols);
    for (size_t i = 0; i < 7; ++i) {
      std::vector<std::string> row = {v("r", i), v("id", i)};
      if (two_col_key) row.push_back("y");
      e.Row(row);
    }
    const std::vector<Candidate> candidates =
        KeyedCandidates({t.Build(), e.Build()});
    const ExpandResult want =
        ExpectParity(source, candidates, "verification", {}, nullptr,
                     kSideThreads);
    ASSERT_EQ(want.num_expanded, 1u);
    ASSERT_EQ(want.tables[0].name(), "t+expanded");
    EXPECT_TRUE(want.tables[0].HasColumn("attr"));
    SweepEveryBudget(source, candidates, "verification", "t");
  }
}

// Work counters of the shared sides, on a lake where they are easy to
// count. Starts s1(lp, name) and s2(x, name2) reach the end e(k, id, x)
// through the same hop h(lp, lq, k), joining it on lp and on lq; h
// itself is a keyless start one hop from e. Every fused last hop joins
// e on k, so e's key table is built once and reused twice. The
// first-occurrence rows of e depend on the columns kept: s1 and h keep
// e's id (one list, built once, reused once), while s2 also keeps e's x,
// since its own x became lq at the first hop, and needs a list of its
// own (e repeats some (k, id) pairs with another x, so a list shared by
// mistake drops rows). h's key tables on lp and on lq are built once
// each.
TEST(ExpandParitySides, SharedSidesAreBuiltOnce) {
  auto dict = MakeDictionary();
  auto v = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  TableBuilder sb(dict, "source");
  sb.Columns({"id", "name"});
  for (size_t i = 0; i < 8; ++i) sb.Row({v("id", i), v("n", i)});
  const Table source = sb.Key({"id"}).Build();
  TableBuilder s1(dict, "s1");
  s1.Columns({"lp", "name"});
  TableBuilder s2(dict, "s2");
  s2.Columns({"x", "name2"});
  TableBuilder h(dict, "h");
  h.Columns({"lp", "lq", "k"});
  TableBuilder e(dict, "e");
  e.Columns({"k", "id", "x"});
  for (size_t i = 0; i < 8; ++i) {
    s1.Row({v("P", i), v("n", i)});
    s2.Row({v("Q", i), v("m", i)});
    h.Row({v("P", i), v("Q", i), v("K", i)});
    e.Row({v("K", i), v("id", i), v("W", i)});
    if (i % 2 == 0) e.Row({v("K", i), v("id", i), v("V", i)});
  }
  const std::vector<Candidate> candidates =
      KeyedCandidates({s1.Build(), s2.Build(), h.Build(), e.Build()});
  HopCounters counters;
  const ExpandResult want = ExpectParity(source, candidates, "shared sides",
                                         {}, &counters, kSideThreads);
  ASSERT_EQ(want.num_expanded, 3u);
  ASSERT_EQ(want.tables[1].name(), "s2+expanded");
  EXPECT_TRUE(want.tables[1].HasColumn("x"));
  EXPECT_EQ(counters.hops, 2u);
  EXPECT_EQ(counters.sides_built, 5u);
  EXPECT_EQ(counters.sides_reused, 3u);
}

// The join graph is scored lazily: with every candidate covering the
// key no path search runs, so no pair is scored.
TEST(ExpandParityGraph, AllKeyCoveringScoresNoPair) {
  auto dict = MakeDictionary();
  TableBuilder sb(dict, "source");
  sb.Columns({"id", "a", "b"});
  std::vector<Table> tables;
  for (size_t t = 0; t < 5; ++t) {
    TableBuilder tb(dict, "t" + std::to_string(t));
    tb.Columns({"id", t % 2 == 0 ? "a" : "b"});
    for (size_t i = 0; i < 6; ++i) {
      tb.Row({"id" + std::to_string(i), "v" + std::to_string(i + t)});
    }
    tables.push_back(tb.Build());
  }
  for (size_t i = 0; i < 6; ++i) {
    sb.Row({"id" + std::to_string(i), "v" + std::to_string(i),
            "v" + std::to_string(i + 1)});
  }
  const Table source = sb.Key({"id"}).Build();
  HopCounters counters;
  const ExpandResult want = ExpectParity(
      source, KeyedCandidates(std::move(tables)), "all covering", {},
      &counters);
  EXPECT_EQ(want.tables.size(), 5u);
  EXPECT_EQ(counters.pairs_scored, 0u);
}

// One keyless candidate among five key-covering ones: its own adjacency
// scores its n−1 pairs, and its first settled neighbor covers the key,
// so no other adjacency is built — 5 pairs, not n(n−1)/2 = 15. Its
// forced paths start at key-covering neighbors and score nothing more.
TEST(ExpandParityGraph, MostlyKeyCoveringScoresOnlyTheStartsPairs) {
  auto dict = MakeDictionary();
  TableBuilder sb(dict, "source");
  sb.Columns({"id", "a", "b"});
  for (size_t i = 0; i < 8; ++i) {
    sb.Row({"id" + std::to_string(i), "a" + std::to_string(i),
            "b" + std::to_string(i)});
  }
  const Table source = sb.Key({"id"}).Build();
  std::vector<Table> tables;
  for (size_t t = 0; t < 5; ++t) {
    TableBuilder tb(dict, "keyed" + std::to_string(t));
    tb.Columns({"id", "ref" + std::to_string(t)});
    for (size_t i = 0; i < 8; ++i) {
      tb.Row({"id" + std::to_string(i),
              "r" + std::to_string(t) + "_" + std::to_string(i)});
    }
    tables.push_back(tb.Build());
  }
  TableBuilder kb(dict, "keyless");
  kb.Columns({"ref2", "b"});
  for (size_t i = 0; i < 8; ++i) {
    kb.Row({"r2_" + std::to_string(i), "b" + std::to_string(i)});
  }
  tables.push_back(kb.Build());
  const size_t n = tables.size();
  HopCounters counters;
  const ExpandResult want = ExpectParity(
      source, KeyedCandidates(std::move(tables)), "mostly covering", {},
      &counters);
  EXPECT_EQ(want.num_expanded, 1u);
  EXPECT_EQ(counters.pairs_scored, n - 1);
  EXPECT_LT(counters.pairs_scored, n * (n - 1) / 2);
}

TEST(ExpandParityEdge, EmptyCandidateList) {
  auto dict = MakeDictionary();
  Table source = TableBuilder(dict, "s")
                     .Columns({"id", "v"})
                     .Row({"a", "1"})
                     .Key({"id"})
                     .Build();
  ExpectParity(source, {}, "empty");
}

TEST(ExpandParityEdge, AllNullAndEmptyColumns) {
  auto dict = MakeDictionary();
  Table source = TableBuilder(dict, "s")
                     .Columns({"id", "v"})
                     .Row({"a", "1"})
                     .Row({"b", "2"})
                     .Row({"c", ""})
                     .Key({"id"})
                     .Build();
  std::vector<Candidate> candidates;
  {
    // Key-covering candidate with an all-null extra column.
    Candidate c(TableBuilder(dict, "keyed")
                    .Columns({"id", "v", "hollow"})
                    .Row({"a", "1", ""})
                    .Row({"b", "2", ""})
                    .Row({"c", "3", ""})
                    .Build());
    c.covers_key = true;
    candidates.push_back(std::move(c));
  }
  {
    // Keyless candidate whose only joinable column is all-null: no
    // edge, must be dropped identically by both implementations.
    Candidate c(TableBuilder(dict, "island")
                    .Columns({"id#raw", "w"})
                    .Row({"", "x"})
                    .Row({"", "y"})
                    .Build());
    c.covers_key = false;
    candidates.push_back(std::move(c));
  }
  ExpectParity(source, candidates, "all-null");
}

// A stats pointer whose lake table no longer matches the candidate's
// shape must be ignored (fallback), not trusted.
TEST(ExpandParityEdge, StaleStatsShapeFallsBack) {
  auto dict = MakeDictionary();
  Table source = TableBuilder(dict, "s")
                     .Columns({"id", "v"})
                     .Row({"a", "1"})
                     .Row({"b", "2"})
                     .Key({"id"})
                     .Build();
  DataLake lake(dict);
  ASSERT_TRUE(lake.AddTable(TableBuilder(dict, "tiny")
                                .Columns({"z"})
                                .Row({"q"})
                                .Build())
                  .ok());
  ColumnStatsCatalog catalog(lake);
  // Candidate claims lake index 0 but has a different shape entirely.
  Candidate c(TableBuilder(dict, "keyed")
                  .Columns({"id", "v"})
                  .Row({"a", "1"})
                  .Row({"b", "2"})
                  .Build());
  c.covers_key = true;
  c.lake_index = 0;
  c.stats = &catalog;
  std::vector<Candidate> candidates;
  candidates.push_back(std::move(c));
  ExpectParity(source, candidates, "stale-stats");
}

}  // namespace
}  // namespace gent
