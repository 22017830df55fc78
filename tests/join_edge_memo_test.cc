// The catalog's join-edge memo (src/engine/join_edge_memo.h) and
// Expand's use of it. Unit cases pin the memo's own contract: nothing
// allocated before the first insert, directed keys, stored absences,
// first insert wins, refused records and a byte budget that stops
// inserts but keeps serving. The Expand cases hold a memoized
// expansion to the reference (tests/expand_reference.h): every
// catalog-backed case runs cold and then warm on one catalog at 1/2/8
// threads; a pair with tied column pairs is asked in both directions;
// two catalogs with overlapping lake indices and a WithAppended layer
// share no edge; a full memo still serves exact edges; and four
// threads expand over one cold catalog at once (MemoHammer, repeated by
// the ThreadSanitizer job).

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "expand_reference.h"
#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/engine/join_edge_memo.h"
#include "src/lake/data_lake.h"
#include "src/matrix/expand.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace gent {
namespace {

bool SameEdge(const std::optional<JoinEdge>& a,
              const std::optional<JoinEdge>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->a_col == b->a_col && a->b_col == b->b_col &&
         a->weight == b->weight && a->inter == b->inter;
}

TEST(JoinEdgeMemo, AllocatesNothingBeforeTheFirstInsert) {
  JoinEdgeMemo memo;
  std::optional<JoinEdge> edge;
  EXPECT_FALSE(memo.Find(0, 1, &edge));
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().bytes, 0u);
  EXPECT_TRUE(memo.Insert(0, 1, std::nullopt));
  EXPECT_EQ(memo.stats().entries, 1u);
  EXPECT_GT(memo.stats().bytes, 0u);
}

TEST(JoinEdgeMemo, StoresEdgesAndAbsencesUnderDirectedKeys) {
  JoinEdgeMemo memo;
  const JoinEdge forward{2, 5, 0.625, 40};
  ASSERT_TRUE(memo.Insert(7, 3, forward));
  ASSERT_TRUE(memo.Insert(3, 7, JoinEdge{4, 1, 0.625, 40}));
  ASSERT_TRUE(memo.Insert(9, 3, std::nullopt));

  std::optional<JoinEdge> edge;
  ASSERT_TRUE(memo.Find(7, 3, &edge));
  EXPECT_TRUE(SameEdge(edge, forward));
  ASSERT_TRUE(memo.Find(3, 7, &edge));
  EXPECT_TRUE(SameEdge(edge, JoinEdge{4, 1, 0.625, 40}));
  edge = forward;
  ASSERT_TRUE(memo.Find(9, 3, &edge));
  EXPECT_FALSE(edge.has_value());  // a stored absence
  EXPECT_FALSE(memo.Find(3, 9, &edge));
  EXPECT_EQ(memo.stats().entries, 3u);
}

TEST(JoinEdgeMemo, FirstInsertWins) {
  JoinEdgeMemo memo;
  ASSERT_TRUE(memo.Insert(1, 2, JoinEdge{0, 0, 0.5, 3}));
  EXPECT_FALSE(memo.Insert(1, 2, JoinEdge{1, 1, 0.9, 7}));
  EXPECT_FALSE(memo.Insert(1, 2, std::nullopt));
  std::optional<JoinEdge> edge;
  ASSERT_TRUE(memo.Find(1, 2, &edge));
  EXPECT_TRUE(SameEdge(edge, JoinEdge{0, 0, 0.5, 3}));
  EXPECT_EQ(memo.stats().entries, 1u);
}

TEST(JoinEdgeMemo, RefusesRecordsThatDoNotFitASlot) {
  JoinEdgeMemo memo;
  EXPECT_FALSE(memo.Insert(0, 1, JoinEdge{65535, 0, 1.0, 1}));
  EXPECT_FALSE(memo.Insert(0, 1, JoinEdge{0, 70000, 1.0, 1}));
  EXPECT_FALSE(memo.Insert(0, 1, JoinEdge{0, 0, 1.0, size_t{1} << 32}));
  EXPECT_FALSE(memo.Insert(size_t{1} << 32, 1, std::nullopt));
  EXPECT_FALSE(memo.Insert(1, UINT32_MAX, std::nullopt));
  std::optional<JoinEdge> edge;
  EXPECT_FALSE(memo.Find(0, 1, &edge));
  EXPECT_FALSE(memo.Find(size_t{1} << 32, 1, &edge));
  EXPECT_EQ(memo.stats().entries, 0u);
  // The largest record that fits is stored exactly.
  const JoinEdge widest{65534, 65534, 0.3, UINT32_MAX};
  ASSERT_TRUE(memo.Insert(UINT32_MAX - 1, UINT32_MAX - 1, widest));
  ASSERT_TRUE(memo.Find(UINT32_MAX - 1, UINT32_MAX - 1, &edge));
  EXPECT_TRUE(SameEdge(edge, widest));
}

TEST(JoinEdgeMemo, TinyBudgetStopsInsertingAndKeepsServing) {
  // 16 shards × 4 slots × 24 B: at most 3 keys per shard.
  constexpr size_t kBudget = 16 * 4 * 24;
  JoinEdgeMemo memo(kBudget);
  std::vector<size_t> stored;
  for (size_t k = 0; k < 2000; ++k) {
    if (memo.Insert(k, k + 1, JoinEdge{k % 7, k % 5, 0.5, k})) {
      stored.push_back(k);
    }
  }
  const JoinEdgeMemo::Stats full = memo.stats();
  EXPECT_EQ(full.entries, stored.size());
  EXPECT_LE(full.entries, 16u * 3);
  EXPECT_GT(full.entries, 0u);
  EXPECT_LE(full.bytes, kBudget);
  for (size_t k = 0; k < 2000; ++k) {
    std::optional<JoinEdge> edge;
    const bool hit = memo.Find(k, k + 1, &edge);
    EXPECT_EQ(hit, std::find(stored.begin(), stored.end(), k) != stored.end());
    if (hit) {
      EXPECT_TRUE(SameEdge(edge, JoinEdge{k % 7, k % 5, 0.5, k}));
    }
  }
  // A budget below one usable shard table stores nothing at all.
  JoinEdgeMemo none(16 * 24);
  EXPECT_FALSE(none.Insert(0, 1, std::nullopt));
  EXPECT_EQ(none.stats().bytes, 0u);
}

// --- Expand through the memo -----------------------------------------------

bool SameExpansion(const ExpandResult& want, const ExpandResult& got,
                   std::string* why) {
  if (want.num_expanded != got.num_expanded ||
      want.num_dropped != got.num_dropped ||
      want.tables.size() != got.tables.size()) {
    *why = "expansion counts diverge";
    return false;
  }
  for (size_t i = 0; i < want.tables.size(); ++i) {
    if (want.tables[i].name() != got.tables[i].name() ||
        !TablesBitIdentical(want.tables[i], got.tables[i])) {
      *why = "table " + want.tables[i].name() + " diverges";
      return false;
    }
  }
  return true;
}

Result<ExpandResult> ExpandAt(const Table& source,
                              const std::vector<Candidate>& cands,
                              size_t threads) {
  ExpandOptions options;
  options.num_threads = threads;
  return Expand(source, cands, OpLimits{}, options);
}

// A seeded lake whose candidates need one- and two-hop paths: a keyed
// hub (id → ref), a link table (ref → ref2, plus one source attribute)
// and attribute tables reachable only over ref2, with a sibling
// variant, a low-keyness decoy and unrelated noise.
struct SeededLake {
  DictionaryPtr dict = MakeDictionary();
  Table source{"source", dict};
  DataLake lake{dict};
};

void BuildLake(SeededLake* out, Rng& rng) {
  const size_t rows = 8 + rng.Index(16);
  auto cell = [&](const std::string& v) {
    return rng.Bernoulli(0.1) ? std::string() : v;
  };
  TableBuilder sb(out->dict, "source");
  sb.Columns({"id", "attr0", "attr1"});
  for (size_t r = 0; r < rows; ++r) {
    const std::string n = std::to_string(r);
    sb.Row({"id" + n, cell("a0_" + n), cell("a1_" + n)});
  }
  out->source = sb.Key({"id"}).Build();

  TableBuilder hub(out->dict, "hub");
  hub.Columns({"id", "ref"});
  for (size_t r = 0; r < rows; ++r) {
    const std::string n = std::to_string(r);
    hub.Row({"id" + n, cell("r" + n)});
  }
  ASSERT_TRUE(out->lake.AddTable(hub.Build()).ok());

  TableBuilder link(out->dict, "link");
  link.Columns({"ref", "ref2", "attr0"});
  for (size_t r = 0; r < rows; ++r) {
    const std::string n = std::to_string(r);
    link.Row({cell("r" + n), cell("s" + n), cell("a0_" + n)});
  }
  ASSERT_TRUE(out->lake.AddTable(link.Build()).ok());

  const int variants = rng.Bernoulli(0.6) ? 2 : 1;
  for (int variant = 0; variant < variants; ++variant) {
    TableBuilder ab(out->dict, variant == 0 ? "attrs" : "attrs_v2");
    ab.Columns({"ref2", "attr1"});
    for (size_t r = 0; r < rows; ++r) {
      const std::string n = std::to_string(r);
      const bool hole = ((r % 2 == 0) == (variant == 0)) && rng.Bernoulli(0.5);
      ab.Row({hole ? "" : "s" + n, cell("a1_" + n)});
    }
    ASSERT_TRUE(out->lake.AddTable(ab.Build()).ok());
  }

  if (rng.Bernoulli(0.7)) {
    TableBuilder db(out->dict, "decoy");
    db.Columns({"id", "category"});
    for (size_t r = 0; r < rows; ++r) {
      db.Row({"id" + std::to_string(r), r % 2 == 0 ? "even" : "odd"});
    }
    ASSERT_TRUE(out->lake.AddTable(db.Build()).ok());
  }
  for (size_t t = rng.Index(3); t > 0; --t) {
    TableBuilder tb(out->dict, "noise" + std::to_string(t));
    tb.Columns({"x", "y"});
    for (size_t r = 0; r < 6; ++r) tb.Row({rng.AlphaNum(6), rng.AlphaNum(6)});
    ASSERT_TRUE(out->lake.AddTable(tb.Build()).ok());
  }
}

// Every lake table as a candidate backed by `catalog`, covering the key
// when it has the source's key column.
std::vector<Candidate> AllTables(const DataLake& lake,
                                 const ColumnStatsCatalog* catalog) {
  std::vector<Candidate> candidates;
  for (size_t t = 0; t < lake.size(); ++t) {
    Candidate c(lake.table(t).Clone());
    c.lake_index = t;
    c.covers_key = c.table.HasColumn("id");
    c.stats = catalog;
    candidates.push_back(std::move(c));
  }
  return candidates;
}

// What a cold serial call did: pairs it scored and intermediate hops.
struct ColdWork {
  size_t computed = 0;
  size_t hops = 0;
};

// Cold, then warm: per thread count, a fresh catalog over `lake` serves
// two expansions of the candidates `make` builds over it. Both must be
// bit-identical to the oracle and read the same pairs at every thread
// count. The warm serial call must score nothing.
template <typename MakeCandidates>
ColdWork ExpectColdThenWarm(const Table& source, const DataLake& lake,
                            MakeCandidates make, const std::string& label) {
  std::optional<ExpandResult> want;
  std::optional<size_t> scored;
  ColdWork work;
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads));
    const ColumnStatsCatalog catalog(lake);
    const std::vector<Candidate> cands = make(catalog);
    if (!want) {
      auto ref = ref::RefExpand(source, cands);
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      if (!ref.ok()) return work;
      want = std::move(ref).value();
    }
    auto cold = ExpandAt(source, cands, threads);
    auto warm = ExpandAt(source, cands, threads);
    EXPECT_TRUE(cold.ok() && warm.ok());
    if (!cold.ok() || !warm.ok()) return work;
    std::string why;
    EXPECT_TRUE(SameExpansion(*want, *cold, &why)) << "cold: " << why;
    EXPECT_TRUE(SameExpansion(*want, *warm, &why)) << "warm: " << why;
    if (!scored) scored = cold->join_pairs_scored;
    EXPECT_EQ(cold->join_pairs_scored, *scored);
    EXPECT_EQ(warm->join_pairs_scored, *scored);
    EXPECT_LE(warm->join_pairs_computed, cold->join_pairs_computed);
    if (threads == 1) {
      work = ColdWork{cold->join_pairs_computed, cold->intermediate_hops};
      EXPECT_EQ(warm->join_pairs_computed, 0u);
      EXPECT_EQ(catalog.residency().join_edges > 0, *scored > 0);
    }
  }
  return work;
}

class MemoSweep : public ::testing::TestWithParam<int> {};

// Discovery's candidates (renamed clones) and every lake table as a
// candidate, over seeded lakes.
TEST_P(MemoSweep, ColdThenWarmMatchesReference) {
  ColdWork total;
  auto add = [&](const ColdWork& w) {
    total.computed += w.computed;
    total.hops += w.hops;
  };
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng(GetParam() * 7349 + trial * 19 + 2);
    SeededLake seeded;
    BuildLake(&seeded, rng);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string trial_label = " trial " + std::to_string(trial);
    add(ExpectColdThenWarm(
        seeded.source, seeded.lake,
        [&](const ColumnStatsCatalog& catalog) {
          Discovery discovery(catalog, DiscoveryConfig{});
          auto candidates = discovery.FindCandidates(seeded.source);
          EXPECT_TRUE(candidates.ok());
          return candidates.ok() ? std::move(*candidates)
                                 : std::vector<Candidate>{};
        },
        "discovery" + trial_label));
    add(ExpectColdThenWarm(
        seeded.source, seeded.lake,
        [&](const ColumnStatsCatalog& catalog) {
          return AllTables(seeded.lake, &catalog);
        },
        "all tables" + trial_label));
  }
  // The sweep reached the join graph and paths longer than one hop.
  EXPECT_GT(total.computed, 0u);
  EXPECT_GT(total.hops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoSweep, ::testing::Range(0, 4));

// Tables a (ka, u, v) and b (kb, s, t) whose two joinable column pairs
// tie on (weight, intersection): a.u = b.t row for row, a.v = b.s
// shifted by three rows. From a to b the smallest (a_col, b_col) is
// (u, t); from b to a it is (s, v), which joins other rows. Only a
// directed key keeps both.
struct TiedLake {
  DictionaryPtr dict = MakeDictionary();
  DataLake lake{dict};
  Table a_source{"source_a", dict};  // key kb: a is keyless
  Table b_source{"source_b", dict};  // key ka: b is keyless
};

void BuildTiedLake(TiedLake* out) {
  constexpr size_t kRows = 8;
  TableBuilder a(out->dict, "a");
  a.Columns({"ka", "u", "v"});
  TableBuilder b(out->dict, "b");
  b.Columns({"kb", "s", "t"});
  TableBuilder sa(out->dict, "source_a");
  sa.Columns({"kb", "u"});
  TableBuilder sb(out->dict, "source_b");
  sb.Columns({"ka", "s"});
  for (size_t r = 0; r < kRows; ++r) {
    const std::string n = std::to_string(r);
    const std::string shifted = std::to_string((r + 3) % kRows);
    a.Row({"ka" + n, "p" + n, "q" + n});
    b.Row({"kb" + n, "q" + shifted, "p" + n});
    sa.Row({"kb" + n, "p" + n});
    sb.Row({"ka" + n, "q" + n});
  }
  ASSERT_TRUE(out->lake.AddTable(a.Build()).ok());
  ASSERT_TRUE(out->lake.AddTable(b.Build()).ok());
  out->a_source = sa.Key({"kb"}).Build();
  out->b_source = sb.Key({"ka"}).Build();
}

// Lake tables `order` as candidates backed by `catalog`; `keyless` is
// the one that does not cover the key.
std::vector<Candidate> Ordered(const DataLake& lake,
                               const ColumnStatsCatalog* catalog,
                               const std::vector<size_t>& order,
                               size_t keyless) {
  std::vector<Candidate> candidates;
  for (size_t t : order) {
    Candidate c(lake.table(t).Clone());
    c.lake_index = t;
    c.covers_key = t != keyless;
    c.stats = catalog;
    candidates.push_back(std::move(c));
  }
  return candidates;
}

TEST(MemoDirection, TiedPairsKeepTheirDirection) {
  TiedLake tied;
  BuildTiedLake(&tied);
  if (::testing::Test::HasFatalFailure()) return;
  const ColumnStatsCatalog catalog(tied.lake);
  // a keyless with the candidates in (b, a) order: the graph scores
  // b → a (its lower index), a's first hop asks a → b. Then b keyless
  // in (a, b) order: the graph scores a → b, b's first hop b → a.
  struct Case {
    const Table* source;
    std::vector<size_t> order;
    size_t keyless;
  };
  const Case cases[] = {{&tied.a_source, {1, 0}, 0},
                        {&tied.b_source, {0, 1}, 1}};
  for (int round = 0; round < 2; ++round) {  // cold memo, then warm
    for (const Case& c : cases) {
      SCOPED_TRACE("round " + std::to_string(round) + " keyless " +
                   std::to_string(c.keyless));
      const std::vector<Candidate> cands =
          Ordered(tied.lake, &catalog, c.order, c.keyless);
      auto want = ref::RefExpand(*c.source, cands);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(want->num_expanded, 1u);
      for (size_t threads : {1, 2}) {
        auto got = ExpandAt(*c.source, cands, threads);
        ASSERT_TRUE(got.ok());
        std::string why;
        EXPECT_TRUE(SameExpansion(*want, *got, &why)) << why;
        if (round == 1) {
          EXPECT_EQ(got->join_pairs_computed, 0u);
        }
      }
    }
  }
  // Both directions are stored, and they differ beyond a swap.
  std::optional<JoinEdge> ab, ba;
  ASSERT_TRUE(catalog.join_edges().Find(0, 1, &ab));
  ASSERT_TRUE(catalog.join_edges().Find(1, 0, &ba));
  ASSERT_TRUE(ab.has_value() && ba.has_value());
  EXPECT_EQ(ab->a_col, 1u);  // a.u
  EXPECT_EQ(ab->b_col, 2u);  // b.t
  EXPECT_EQ(ba->a_col, 1u);  // b.s
  EXPECT_EQ(ba->b_col, 2u);  // a.v
}

// Catalogs over different lakes reuse lake indices; a WithAppended
// layer reuses its base's. None may read another's edges.
TEST(MemoIsolation, CatalogsAndLayersShareNoEdges) {
  TiedLake tied;
  BuildTiedLake(&tied);
  if (::testing::Test::HasFatalFailure()) return;
  auto base = std::make_shared<const ColumnStatsCatalog>(tied.lake);

  // The same tables with a's pair columns swapped: from a to b the
  // tie now breaks to (v, s), so an edge read from `base` would join
  // the wrong columns.
  DataLake other(tied.dict);
  {
    const Table& a = tied.lake.table(0);
    Table swapped("a", tied.dict);
    for (const char* name : {"ka", "v", "u"}) {
      ASSERT_TRUE(swapped.AddColumn(name).ok());
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      swapped.AddRow({a.cell(r, 0), a.cell(r, 2), a.cell(r, 1)});
    }
    ASSERT_TRUE(other.AddTable(std::move(swapped)).ok());
    ASSERT_TRUE(other.AddTable(tied.lake.table(1).Clone()).ok());
  }
  const ColumnStatsCatalog other_catalog(other);

  auto expand_matches = [&](const DataLake& lake,
                            const ColumnStatsCatalog* catalog) {
    const std::vector<Candidate> cands = Ordered(lake, catalog, {1, 0}, 0);
    auto want = ref::RefExpand(tied.a_source, cands);
    auto got = ExpandAt(tied.a_source, cands, 1);
    EXPECT_TRUE(want.ok() && got.ok());
    if (!want.ok() || !got.ok()) return size_t{0};
    std::string why;
    EXPECT_TRUE(SameExpansion(*want, *got, &why)) << why;
    return got->join_pairs_computed;
  };
  EXPECT_GT(expand_matches(tied.lake, base.get()), 0u);
  const size_t base_edges = base->residency().join_edges;
  EXPECT_GT(base_edges, 0u);

  EXPECT_EQ(other_catalog.residency().join_edges, 0u);
  EXPECT_GT(expand_matches(other, &other_catalog), 0u);  // cold

  TableBuilder extra(tied.dict, "extra");
  extra.Columns({"w"}).Row({"w0"});
  ASSERT_TRUE(tied.lake.AddTable(extra.Build()).ok());
  auto layered = ColumnStatsCatalog::WithAppended(base, tied.lake, 2);
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  EXPECT_EQ((*layered)->residency().join_edges, 0u);
  EXPECT_EQ((*layered)->residency().join_edge_bytes, 0u);
  EXPECT_GT(expand_matches(tied.lake, layered->get()), 0u);  // cold
  EXPECT_EQ(expand_matches(tied.lake, layered->get()), 0u);  // warm
  EXPECT_EQ(base->residency().join_edges, base_edges);
}

// A full memo refuses every insert; expansions still match the oracle
// and score every pair on every call.
TEST(MemoBudget, FullMemoStillMatchesReference) {
  Rng rng(77);
  SeededLake seeded;
  BuildLake(&seeded, rng);
  if (::testing::Test::HasFatalFailure()) return;
  const ColumnStatsCatalog catalog(seeded.lake);
  JoinEdgeMemo& memo = catalog.join_edges();
  // Keys no lake table has, twice what the budget holds.
  const size_t lake_tables = seeded.lake.size();
  for (size_t k = 0; k < 2 * kJoinEdgeMemoBytes / 24; ++k) {
    memo.Insert(lake_tables + k, 0, std::nullopt);
  }
  const JoinEdgeMemo::Stats full = memo.stats();
  EXPECT_LE(full.bytes, kJoinEdgeMemoBytes);
  EXPECT_EQ(catalog.residency().join_edge_bytes, full.bytes);

  const std::vector<Candidate> cands = AllTables(seeded.lake, &catalog);
  auto want = ref::RefExpand(seeded.source, cands);
  ASSERT_TRUE(want.ok());
  std::optional<size_t> computed;
  for (int call = 0; call < 2; ++call) {
    auto got = ExpandAt(seeded.source, cands, 1);
    ASSERT_TRUE(got.ok());
    std::string why;
    EXPECT_TRUE(SameExpansion(*want, *got, &why)) << why;
    EXPECT_GT(got->join_pairs_computed, 0u);
    if (computed) {
      EXPECT_EQ(got->join_pairs_computed, *computed);
    }
    computed = got->join_pairs_computed;
  }
  EXPECT_EQ(memo.stats().entries, full.entries);
}

// Four threads expand different sources over one cold catalog at once,
// racing on the memo's misses and inserts; every result must be the
// oracle's.
TEST(MemoHammer, FourThreadsExpandOverOneCatalog) {
  Rng rng(4242);
  SeededLake seeded;
  BuildLake(&seeded, rng);
  if (::testing::Test::HasFatalFailure()) return;
  TiedLake tied;  // a second, unrelated lake and catalog in the mix
  BuildTiedLake(&tied);
  if (::testing::Test::HasFatalFailure()) return;
  const ColumnStatsCatalog catalog(seeded.lake);
  const ColumnStatsCatalog tied_catalog(tied.lake);

  struct Job {
    const Table* source;
    std::vector<Candidate> cands;
    ExpandResult want;
  };
  std::vector<Job> jobs;
  auto add_job = [&](const Table& source, std::vector<Candidate> cands) {
    auto want = ref::RefExpand(source, cands);
    ASSERT_TRUE(want.ok());
    jobs.push_back(Job{&source, std::move(cands), std::move(want).value()});
  };
  add_job(seeded.source, AllTables(seeded.lake, &catalog));
  Discovery discovery(catalog, DiscoveryConfig{});
  auto discovered = discovery.FindCandidates(seeded.source);
  ASSERT_TRUE(discovered.ok());
  add_job(seeded.source, std::move(*discovered));
  add_job(tied.a_source, Ordered(tied.lake, &tied_catalog, {1, 0}, 0));
  add_job(tied.b_source, Ordered(tied.lake, &tied_catalog, {0, 1}, 1));
  if (::testing::Test::HasFatalFailure()) return;

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 24;
  std::atomic<size_t> mismatches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t round = 0; round < kRounds; ++round) {
        const Job& job = jobs[(t + round) % jobs.size()];
        auto got = ExpandAt(*job.source, job.cands, 1 + (t + round) % 2);
        std::string why;
        if (!got.ok() || !SameExpansion(job.want, *got, &why)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(catalog.residency().join_edges, 0u);
  EXPECT_GT(tied_catalog.residency().join_edges, 0u);
  // Warm now: a serial call scores nothing.
  for (const Job& job : jobs) {
    auto got = ExpandAt(*job.source, job.cands, 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->join_pairs_computed, 0u);
  }
}

}  // namespace
}  // namespace gent
