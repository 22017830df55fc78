// Table IV + §VI-D generalizability: reclaiming T2D-Gold-style web tables
// from the corpus itself (leave-one-out), then embedded in a WDC-style
// sample.
//
// Expected shape (paper): Gen-T perfectly reclaims a handful of sources
// via multi-table integration (the partitioned groups), detects the
// duplicate clusters, and keeps precision 1.0 on the common subset where
// every method produces non-empty output; baselines match recall but
// lose precision.

#include <algorithm>

#include "bench/bench_common.h"
#include "src/baselines/alite.h"
#include "src/baselines/auto_pipeline.h"
#include "src/benchgen/web_tables.h"

using namespace gent;
using namespace gent::bench;

namespace {

struct WebOutcome {
  std::string source;
  double recall = 0, precision = 0, inst_div = 0, dkl = 0;
  bool perfect = false;
  bool duplicate_hit = false;  // reclaimed via a single identical table
};

}  // namespace

int main() {
  size_t max_sources = EnvSize("GENT_SOURCES", 120);
  double timeout = EnvDouble("GENT_TIMEOUT_S", 10);

  for (size_t wdc : {size_t{0}, EnvSize("GENT_WDC", 3000)}) {
    WebBenchConfig cfg;
    cfg.t2d_tables = EnvSize("GENT_T2D", 515);
    cfg.wdc_tables = wdc;
    std::string title = wdc == 0 ? "T2D Gold" : "WDC Sample+T2D Gold";
    auto bench = MakeWebBenchmark(title, cfg);
    if (!bench.ok()) {
      std::fprintf(stderr, "web bench failed\n");
      return 1;
    }

    AliteBaseline alite;
    AlitePsBaseline alite_ps;
    AutoPipelineBaseline auto_pipeline;

    // Aggregates on the common subset (all methods non-empty).
    struct Agg {
      double rec = 0, pre = 0, inst = 0, dkl = 0;
      size_t n = 0, perfect = 0;
    };
    Agg agg_gent, agg_alite, agg_alite_ps, agg_ap;
    size_t gent_perfect = 0, gent_dup = 0, evaluated = 0;

    size_t limit = std::min(max_sources, bench->source_indices.size());
    // One ColumnStatsCatalog per engine for the whole corpus (the batch
    // run's, and `gent`'s for the baselines' candidate sets); the
    // leave-one-out exclusion is applied per source instead of
    // rebuilding the index 515 times.
    GenT gent(*bench->lake);
    std::vector<Table> sources;
    sources.reserve(limit);
    for (size_t k = 0; k < limit; ++k) {
      sources.push_back(bench->lake->table(bench->source_indices[k]).Clone());
    }
    BulkOptions batch;
    // Default 1 worker: the per-source deadline below gates which
    // sources enter every method's comparison set, so contention-induced
    // timeouts would make the reported table load-dependent. The shared
    // catalog (vs. one index build per source) is the win either way;
    // raise GENT_THREADS on an idle many-core box.
    batch.threads = EnvSize("GENT_THREADS", 1);
    batch.timeout_seconds = timeout;
    batch.max_rows = 500000;
    batch.exclude_source_name = true;
    batch.cache_capacity = 0;  // every source is distinct
    auto gent_results = BulkReclaim(*bench->lake, sources, {}, batch);

    for (size_t k = 0; k < limit; ++k) {
      const Table& source = sources[k];
      OpLimits limits = OpLimits::WithTimeout(timeout);
      limits.MaxRows(500000);

      const auto& r = gent_results[k];
      if (!r.ok()) continue;
      ++evaluated;
      auto pr = ComputePrecisionRecall(source, r->reclaimed);
      bool perfect = IsPerfectReclamation(source, r->reclaimed);
      gent_perfect += perfect;
      if (perfect && r->originating.size() == 1) ++gent_dup;

      // Baselines on the same candidates (minus the source itself).
      std::vector<Table> inputs =
          CandidateTables(gent, source, /*exclude_self=*/true);
      auto out_alite = alite.Run(source, inputs, limits);
      auto out_ps = alite_ps.Run(source, inputs, limits);
      auto out_ap = auto_pipeline.Run(source, inputs, limits);
      bool all_nonempty = r->reclaimed.num_rows() > 0 && out_alite.ok() &&
                          out_alite->num_rows() > 0 && out_ps.ok() &&
                          out_ps->num_rows() > 0 && out_ap.ok() &&
                          out_ap->num_rows() > 0;
      if (!all_nonempty) continue;

      auto add = [&](Agg* a, const Table& out) {
        auto p = ComputePrecisionRecall(source, out);
        a->rec += p.recall;
        a->pre += p.precision;
        a->inst += InstanceDivergence(source, out).value_or(1.0);
        a->dkl += ConditionalKlDivergence(source, out).value_or(1000.0);
        a->perfect += IsPerfectReclamation(source, out);
        a->n += 1;
      };
      add(&agg_gent, r->reclaimed);
      add(&agg_alite, *out_alite);
      add(&agg_alite_ps, *out_ps);
      add(&agg_ap, *out_ap);
    }

    std::printf("\n=== %s (%zu sources tried, %zu evaluated) ===\n",
                title.c_str(), limit, evaluated);
    std::printf("Gen-T perfect reclamations: %zu (of which via a single "
                "duplicate table: %zu)\n",
                gent_perfect, gent_dup);
    std::printf("ground truth: %zu duplicate tables, %zu partitioned bases\n",
                bench->duplicate_tables.size(),
                bench->partitioned_bases.size());
    std::printf("\nCommon non-empty subset (%zu sources):\n", agg_gent.n);
    std::printf("%-16s %7s %7s %9s %9s %8s\n", "Method", "Rec", "Pre",
                "Inst-Div", "D_KL", "Perfect");
    auto print = [&](const char* name, const Agg& a) {
      if (a.n == 0) return;
      double n = static_cast<double>(a.n);
      std::printf("%-16s %7.3f %7.3f %9.3f %9.3f %8zu\n", name, a.rec / n,
                  a.pre / n, a.inst / n, a.dkl / n, a.perfect);
    };
    print("ALITE", agg_alite);
    print("ALITE-PS", agg_alite_ps);
    print("Auto-Pipeline*", agg_ap);
    print("Gen-T", agg_gent);
  }
  return 0;
}
