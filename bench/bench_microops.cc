// Micro-benchmarks for the hot operators underneath Gen-T.
//
// Four layers:
//
//  0. The simd section: raw dispatched kernels (src/util/simd.h) vs the
//     scalar parity oracle — plane popcount/score widths, balanced
//     sorted-set intersections, and the gallop-vs-merge skew sweep that
//     tunes kGallopSkewRatio. Emitted into BENCH_microops.json under
//     "simd_kernels" / "gallop".
//
//  1. The matrix section (always built, runs by default): times the
//     bit-packed alignment-matrix kernels — initialize / combine /
//     evaluate — and full Matrix Traversal on the TPC-H-derived TP-TR
//     Small and Med benchmarks, against the reference int8
//     implementation (tests/matrix_reference.h, the recorded baseline),
//     verifying outputs stay bit-identical while it times them. Results
//     are written to BENCH_microops.json (machine-readable; uploaded as
//     a CI artifact) so the perf trajectory is recorded run over run.
//
//  2. The expand and discovery sections: the cold expansion stage and
//     candidate discovery on TP-TR Small, Small in 400 distractors and
//     Med, each timed against its verbatim reference
//     (tests/expand_reference.h, tests/discovery_reference.h) with the
//     outputs compared; BENCH_expand.json and BENCH_discovery.json, and
//     a nonzero exit on any mismatch.
//
//  3. The google-benchmark suite of operator micro-benchmarks (outer
//     union, subsumption, joins, key mining, ...). Compiled when the
//     library is available; run with --benchmark... flags or
//     GENT_RUN_GBENCH=1.
//
// Environment knobs:
//   GENT_MICRO_SOURCES  sources per traversal benchmark (default 4; the
//                       expand section's noise lake runs at most 2, and
//                       the discovery section caps only Med)
//   GENT_MICRO_REPS     repetitions of the kernel loops (default 3)

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchgen/benchmarks.h"
#include "src/benchgen/tpch.h"
#include "src/discovery/discovery.h"
#include "src/engine/column_stats_catalog.h"
#include "src/keymining/key_miner.h"
#include "src/matrix/alignment_matrix.h"
#include "src/matrix/expand.h"
#include "src/matrix/traversal.h"
#include "src/metrics/incomplete_similarity.h"
#include "src/metrics/similarity.h"
#include "src/ops/fusion.h"
#include "src/ops/join.h"
#include "src/ops/spju.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"
#include "src/semantic/value_map.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"
#include "tests/discovery_reference.h"
#include "tests/expand_reference.h"
#include "tests/matrix_reference.h"

#ifdef GENT_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace gent {
namespace {

// A table with `rows` rows, `cols` columns, and a fraction of nulls.
Table MakeTable(const DictionaryPtr& dict, const std::string& name,
                size_t rows, size_t cols, double null_rate, uint64_t seed) {
  Rng rng(seed);
  Table t(name, dict);
  for (size_t c = 0; c < cols; ++c) {
    (void)t.AddColumn("c" + std::to_string(c));
  }
  std::vector<ValueId> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      row[c] = rng.Bernoulli(null_rate)
                   ? kNull
                   : dict->Intern("v" + std::to_string(c) + "_" +
                                  std::to_string(r % 97));
    }
    // First column acts as a join/alignment key.
    row[0] = dict->Intern(std::to_string(r));
    t.AddRow(row);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Matrix section: bit-packed kernels vs the reference int8 baseline.
// ---------------------------------------------------------------------------

size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct KernelTiming {
  double packed_ms = 0.0;    // bit-plane implementation
  double baseline_ms = 0.0;  // reference int8 implementation
  size_t iterations = 0;
  double Speedup() const {
    return packed_ms > 0 ? baseline_ms / packed_ms : 0.0;
  }
};

// Times the initialize / combine / evaluate kernels on a synthetic
// keyed pair (matching distributions for both implementations).
struct KernelResults {
  size_t rows = 0, cols = 0;
  KernelTiming initialize, combine, evaluate;
};

KernelResults RunKernels(size_t rows, size_t cols, size_t reps) {
  KernelResults out;
  out.rows = rows;
  out.cols = cols;
  auto dict = MakeDictionary();
  Table source = MakeTable(dict, "s", rows, cols, 0.0, 7);
  (void)source.SetKeyColumns({0});
  Table cand_a = MakeTable(dict, "a", rows, cols, 0.3, 7);
  Table cand_b = MakeTable(dict, "b", rows, cols, 0.4, 9);

  // Each kernel runs `sweeps` timed sweeps of `iters` calls; the
  // per-call time is the fastest sweep (robust under scheduler noise,
  // same treatment for both implementations).
  const size_t sweeps = std::max<size_t>(3, reps);
  const size_t iters = 20;
  out.initialize.iterations = sweeps * iters;
  out.combine.iterations = sweeps * iters;
  out.evaluate.iterations = sweeps * iters;

  volatile double sink = 0.0;
  auto timed = [&](auto&& body) {
    double best = 0.0;
    for (size_t s = 0; s < sweeps; ++s) {
      auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < iters; ++i) body();
      double ms = SecondsSince(t0) * 1e3 / iters;
      if (s == 0 || ms < best) best = ms;
    }
    return best;
  };

  out.initialize.packed_ms = timed([&] {
    sink += static_cast<double>(
        InitializeMatrix(source, cand_a)->TotalAlternatives());
  });
  out.initialize.baseline_ms = timed([&] {
    sink += static_cast<double>(
        ref::RefInitializeMatrix(source, cand_a)->TotalAlternatives());
  });

  AlignmentMatrix ma = *InitializeMatrix(source, cand_a);
  AlignmentMatrix mb = *InitializeMatrix(source, cand_b);
  ref::RefAlignmentMatrix ra = *ref::RefInitializeMatrix(source, cand_a);
  ref::RefAlignmentMatrix rb = *ref::RefInitializeMatrix(source, cand_b);

  out.combine.packed_ms = timed([&] {
    sink += static_cast<double>(CombineMatrices(ma, mb).TotalAlternatives());
  });
  out.combine.baseline_ms = timed([&] {
    sink += static_cast<double>(
        ref::RefCombineMatrices(ra, rb).TotalAlternatives());
  });

  AlignmentMatrix mc = CombineMatrices(ma, mb);
  ref::RefAlignmentMatrix rc = ref::RefCombineMatrices(ra, rb);
  out.evaluate.packed_ms =
      timed([&] { sink += EvaluateMatrixSimilarity(mc, source); });
  out.evaluate.baseline_ms =
      timed([&] { sink += ref::RefEvaluateMatrixSimilarity(rc, source); });

  (void)sink;
  return out;
}

struct TraversalRun {
  std::string benchmark;
  size_t sources = 0;
  size_t tables = 0;       // total candidate tables traversed
  double baseline_ms = 0;  // reference implementation, total
  double packed_ms = 0;    // bit-packed incremental, total
  bool identical = true;   // selections and scores bit-identical
  double Speedup() const {
    return packed_ms > 0 ? baseline_ms / packed_ms : 0.0;
  }
};

// Full Matrix Traversal over the first `max_sources` sources of a TP-TR
// (TPC-H-derived) benchmark: discovery+expand once per source (untimed),
// then the traversal itself — new vs reference — with outputs compared.
TraversalRun RunTraversalBench(const std::string& label,
                               const TpTrConfig& config, size_t max_sources,
                               size_t reps) {
  TraversalRun run;
  run.benchmark = label;
  auto bench = MakeTpTrBenchmark(label, config);
  if (!bench.ok()) {
    std::fprintf(stderr, "[microops] %s: benchmark build failed: %s\n",
                 label.c_str(), bench.status().ToString().c_str());
    run.identical = false;
    return run;
  }
  ColumnStatsCatalog catalog(*bench->lake);
  Discovery discovery(catalog, DiscoveryConfig{});

  std::vector<const Table*> sources;
  std::vector<std::vector<Table>> table_sets;
  size_t limit = std::min(max_sources, bench->sources.size());
  for (size_t i = 0; i < limit; ++i) {
    const Table& source = bench->sources[i].source;
    auto candidates = discovery.FindCandidates(source);
    if (!candidates.ok()) continue;
    auto expanded = Expand(source, *candidates);
    if (!expanded.ok()) continue;
    sources.push_back(&source);
    table_sets.push_back(std::move(expanded->tables));
    run.tables += table_sets.back().size();
  }
  run.sources = sources.size();

  // Per-source minimum across repetitions (same treatment for both
  // implementations): the robust estimator under scheduler noise.
  // Pinned to one thread so the recorded speedup is the algorithmic
  // win (bit planes + incremental scoring) — the reference is serial,
  // and pool fan-out is a separate axis measured by bench_fig8.
  TraversalOptions options;
  options.num_threads = 1;
  const size_t n_reps = std::max<size_t>(1, reps);
  for (size_t i = 0; i < sources.size(); ++i) {
    double best_packed = 0.0, best_baseline = 0.0;
    for (size_t rep = 0; rep < n_reps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto got = MatrixTraversal(*sources[i], table_sets[i], options);
      double packed = SecondsSince(t0) * 1e3;
      t0 = std::chrono::steady_clock::now();
      auto want =
          ref::RefMatrixTraversal(*sources[i], table_sets[i], options);
      double baseline = SecondsSince(t0) * 1e3;
      if (rep == 0 || packed < best_packed) best_packed = packed;
      if (rep == 0 || baseline < best_baseline) best_baseline = baseline;
      if (!got.ok() || !want.ok() || got->selected != want->selected ||
          std::memcmp(&got->final_score, &want->final_score,
                      sizeof(double)) != 0) {
        run.identical = false;
      }
    }
    run.packed_ms += best_packed;
    run.baseline_ms += best_baseline;
  }
  return run;
}

// ---------------------------------------------------------------------------
// SIMD kernel section: dispatched kernels vs the scalar parity oracle.
// ---------------------------------------------------------------------------

// Times the raw kernel tables (src/util/simd.h) head to head — scalar
// oracle vs whatever level the dispatcher selected — bypassing the
// inline small-size fast paths so each row isolates one kernel at one
// shape. The "gallop" sweep times the dispatched block merge against
// the galloping lower_bound walk at growing size skew; its crossover is
// what kGallopSkewRatio (column_stats_catalog.h) encodes.

struct SimdTiming {
  size_t n = 0;  // words (plane kernels) or elements per side (intersect)
  double scalar_ns = 0.0;  // per call
  double active_ns = 0.0;
  double Speedup() const {
    return active_ns > 0 ? scalar_ns / active_ns : 0.0;
  }
};

struct GallopPoint {
  size_t skew = 0;  // |big| / |small|
  double merge_ns = 0.0;         // dispatched block merge, per call
  double scalar_merge_ns = 0.0;  // scalar linear merge, per call
  double gallop_ns = 0.0;        // galloping lower_bound walk, per call
};

struct SimdSection {
  std::vector<SimdTiming> popcount, score, intersect;
  std::vector<GallopPoint> gallop;
};

// Sorted strictly-increasing ids with average step `gap` (>= 1).
std::vector<uint32_t> MakeSortedIds(Rng* rng, size_t n, uint32_t gap) {
  std::vector<uint32_t> v;
  v.reserve(n);
  uint32_t x = 0;
  for (size_t i = 0; i < n; ++i) {
    x += 1 + static_cast<uint32_t>(rng->Index(2 * gap - 1));
    v.push_back(x);
  }
  return v;
}

// The skewed-pair strategy of SortedIntersectionSize, verbatim.
size_t GallopIntersectSize(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  size_t n = 0;
  auto it = b.begin();
  for (uint32_t v : a) {
    it = std::lower_bound(it, b.end(), v);
    if (it == b.end()) break;
    if (*it == v) {
      ++n;
      ++it;
    }
  }
  return n;
}

SimdSection RunSimdSection() {
  const size_t reps = EnvSizeOr("GENT_MICRO_REPS", 3);
  SimdSection out;
  const simd::Kernels* scalar = simd::KernelsForLevel(DispatchLevel::kScalar);
  const simd::Kernels* active =
      simd::KernelsForLevel(simd::ActiveDispatchLevel());
  const size_t sweeps = std::max<size_t>(3, reps);
  volatile uint64_t sink = 0;
  auto time_ns = [&](size_t iters, auto&& body) {
    double best = 0.0;
    for (size_t s = 0; s < sweeps; ++s) {
      auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < iters; ++i) body();
      double ns = SecondsSince(t0) * 1e9 / static_cast<double>(iters);
      if (s == 0 || ns < best) best = ns;
    }
    return best;
  };

  Rng rng(1234);
  std::printf("\n=== simd kernels (%s dispatch vs scalar oracle) ===\n",
              DispatchLevelName(simd::ActiveDispatchLevel()));

  // Bit-plane kernels across plane widths (one word = 64 columns).
  std::printf("%-14s %8s %12s %12s %8s\n", "kernel", "words", "scalar_ns",
              "active_ns", "speedup");
  for (size_t words : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    std::vector<uint64_t> a(words), b(words), m(words);
    for (size_t i = 0; i < words; ++i) {
      a[i] = rng.Next();
      b[i] = rng.Next();
      m[i] = rng.Next();
    }
    const size_t iters = std::max<size_t>(64, (size_t{1} << 20) / words);
    SimdTiming pc;
    pc.n = words;
    pc.scalar_ns =
        time_ns(iters, [&] { sink += scalar->popcount_words(a.data(), words); });
    pc.active_ns =
        time_ns(iters, [&] { sink += active->popcount_words(a.data(), words); });
    out.popcount.push_back(pc);
    std::printf("%-14s %8zu %12.2f %12.2f %7.2fx\n", "popcount", words,
                pc.scalar_ns, pc.active_ns, pc.Speedup());
    SimdTiming sc;
    sc.n = words;
    sc.scalar_ns = time_ns(iters, [&] {
      uint64_t alpha = 0, delta = 0;
      scalar->score_planes(a.data(), b.data(), m.data(), words, &alpha,
                           &delta);
      sink += alpha + delta;
    });
    sc.active_ns = time_ns(iters, [&] {
      uint64_t alpha = 0, delta = 0;
      active->score_planes(a.data(), b.data(), m.data(), words, &alpha,
                           &delta);
      sink += alpha + delta;
    });
    out.score.push_back(sc);
    std::printf("%-14s %8zu %12.2f %12.2f %7.2fx\n", "score_planes", words,
                sc.scalar_ns, sc.active_ns, sc.Speedup());
  }

  // Balanced sorted-set intersections (equal sizes, similar density).
  for (size_t n : {256u, 1024u, 4096u, 16384u, 65536u}) {
    std::vector<uint32_t> a = MakeSortedIds(&rng, n, 2);
    std::vector<uint32_t> b = MakeSortedIds(&rng, n, 2);
    const size_t iters = std::max<size_t>(4, (size_t{1} << 21) / n);
    SimdTiming t;
    t.n = n;
    t.scalar_ns = time_ns(iters, [&] {
      sink += scalar->intersect_size(a.data(), n, b.data(), n);
    });
    t.active_ns = time_ns(iters, [&] {
      sink += active->intersect_size(a.data(), n, b.data(), n);
    });
    out.intersect.push_back(t);
    std::printf("%-14s %8zu %12.2f %12.2f %7.2fx\n", "intersect", n,
                t.scalar_ns, t.active_ns, t.Speedup());
  }

  // Gallop crossover: fixed big side, small side shrinking by skew.
  // Small-side values spread over the same range so matches occur.
  const size_t big_n = size_t{1} << 18;
  std::vector<uint32_t> big = MakeSortedIds(&rng, big_n, 2);
  std::printf("%-14s %8s %12s %14s %12s\n", "gallop sweep", "skew",
              "merge_ns", "scalar_mrg_ns", "gallop_ns");
  for (size_t skew : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    const size_t small_n = big_n / skew;
    std::vector<uint32_t> small =
        MakeSortedIds(&rng, small_n, static_cast<uint32_t>(2 * skew));
    GallopPoint p;
    p.skew = skew;
    p.merge_ns = time_ns(8, [&] {
      sink += active->intersect_size(small.data(), small_n, big.data(), big_n);
    });
    p.scalar_merge_ns = time_ns(4, [&] {
      sink += scalar->intersect_size(small.data(), small_n, big.data(), big_n);
    });
    p.gallop_ns = time_ns(32, [&] { sink += GallopIntersectSize(small, big); });
    out.gallop.push_back(p);
    std::printf("%-14s %8zu %12.2f %14.2f %12.2f  (%s wins)\n", "", skew,
                p.merge_ns, p.scalar_merge_ns, p.gallop_ns,
                p.gallop_ns < p.merge_ns ? "gallop" : "merge");
  }
  (void)sink;
  return out;
}

void PrintSimdTimingJson(std::FILE* f, const char* key, const char* n_key,
                         const std::vector<SimdTiming>& rows) {
  std::fprintf(f, "    \"%s\": [", key);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s\n      {\"%s\": %zu, \"scalar_ns\": %.2f, "
                 "\"active_ns\": %.2f, \"speedup\": %.2f}",
                 i ? "," : "", n_key, rows[i].n, rows[i].scalar_ns,
                 rows[i].active_ns, rows[i].Speedup());
  }
  std::fprintf(f, "\n    ]");
}

void PrintKernelJson(std::FILE* f, const char* key, const KernelTiming& k) {
  std::fprintf(f,
               "    \"%s\": {\"packed_ms\": %.6f, \"baseline_ms\": %.6f, "
               "\"speedup\": %.2f, \"iterations\": %zu}",
               key, k.packed_ms, k.baseline_ms, k.Speedup(), k.iterations);
}

int RunMatrixSection(const SimdSection& simd_section) {
  const size_t max_sources = EnvSizeOr("GENT_MICRO_SOURCES", 4);
  const size_t reps = EnvSizeOr("GENT_MICRO_REPS", 3);

  std::printf("=== matrix kernels (bit-packed vs int8 baseline) ===\n");
  KernelResults kernels = RunKernels(2000, 8, reps);
  auto report = [&](const char* name, const KernelTiming& k) {
    std::printf("%-12s packed %8.4f ms   baseline %8.4f ms   speedup %5.1fx\n",
                name, k.packed_ms, k.baseline_ms, k.Speedup());
  };
  report("initialize", kernels.initialize);
  report("combine", kernels.combine);
  report("evaluate", kernels.evaluate);

  std::printf("\n=== full Matrix Traversal (TPC-H TP-TR) ===\n");
  std::vector<TraversalRun> runs;
  runs.push_back(RunTraversalBench("TP-TR Small", TpTrSmallConfig(),
                                   max_sources, reps * 4));
  runs.push_back(
      RunTraversalBench("TP-TR Med", TpTrMedConfig(), max_sources, reps));
  bool all_identical = true;
  for (const auto& r : runs) {
    std::printf(
        "%-12s sources %2zu  tables %3zu  packed %9.2f ms  baseline %9.2f ms"
        "  speedup %5.1fx  identical %s\n",
        r.benchmark.c_str(), r.sources, r.tables, r.packed_ms, r.baseline_ms,
        r.Speedup(), r.identical ? "yes" : "NO");
    all_identical &= r.identical;
  }

  std::FILE* f = std::fopen("BENCH_microops.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[microops] cannot write BENCH_microops.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"microops\",\n");
  bench::WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"simd_kernels\": {\n");
  PrintSimdTimingJson(f, "popcount_words", "words", simd_section.popcount);
  std::fprintf(f, ",\n");
  PrintSimdTimingJson(f, "score_planes", "words", simd_section.score);
  std::fprintf(f, ",\n");
  PrintSimdTimingJson(f, "intersect_balanced", "size", simd_section.intersect);
  std::fprintf(f, "\n  },\n");
  std::fprintf(f, "  \"gallop\": [");
  for (size_t i = 0; i < simd_section.gallop.size(); ++i) {
    const GallopPoint& p = simd_section.gallop[i];
    std::fprintf(f,
                 "%s\n    {\"skew\": %zu, \"merge_ns\": %.2f, "
                 "\"scalar_merge_ns\": %.2f, \"gallop_ns\": %.2f}",
                 i ? "," : "", p.skew, p.merge_ns, p.scalar_merge_ns,
                 p.gallop_ns);
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"matrix\": {\n");
  std::fprintf(f, "    \"rows\": %zu, \"cols\": %zu,\n", kernels.rows,
               kernels.cols);
  PrintKernelJson(f, "initialize", kernels.initialize);
  std::fprintf(f, ",\n");
  PrintKernelJson(f, "combine", kernels.combine);
  std::fprintf(f, ",\n");
  PrintKernelJson(f, "evaluate", kernels.evaluate);
  std::fprintf(f, "\n  },\n");
  std::fprintf(f, "  \"traversal\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const TraversalRun& r = runs[i];
    std::fprintf(f,
                 "    {\"benchmark\": \"%s\", \"sources\": %zu, "
                 "\"tables\": %zu, \"baseline_ms\": %.3f, "
                 "\"optimized_ms\": %.3f, \"speedup\": %.2f, "
                 "\"identical\": %s}%s\n",
                 r.benchmark.c_str(), r.sources, r.tables, r.baseline_ms,
                 r.packed_ms, r.Speedup(), r.identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_microops.json\n");
  return all_identical ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Expand section: catalog-backed ExpandEngine vs the reference expansion.
// ---------------------------------------------------------------------------

// One cold expansion stage (join-graph build + key-covering joins) per
// source of a TP-TR benchmark: discovery runs once (untimed), then the
// expansion itself — ExpandEngine vs tests/expand_reference.h, the exact
// pre-engine implementation — with outputs compared bit-for-bit.
// `engine_ms` is single-threaded (the algorithmic win the acceptance
// bar measures); `engine_mt_ms` adds the pool fan-out on top. The
// noise lake is the one perfbench's cold_small_noise serves: its
// distractors add multi-hop paths through shared hop sides, so the
// parity check covers the paths that workload runs.
struct ExpandRun {
  std::string benchmark;
  size_t sources = 0;
  size_t candidates = 0;  // total candidates entering expansion
  size_t tables = 0;      // total key-covering tables produced
  // The engine's work counters, summed over sources (one serial run
  // each; they never depend on the thread count).
  size_t intermediate_hops = 0;
  size_t hop_sides_built = 0;
  size_t hop_sides_reused = 0;
  size_t join_pairs_scored = 0;
  double baseline_ms = 0;  // reference implementation, total
  double engine_ms = 0;    // ExpandEngine, num_threads = 1, total
  double engine_mt_ms = 0;  // ExpandEngine, num_threads = 0 (hardware)
  bool identical = true;
  double Speedup() const {
    return engine_ms > 0 ? baseline_ms / engine_ms : 0.0;
  }
  double MtSpeedup() const {
    return engine_mt_ms > 0 ? baseline_ms / engine_mt_ms : 0.0;
  }
};

bool ExpandResultsIdentical(const ExpandResult& a, const ExpandResult& b) {
  if (a.num_expanded != b.num_expanded || a.num_dropped != b.num_dropped ||
      a.tables.size() != b.tables.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tables.size(); ++i) {
    if (a.tables[i].name() != b.tables[i].name() ||
        !TablesBitIdentical(a.tables[i], b.tables[i])) {
      return false;
    }
  }
  return true;
}

ExpandRun RunExpandBench(const std::string& label,
                         const Result<TpTrBenchmark>& bench,
                         size_t max_sources, size_t reps) {
  ExpandRun run;
  run.benchmark = label;
  if (!bench.ok()) {
    std::fprintf(stderr, "[microops] %s: benchmark build failed: %s\n",
                 label.c_str(), bench.status().ToString().c_str());
    run.identical = false;
    return run;
  }
  ColumnStatsCatalog catalog(*bench->lake);
  Discovery discovery(catalog, DiscoveryConfig{});

  std::vector<const Table*> sources;
  std::vector<std::vector<Candidate>> candidate_sets;
  size_t limit = std::min(max_sources, bench->sources.size());
  for (size_t i = 0; i < limit; ++i) {
    const Table& source = bench->sources[i].source;
    auto candidates = discovery.FindCandidates(source);
    if (!candidates.ok()) continue;
    sources.push_back(&source);
    run.candidates += candidates->size();
    candidate_sets.push_back(std::move(*candidates));
  }
  run.sources = sources.size();

  ExpandOptions serial;
  serial.num_threads = 1;
  ExpandOptions pooled;
  pooled.num_threads = 0;
  const size_t n_reps = std::max<size_t>(1, reps);
  for (size_t i = 0; i < sources.size(); ++i) {
    double best_base = 0.0, best_engine = 0.0, best_mt = 0.0;
    for (size_t rep = 0; rep < n_reps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto want = ref::RefExpand(*sources[i], candidate_sets[i]);
      double base = SecondsSince(t0) * 1e3;
      t0 = std::chrono::steady_clock::now();
      auto got = Expand(*sources[i], candidate_sets[i], OpLimits{}, serial);
      double engine = SecondsSince(t0) * 1e3;
      t0 = std::chrono::steady_clock::now();
      auto got_mt = Expand(*sources[i], candidate_sets[i], OpLimits{}, pooled);
      double mt = SecondsSince(t0) * 1e3;
      if (rep == 0 || base < best_base) best_base = base;
      if (rep == 0 || engine < best_engine) best_engine = engine;
      if (rep == 0 || mt < best_mt) best_mt = mt;
      if (!want.ok() || !got.ok() || !got_mt.ok() ||
          !ExpandResultsIdentical(*want, *got) ||
          !ExpandResultsIdentical(*want, *got_mt)) {
        run.identical = false;
      }
      if (rep == 0) {
        run.tables += want.ok() ? want->tables.size() : 0;
        if (got.ok()) {
          run.intermediate_hops += got->intermediate_hops;
          run.hop_sides_built += got->hop_sides_built;
          run.hop_sides_reused += got->hop_sides_reused;
          run.join_pairs_scored += got->join_pairs_scored;
        }
      }
    }
    run.baseline_ms += best_base;
    run.engine_ms += best_engine;
    run.engine_mt_ms += best_mt;
  }
  return run;
}

int RunExpandSection() {
  const size_t max_sources = EnvSizeOr("GENT_MICRO_SOURCES", 4);
  const size_t reps = EnvSizeOr("GENT_MICRO_REPS", 3);

  std::printf("\n=== cold expansion stage (catalog-backed vs reference) ===\n");
  std::vector<ExpandRun> runs;
  auto small = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  runs.push_back(RunExpandBench("TP-TR Small", small, max_sources, reps * 2));
  runs.push_back(RunExpandBench(
      "TP-TR Med", MakeTpTrBenchmark("TP-TR Med", TpTrMedConfig()),
      max_sources, reps));
  // TP-TR Small in perfbench's 400 seeded distractors. The reference
  // refolds every hop family per path, so a few sources and one rep keep
  // the run short.
  constexpr size_t kNoiseSources = 2;
  Result<TpTrBenchmark> noisy =
      small.ok() ? EmbedInNoiseLake(*small, 400, 29)
                 : Result<TpTrBenchmark>(small.status());
  runs.push_back(RunExpandBench("TP-TR Small noise", noisy,
                                std::min(max_sources, kNoiseSources), 1));
  bool all_identical = true;
  for (const auto& r : runs) {
    std::printf(
        "%-17s sources %2zu  cands %3zu  engine %9.2f ms  (pooled %9.2f ms)"
        "  baseline %9.2f ms  speedup %5.1fx (%5.1fx)  identical %s\n"
        "%-17s hops %zu  hop sides built %zu  reused %zu  join pairs "
        "scored %zu\n",
        r.benchmark.c_str(), r.sources, r.candidates, r.engine_ms,
        r.engine_mt_ms, r.baseline_ms, r.Speedup(), r.MtSpeedup(),
        r.identical ? "yes" : "NO", "", r.intermediate_hops,
        r.hop_sides_built, r.hop_sides_reused, r.join_pairs_scored);
    all_identical &= r.identical;
  }

  std::FILE* f = std::fopen("BENCH_expand.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[microops] cannot write BENCH_expand.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"expand\",\n");
  bench::WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ExpandRun& r = runs[i];
    std::fprintf(f,
                 "    {\"benchmark\": \"%s\", \"sources\": %zu, "
                 "\"candidates\": %zu, \"tables\": %zu, "
                 "\"baseline_ms\": %.3f, \"optimized_ms\": %.3f, "
                 "\"optimized_pooled_ms\": %.3f, \"speedup\": %.2f, "
                 "\"pooled_speedup\": %.2f, \"intermediate_hops\": %zu, "
                 "\"hop_sides_built\": %zu, \"hop_sides_reused\": %zu, "
                 "\"join_pairs_scored\": %zu, \"identical\": %s}%s\n",
                 r.benchmark.c_str(), r.sources, r.candidates, r.tables,
                 r.baseline_ms, r.engine_ms, r.engine_mt_ms, r.Speedup(),
                 r.MtSpeedup(), r.intermediate_hops, r.hop_sides_built,
                 r.hop_sides_reused, r.join_pairs_scored,
                 r.identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_expand.json\n");
  return all_identical ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Discovery section: FindCandidates vs the reference discovery.
// ---------------------------------------------------------------------------

// Candidate discovery per source of a TP-TR lake, timed against
// tests/discovery_reference.h (the previous implementation, kept
// verbatim) with the candidate lists compared field by field. Both
// run serially over one shared catalog; each source keeps its best of
// `reps` runs.
struct DiscoveryRun {
  std::string benchmark;
  size_t sources = 0;
  size_t candidates = 0;
  double baseline_ms = 0;
  double optimized_ms = 0;
  bool identical = true;
};

DiscoveryRun RunDiscoveryBench(const std::string& label,
                               const Result<TpTrBenchmark>& bench,
                               size_t max_sources, size_t reps) {
  DiscoveryRun run;
  run.benchmark = label;
  if (!bench.ok()) {
    std::fprintf(stderr, "[microops] %s: benchmark build failed: %s\n",
                 label.c_str(), bench.status().ToString().c_str());
    run.identical = false;
    return run;
  }
  ColumnStatsCatalog catalog(*bench->lake);
  const DiscoveryConfig config;
  Discovery discovery(catalog, config);
  const size_t limit = std::min(max_sources, bench->sources.size());
  for (size_t i = 0; i < limit; ++i) {
    const Table& source = bench->sources[i].source;
    double best_base = 0.0, best_opt = 0.0;
    for (size_t rep = 0; rep < std::max<size_t>(1, reps); ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto want = ref::RefFindCandidates(catalog, config, source);
      const double base = SecondsSince(t0) * 1e3;
      t0 = std::chrono::steady_clock::now();
      auto got = discovery.FindCandidates(source);
      const double opt = SecondsSince(t0) * 1e3;
      if (rep == 0 || base < best_base) best_base = base;
      if (rep == 0 || opt < best_opt) best_opt = opt;
      std::string why;
      if (!want.ok() || !got.ok() || !ref::SameCandidates(*want, *got, &why)) {
        std::fprintf(stderr, "[microops] %s source %zu: %s\n", label.c_str(),
                     i, want.ok() && got.ok() ? why.c_str() : "failed");
        run.identical = false;
      }
      if (rep == 0 && got.ok()) run.candidates += got->size();
    }
    run.baseline_ms += best_base;
    run.optimized_ms += best_opt;
    ++run.sources;
  }
  return run;
}

int RunDiscoverySection() {
  const size_t max_sources = EnvSizeOr("GENT_MICRO_SOURCES", 4);
  const size_t reps = EnvSizeOr("GENT_MICRO_REPS", 3);

  std::printf("\n=== candidate discovery (FindCandidates vs reference) ===\n");
  std::vector<DiscoveryRun> runs;
  auto small = MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
  runs.push_back(RunDiscoveryBench("TP-TR Small", small, SIZE_MAX, reps));
  Result<TpTrBenchmark> noisy =
      small.ok() ? EmbedInNoiseLake(*small, 400, 29)
                 : Result<TpTrBenchmark>(small.status());
  runs.push_back(
      RunDiscoveryBench("TP-TR Small noise", noisy, SIZE_MAX, reps));
  runs.push_back(RunDiscoveryBench(
      "TP-TR Med", MakeTpTrBenchmark("TP-TR Med", TpTrMedConfig()),
      max_sources, reps));
  bool all_identical = true;
  for (const auto& r : runs) {
    std::printf(
        "%-17s sources %2zu  cands %4zu  optimized %9.2f ms  baseline "
        "%9.2f ms  identical %s\n",
        r.benchmark.c_str(), r.sources, r.candidates, r.optimized_ms,
        r.baseline_ms, r.identical ? "yes" : "NO");
    all_identical &= r.identical;
  }

  std::FILE* f = std::fopen("BENCH_discovery.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[microops] cannot write BENCH_discovery.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"discovery\",\n");
  bench::WriteCpuMetadataJson(f);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const DiscoveryRun& r = runs[i];
    std::fprintf(f,
                 "    {\"benchmark\": \"%s\", \"sources\": %zu, "
                 "\"candidates\": %zu, \"baseline_ms\": %.3f, "
                 "\"optimized_ms\": %.3f, \"identical\": %s}%s\n",
                 r.benchmark.c_str(), r.sources, r.candidates, r.baseline_ms,
                 r.optimized_ms, r.identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_discovery.json\n");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace gent

#ifdef GENT_HAVE_GBENCH

namespace gent {
namespace {

void BM_OuterUnion(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table a = MakeTable(dict, "a", state.range(0), 8, 0.2, 1);
  Table b = MakeTable(dict, "b", state.range(0), 8, 0.2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OuterUnion(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_OuterUnion)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Subsumption(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table t = MakeTable(dict, "t", state.range(0), 8, 0.4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Subsumption(t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Subsumption)->Arg(100)->Arg(1000);

void BM_Complementation(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table t = MakeTable(dict, "t", state.range(0), 8, 0.4, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Complementation(t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Complementation)->Arg(100)->Arg(1000);

void BM_NaturalJoin(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table a = MakeTable(dict, "a", state.range(0), 6, 0.0, 5);
  Table b = MakeTable(dict, "b", state.range(0), 6, 0.0, 6);
  (void)b.RenameColumn(1, "b1");
  (void)b.RenameColumn(2, "b2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaturalJoin(a, b, JoinKind::kInner));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NaturalJoin)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MatrixInitialize(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table source = MakeTable(dict, "s", state.range(0), 8, 0.0, 7);
  (void)source.SetKeyColumns({0});
  Table cand = MakeTable(dict, "c", state.range(0), 8, 0.3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InitializeMatrix(source, cand));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MatrixInitialize)->Arg(100)->Arg(1000);

void BM_MatrixCombine(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table source = MakeTable(dict, "s", state.range(0), 8, 0.0, 7);
  (void)source.SetKeyColumns({0});
  AlignmentMatrix a =
      *InitializeMatrix(source, MakeTable(dict, "a", state.range(0), 8, 0.3, 7));
  AlignmentMatrix b =
      *InitializeMatrix(source, MakeTable(dict, "b", state.range(0), 8, 0.4, 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CombineMatrices(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MatrixCombine)->Arg(100)->Arg(1000);

void BM_MatrixEvaluate(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table source = MakeTable(dict, "s", state.range(0), 8, 0.0, 7);
  (void)source.SetKeyColumns({0});
  AlignmentMatrix m =
      *InitializeMatrix(source, MakeTable(dict, "c", state.range(0), 8, 0.3, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateMatrixSimilarity(m, source));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MatrixEvaluate)->Arg(100)->Arg(1000);

void BM_EisScore(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table source = MakeTable(dict, "s", state.range(0), 8, 0.0, 8);
  (void)source.SetKeyColumns({0});
  Table reclaimed = MakeTable(dict, "r", state.range(0), 8, 0.2, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EisScore(source, reclaimed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EisScore)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TpchGenerate(benchmark::State& state) {
  for (auto _ : state) {
    auto dict = MakeDictionary();
    TpchConfig cfg;
    cfg.scale = static_cast<double>(state.range(0));
    benchmark::DoNotOptimize(GenerateTpch(dict, cfg));
  }
}
BENCHMARK(BM_TpchGenerate)->Arg(1)->Arg(4);

void BM_KeyMine(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table t = MakeTable(dict, "t", state.range(0), 8, 0.1, 9);
  KeyMiner miner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.Mine(t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KeyMine)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ComplementationClosure(benchmark::State& state) {
  auto dict = MakeDictionary();
  // Two complementary halves so the closure has real merging to do.
  Table a = MakeTable(dict, "a", state.range(0), 8, 0.0, 10);
  Table left = *Project(a, {"c0", "c1", "c2", "c3"});
  Table right = *Project(a, {"c0", "c4", "c5", "c6", "c7"});
  Table unioned = OuterUnion(left, right);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComplementationClosure(unioned));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComplementationClosure)->Arg(64)->Arg(256);

void BM_IncompleteSimilarityExact(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table s = MakeTable(dict, "s", state.range(0), 6, 0.1, 11);
  Table t = MakeTable(dict, "t", state.range(0), 6, 0.3, 12);
  IncompleteSimilarityOptions options;
  options.algorithm = MatchAlgorithm::kExact;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IncompleteInstanceSimilarity(s, t, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncompleteSimilarityExact)->Arg(16)->Arg(64);

void BM_IncompleteSimilarityGreedy(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table s = MakeTable(dict, "s", state.range(0), 6, 0.1, 11);
  Table t = MakeTable(dict, "t", state.range(0), 6, 0.3, 12);
  IncompleteSimilarityOptions options;
  options.algorithm = MatchAlgorithm::kGreedy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IncompleteInstanceSimilarity(s, t, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncompleteSimilarityGreedy)->Arg(64)->Arg(256);

void BM_FuzzySimilarity(benchmark::State& state) {
  Rng rng(13);
  std::vector<std::string> strings;
  for (int i = 0; i < 256; ++i) strings.push_back(rng.AlphaNum(12));
  size_t i = 0;
  for (auto _ : state) {
    const std::string& a = strings[i % strings.size()];
    const std::string& b = strings[(i + 1) % strings.size()];
    benchmark::DoNotOptimize(FuzzySimilarity(a, b));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FuzzySimilarity);

void BM_FuzzyValueMapApply(benchmark::State& state) {
  auto dict = MakeDictionary();
  Table source = MakeTable(dict, "s", state.range(0), 6, 0.0, 14);
  Table lake = MakeTable(dict, "l", state.range(0), 6, 0.1, 15);
  FuzzyValueMap map = FuzzyValueMap::Build(source);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Apply(lake));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 6);
}
BENCHMARK(BM_FuzzyValueMapApply)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace gent

#endif  // GENT_HAVE_GBENCH

int main(int argc, char** argv) {
  gent::SimdSection simd_section = gent::RunSimdSection();
  int rc = gent::RunMatrixSection(simd_section);
  rc |= gent::RunExpandSection();
  rc |= gent::RunDiscoverySection();
#ifdef GENT_HAVE_GBENCH
  bool run_gbench = std::getenv("GENT_RUN_GBENCH") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) run_gbench = true;
  }
  if (run_gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
#else
  (void)argc;
  (void)argv;
#endif
  return rc;
}
