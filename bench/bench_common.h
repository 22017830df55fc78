// Shared harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (see DESIGN.md §4). The harness runs a method — Gen-T or a
// baseline — over every source table of a benchmark and aggregates the
// paper's metrics: Recall, Precision, Instance Divergence, D_KL, perfect
// reclamations, runtime, and output-size ratio.
//
// Environment knobs (all optional; defaults keep every bench minutes-fast):
//   GENT_SOURCES     max sources per benchmark (default: all 26)
//   GENT_TIMEOUT_S   per-source operator budget, seconds (default 20)
//   GENT_SCALE_LARGE TP-TR Large scale factor (default 32; paper-shape 64+)
//   GENT_NOISE       distractor tables for SANTOS embedding (default 400)
//   GENT_WDC         WDC sample size (default 3000)

#ifndef GENT_BENCH_BENCH_COMMON_H_
#define GENT_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/baseline.h"
#include "src/benchgen/benchmarks.h"
#include "src/gent/bulk.h"
#include "src/gent/gent.h"
#include "src/metrics/divergence.h"
#include "src/metrics/precision_recall.h"
#include "src/metrics/similarity.h"
#include "src/util/cpu_features.h"
#include "src/util/simd.h"

namespace gent::bench {

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

/// Stamps the host CPU feature set and the SIMD dispatch level the run
/// used into `f` as one `"cpu": {...},` line (caller places it right
/// after the opening brace). Numbers measured at different dispatch
/// levels are not comparable, so every BENCH_*.json records which
/// kernel set produced it (bench/README.md).
inline void WriteCpuMetadataJson(std::FILE* f) {
  const CpuFeatures& cpu = DetectCpuFeatures();
  std::fprintf(f,
               "  \"cpu\": {\"popcnt\": %s, \"avx2\": %s, \"bmi2\": %s, "
               "\"dispatch\": \"%s\", \"force_scalar\": %s},\n",
               cpu.popcnt ? "true" : "false", cpu.avx2 ? "true" : "false",
               cpu.bmi2 ? "true" : "false",
               DispatchLevelName(simd::ActiveDispatchLevel()),
               ForceScalarRequested() ? "true" : "false");
}

inline double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Aggregated metrics of one method over one benchmark (a row of the
/// paper's Tables II-IV).
struct MethodRow {
  std::string method;
  double recall = 0;
  double precision = 0;
  double inst_div = 0;
  double dkl = 0;
  size_t perfect = 0;
  size_t evaluated = 0;
  size_t timeouts = 0;
  double avg_seconds = 0;
  double size_ratio = 0;  // avg |output cells| / |source cells|
};

struct PerSource {
  double recall = 0, precision = 0, f1 = 0;
  bool perfect = false, timeout = false;
  double seconds = 0;
  QueryClass query_class = QueryClass::kProjectSelectUnion;
};

/// Folds one source outcome into `row` (and `per_source`): a timeout if
/// `reclaimed` is null, the full metric set otherwise. `secs` is the
/// per-source runtime (0 when a failed source's runtime is unknown, e.g.
/// batch workers report no timings for failures).
inline void AccumulateSource(MethodRow* row, const SourceSpec& spec,
                             const Table* reclaimed, double secs,
                             std::vector<PerSource>* per_source) {
  PerSource ps;
  ps.seconds = secs;
  ps.query_class = spec.query_class;
  if (reclaimed == nullptr) {
    ++row->timeouts;
    ps.timeout = true;
    if (per_source != nullptr) per_source->push_back(ps);
    return;
  }
  auto pr = ComputePrecisionRecall(spec.source, *reclaimed);
  row->recall += pr.recall;
  row->precision += pr.precision;
  row->inst_div += InstanceDivergence(spec.source, *reclaimed).value_or(1.0);
  row->dkl +=
      ConditionalKlDivergence(spec.source, *reclaimed).value_or(1000.0);
  row->perfect += IsPerfectReclamation(spec.source, *reclaimed);
  row->avg_seconds += secs;
  row->size_ratio += spec.source.num_cells() == 0
                         ? 0
                         : static_cast<double>(reclaimed->num_cells()) /
                               static_cast<double>(spec.source.num_cells());
  ++row->evaluated;
  ps.recall = pr.recall;
  ps.precision = pr.precision;
  ps.f1 = pr.F1();
  ps.perfect = IsPerfectReclamation(spec.source, *reclaimed);
  if (per_source != nullptr) per_source->push_back(ps);
}

/// Turns the accumulated sums of `row` into averages.
inline void FinalizeRow(MethodRow* row) {
  if (row->evaluated == 0) return;
  double n = static_cast<double>(row->evaluated);
  row->recall /= n;
  row->precision /= n;
  row->inst_div /= n;
  row->dkl /= n;
  row->avg_seconds /= n;
  row->size_ratio /= n;
}

/// Runs one reclamation method over the benchmark's sources.
/// `reclaim(spec, index)` returns the reclaimed table or an error
/// (Timeout/OutOfRange counts as a timeout, like the paper's baselines).
template <typename Fn>
MethodRow RunMethod(const std::string& name, const TpTrBenchmark& bench,
                    size_t max_sources, Fn&& reclaim,
                    std::vector<PerSource>* per_source = nullptr) {
  MethodRow row;
  row.method = name;
  size_t limit = std::min(max_sources, bench.sources.size());
  for (size_t i = 0; i < limit; ++i) {
    const SourceSpec& spec = bench.sources[i];
    auto t0 = std::chrono::steady_clock::now();
    Result<Table> reclaimed = reclaim(spec, i);
    AccumulateSource(&row, spec, reclaimed.ok() ? &*reclaimed : nullptr,
                     Seconds(t0), per_source);
  }
  FinalizeRow(&row);
  return row;
}

/// Candidate tables from Set Similarity for a source — what the paper
/// feeds every baseline ("given the same set of candidate tables").
/// `exclude_self` removes the lake table named like the source from its
/// own candidacy (leave-one-out protocols).
inline std::vector<Table> CandidateTables(const GenT& gent,
                                          const Table& source,
                                          bool exclude_self = false) {
  DiscoveryConfig config = gent.config().discovery;
  if (exclude_self) config.exclude_table = source.name();
  Discovery discovery(gent.catalog(), config);
  auto candidates = discovery.FindCandidates(source);
  std::vector<Table> tables;
  if (!candidates.ok()) return tables;
  for (auto& c : *candidates) tables.push_back(std::move(c.table));
  return tables;
}

// (Bit-identity of reclaimed tables is TablesBitIdentical from
// src/table/table.h — the batch determinism contract.)

/// The "w/ int. set" inputs: the 4 variants of every original table the
/// source's query touched, straight from the lake.
inline std::vector<Table> IntegratingSet(const TpTrBenchmark& bench,
                                         size_t source_idx) {
  std::vector<Table> tables;
  for (const auto& name : bench.integrating_sets[source_idx]) {
    auto idx = bench.lake->IndexOf(name);
    if (idx.ok()) tables.push_back(bench.lake->table(*idx).Clone());
  }
  return tables;
}

/// Gen-T over a benchmark with a per-source operator budget.
inline MethodRow RunGenT(const TpTrBenchmark& bench, size_t max_sources,
                         double timeout_s,
                         std::vector<PerSource>* per_source = nullptr,
                         GenTConfig config = {}) {
  GenT gent(*bench.lake, config);
  return RunMethod(
      "Gen-T", bench, max_sources,
      [&](const SourceSpec& spec, size_t) -> Result<Table> {
        OpLimits limits = OpLimits::WithTimeout(timeout_s);
        limits.MaxRows(2000000);
        GENT_ASSIGN_OR_RETURN(auto result, gent.Reclaim(spec.source, limits));
        return std::move(result.reclaimed);
      },
      per_source);
}

/// Gen-T over a benchmark through the batch engine (BulkReclaim): one
/// shared ColumnStatsCatalog, `threads` workers, per-source budgets
/// applied inside each worker. Metrics match RunGenT (results are
/// bit-identical to the serial path); per-source seconds are the summed
/// phase timings (wall clock inside the worker, excluding queueing).
inline MethodRow RunGenTBatch(const TpTrBenchmark& bench, size_t max_sources,
                              double timeout_s, size_t threads,
                              std::vector<PerSource>* per_source = nullptr,
                              GenTConfig config = {}) {
  size_t limit = std::min(max_sources, bench.sources.size());
  std::vector<Table> sources;
  sources.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    sources.push_back(bench.sources[i].source.Clone());
  }
  BulkOptions options;
  options.threads = threads;
  options.timeout_seconds = timeout_s;
  options.max_rows = 2000000;
  options.cache_capacity = 0;  // every source is distinct
  auto results = BulkReclaim(*bench.lake, sources, config, options);

  MethodRow row;
  row.method = "Gen-T (batch x" + std::to_string(threads) + ")";
  for (size_t i = 0; i < results.size(); ++i) {
    const SourceSpec& spec = bench.sources[i];
    if (!results[i].ok()) {
      // Failed sources carry no timings out of the worker.
      AccumulateSource(&row, spec, nullptr, 0.0, per_source);
      continue;
    }
    const ReclamationResult& rr = *results[i];
    double secs = rr.discovery_seconds + rr.traversal_seconds +
                  rr.integration_seconds;
    AccumulateSource(&row, spec, &rr.reclaimed, secs, per_source);
  }
  FinalizeRow(&row);
  return row;
}

/// A baseline over a benchmark, fed either candidates or the int. set.
inline MethodRow RunBaseline(const Baseline& baseline,
                             const TpTrBenchmark& bench, size_t max_sources,
                             double timeout_s, bool use_integrating_set,
                             std::vector<PerSource>* per_source = nullptr) {
  GenT gent(*bench.lake);  // for discovery/index only
  std::string name = baseline.name();
  if (use_integrating_set) name += " w/ int. set";
  return RunMethod(
      name, bench, max_sources,
      [&](const SourceSpec& spec, size_t i) -> Result<Table> {
        std::vector<Table> inputs =
            use_integrating_set ? IntegratingSet(bench, i)
                                : CandidateTables(gent, spec.source);
        OpLimits limits = OpLimits::WithTimeout(timeout_s);
        limits.MaxRows(2000000);
        return baseline.Run(spec.source, inputs, limits);
      },
      per_source);
}

/// Prints rows in the paper's Table II/III layout.
inline void PrintMethodTable(const std::string& title,
                             const std::vector<MethodRow>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-24s %7s %7s %9s %9s %9s %9s %10s %8s\n", "Method", "Rec",
              "Pre", "Inst-Div", "D_KL", "Perfect", "Timeout", "AvgSec",
              "SizeX");
  for (const auto& r : rows) {
    std::printf("%-24s %7.3f %7.3f %9.3f %9.3f %6zu/%-2zu %9zu %10.2f %8.2f\n",
                r.method.c_str(), r.recall, r.precision, r.inst_div, r.dkl,
                r.perfect, r.evaluated + r.timeouts, r.timeouts,
                r.avg_seconds, r.size_ratio);
  }
}

/// Canonical benchmark builders with env-tuned sizes.
inline Result<TpTrBenchmark> BuildSmall() {
  return MakeTpTrBenchmark("TP-TR Small", TpTrSmallConfig());
}
inline Result<TpTrBenchmark> BuildMed() {
  return MakeTpTrBenchmark("TP-TR Med", TpTrMedConfig());
}
inline Result<TpTrBenchmark> BuildLarge() {
  TpTrConfig cfg = TpTrLargeConfig();
  cfg.scale = EnvDouble("GENT_SCALE_LARGE", 32.0);
  return MakeTpTrBenchmark("TP-TR Large", cfg);
}

}  // namespace gent::bench

#endif  // GENT_BENCH_BENCH_COMMON_H_
