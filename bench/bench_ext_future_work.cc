// Extension bench: the paper's §VII future-work directions, measured.
//
// Part A (cleaning): Gen-T alone vs Gen-T followed by FuseAlignedTuples
// and by the full CleanReclaimed pipeline on TP-TR Small. Expected
// shape: cleaning never hurts recall, raises precision (split/aligned
// duplicate tuples are fused away), and leaves D_KL no worse — the
// source-null guard keeps imputation from fabricating values.
//
// Part B (fuzzy alignment): lake values are corrupted with single-
// character typos at increasing rates; Gen-T runs on the raw corrupted
// lake and on the same lake rewritten through FuzzyValueMap. Expected
// shape: raw recall collapses as the corruption rate grows; fuzzy
// alignment recovers most of it at low-to-moderate rates.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cleaning/cleaning.h"
#include "src/metrics/incomplete_similarity.h"
#include "src/semantic/value_map.h"
#include "src/util/random.h"

using namespace gent;
using namespace gent::bench;

namespace {

// Corrupts each non-null cell of each lake table with probability
// `rate`: one character is replaced, yielding a near-miss spelling.
std::unique_ptr<DataLake> CorruptLake(const DataLake& lake, double rate,
                                      uint64_t seed) {
  auto corrupted = std::make_unique<DataLake>(lake.dict());
  Rng rng(seed);
  for (const Table& table : lake.tables()) {
    Table copy = table.Clone();
    for (size_t c = 0; c < copy.num_cols(); ++c) {
      for (ValueId& v : copy.mutable_column(c)) {
        if (v == kNull || !rng.Bernoulli(rate)) continue;
        std::string s(lake.dict()->StringOf(v));
        if (s.size() < 2) continue;
        const size_t pos = rng.Index(s.size());
        s[pos] = s[pos] == 'x' ? 'y' : 'x';
        v = lake.dict()->Intern(s);
      }
    }
    (void)corrupted->AddTable(std::move(copy));
  }
  return corrupted;
}

}  // namespace

int main() {
  const size_t max_sources = EnvSize("GENT_SOURCES", 12);
  const double timeout = EnvDouble("GENT_TIMEOUT_S", 10);
  auto bench = BuildSmall();
  if (!bench.ok()) {
    std::fprintf(stderr, "bench build failed\n");
    return 1;
  }

  // --- Part A: post-reclamation cleaning ---------------------------------
  GenT gent(*bench->lake);
  auto run_cleaning_variant = [&](const std::string& name, bool fuse,
                                  bool impute) {
    return RunMethod(
        name, *bench, max_sources,
        [&](const SourceSpec& spec, size_t) -> Result<Table> {
          OpLimits limits = OpLimits::WithTimeout(timeout);
          limits.MaxRows(2000000);
          GENT_ASSIGN_OR_RETURN(auto result,
                                gent.Reclaim(spec.source, limits));
          if (!fuse) return std::move(result.reclaimed);
          CleaningOptions options;
          if (!impute) {
            return FuseAlignedTuples(result.reclaimed, spec.source, options);
          }
          return CleanReclaimed(result.reclaimed, spec.source,
                                result.originating, options);
        });
  };
  std::vector<MethodRow> cleaning_rows;
  cleaning_rows.push_back(
      run_cleaning_variant("Gen-T", false, false));
  cleaning_rows.push_back(
      run_cleaning_variant("Gen-T + fuse", true, false));
  cleaning_rows.push_back(
      run_cleaning_variant("Gen-T + fuse + impute", true, true));
  PrintMethodTable("Future work A: cleaning on TP-TR Small", cleaning_rows);

  // --- Part B: fuzzy value alignment under corruption ---------------------
  std::printf("\n=== Future work B: fuzzy alignment vs lake corruption "
              "(TP-TR Small) ===\n");
  std::printf("%-10s %12s %12s %14s %14s\n", "corrupt%", "raw Rec",
              "raw Pre", "aligned Rec", "aligned Pre");
  for (double rate : {0.1, 0.3, 0.5}) {
    auto corrupted = CorruptLake(*bench->lake, rate, 1234);
    GenT raw(*corrupted);
    MethodRow raw_row = RunMethod(
        "raw", *bench, max_sources,
        [&](const SourceSpec& spec, size_t) -> Result<Table> {
          OpLimits limits = OpLimits::WithTimeout(timeout);
          limits.MaxRows(2000000);
          GENT_ASSIGN_OR_RETURN(auto result, raw.Reclaim(spec.source, limits));
          return std::move(result.reclaimed);
        });
    // Aligned: rewrite the corrupted lake against each source's values.
    // The value map is source-specific, so the lake (and Gen-T's index)
    // is rebuilt per source — acceptable at TP-TR Small scale.
    MethodRow aligned_row = RunMethod(
        "aligned", *bench, max_sources,
        [&](const SourceSpec& spec, size_t) -> Result<Table> {
          FuzzyValueMap map = FuzzyValueMap::Build(spec.source);
          DataLake aligned_lake(corrupted->dict());
          for (const Table& t : corrupted->tables()) {
            GENT_RETURN_IF_ERROR(aligned_lake.AddTable(map.Apply(t)));
          }
          GenT aligned(aligned_lake);
          OpLimits limits = OpLimits::WithTimeout(timeout);
          limits.MaxRows(2000000);
          GENT_ASSIGN_OR_RETURN(auto result,
                                aligned.Reclaim(spec.source, limits));
          return std::move(result.reclaimed);
        });
    std::printf("%-10.0f %12.3f %12.3f %14.3f %14.3f\n", rate * 100,
                raw_row.recall, raw_row.precision, aligned_row.recall,
                aligned_row.precision);
  }
  // --- Part C: keyless similarity vs keyed EIS ----------------------------
  // The §VII keyless instance comparison should track the keyed EIS on
  // real reclamations: both near 1 on perfect reclamations, both degraded
  // on partial ones, greedy within its 1/2 bound of exact.
  std::printf("\n=== Future work C: keyless instance comparison vs keyed "
              "EIS (TP-TR Small) ===\n");
  std::printf("%-8s %10s %14s %14s\n", "source", "keyed EIS", "keyless exact",
              "keyless greedy");
  size_t shown = 0;
  for (const SourceSpec& spec : bench->sources) {
    if (shown >= std::min<size_t>(max_sources, 8)) break;
    OpLimits limits = OpLimits::WithTimeout(timeout);
    limits.MaxRows(2000000);
    auto result = gent.Reclaim(spec.source, limits);
    if (!result.ok()) continue;
    const double eis =
        EisScore(spec.source, result->reclaimed).value_or(0.0);
    IncompleteSimilarityOptions exact_opts, greedy_opts;
    exact_opts.algorithm = MatchAlgorithm::kExact;
    greedy_opts.algorithm = MatchAlgorithm::kGreedy;
    auto exact =
        IncompleteInstanceSimilarity(spec.source, result->reclaimed,
                                     exact_opts);
    auto greedy =
        IncompleteInstanceSimilarity(spec.source, result->reclaimed,
                                     greedy_opts);
    if (!exact.ok() || !greedy.ok()) continue;
    std::printf("S%-7zu %10.3f %14.3f %14.3f\n", shown, eis,
                exact->similarity, greedy->similarity);
    ++shown;
  }

  std::printf("\nShape check: cleaning precision ≥ plain Gen-T; aligned "
              "recall ≥ raw recall at every corruption rate; keyless "
              "scores track keyed EIS with greedy ≥ exact/2.\n");
  return 0;
}
