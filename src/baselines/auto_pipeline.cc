#include "src/baselines/auto_pipeline.h"

#include <algorithm>
#include <unordered_set>

#include "src/integration/integrator.h"
#include "src/lake/inverted_index.h"
#include "src/metrics/similarity.h"
#include "src/ops/join.h"
#include "src/ops/unary.h"
#include "src/ops/union.h"

namespace gent {

namespace {

struct SearchState {
  Table table;
  std::vector<bool> used;  // which inputs this pipeline consumed
  double score = 0.0;

  SearchState(Table t, size_t n) : table(std::move(t)), used(n, false) {}
};

// By-target score: EIS once the key is covered; before that, the fraction
// of distinct source values present (guides the search toward joins that
// eventually reach key coverage).
double ScoreState(const Table& source, const Table& t,
                  const std::unordered_set<ValueId>& source_values) {
  bool covers = true;
  for (size_t kc : source.key_columns()) {
    covers &= t.HasColumn(source.column_name(kc));
  }
  if (covers) {
    auto eis = EisScore(source, t);
    if (eis.ok()) return *eis;
  }
  if (source_values.empty()) return 0.0;
  size_t hit = 0;
  std::unordered_set<ValueId> seen;
  for (size_t c = 0; c < t.num_cols(); ++c) {
    for (ValueId v : t.column(c)) {
      if (v != kNull && source_values.count(v) > 0 && seen.insert(v).second) {
        ++hit;
      }
    }
  }
  return 0.25 * static_cast<double>(hit) /
         static_cast<double>(source_values.size());
}

}  // namespace

Result<Table> AutoPipelineBaseline::Run(const Table& source,
                                        const std::vector<Table>& inputs,
                                        const OpLimits& limits) const {
  auto empty_result = [&]() -> Result<Table> {
    Table empty("reclaimed", source.dict());
    for (const auto& name : source.column_names()) {
      GENT_RETURN_IF_ERROR(empty.AddColumn(name));
    }
    return empty;
  };
  if (inputs.empty()) return empty_result();

  std::unordered_set<ValueId> source_values;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    for (ValueId v : source.column(c)) {
      if (v != kNull) source_values.insert(v);
    }
  }

  // Seed beam: one state per input table.
  std::vector<SearchState> beam;
  for (size_t i = 0; i < inputs.size(); ++i) {
    SearchState s(inputs[i].Clone(), inputs.size());
    s.used[i] = true;
    s.score = ScoreState(source, s.table, source_values);
    beam.push_back(std::move(s));
  }
  auto by_score = [](const SearchState& a, const SearchState& b) {
    return a.score > b.score;
  };
  std::sort(beam.begin(), beam.end(), by_score);
  if (beam.size() > config_.beam_width) {
    beam.erase(beam.begin() + static_cast<ptrdiff_t>(config_.beam_width),
               beam.end());
  }

  SearchState best = beam.front();

  for (size_t step = 0; step < config_.max_steps; ++step) {
    GENT_RETURN_IF_ERROR(limits.Check(best.table.num_rows()));
    std::vector<SearchState> next;
    for (const auto& state : beam) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (state.used[i]) continue;
        // Candidate extensions: union and the three join flavors.
        std::vector<Result<Table>> extensions;
        extensions.push_back(OuterUnion(state.table, inputs[i]));
        extensions.push_back(
            NaturalJoin(state.table, inputs[i], JoinKind::kInner, limits));
        extensions.push_back(
            NaturalJoin(state.table, inputs[i], JoinKind::kLeft, limits));
        extensions.push_back(
            NaturalJoin(state.table, inputs[i], JoinKind::kFullOuter, limits));
        for (auto& ext : extensions) {
          if (!ext.ok()) {
            if (ext.status().code() == StatusCode::kTimeout) {
              return ext.status();  // global time budget exhausted
            }
            continue;  // row-budget blowup: prune this extension
          }
          SearchState s(std::move(ext).value(), inputs.size());
          s.used = state.used;
          s.used[i] = true;
          s.score = ScoreState(source, s.table, source_values);
          next.push_back(std::move(s));
        }
      }
    }
    if (next.empty()) break;
    std::sort(next.begin(), next.end(), by_score);
    if (next.size() > config_.beam_width) {
      next.erase(next.begin() + static_cast<ptrdiff_t>(config_.beam_width),
                 next.end());
    }
    if (next.front().score <= best.score &&
        next.front().score <= beam.front().score) {
      break;  // converged: no extension improves the target score
    }
    beam = std::move(next);
    if (beam.front().score > best.score) best = beam.front();
  }

  // Shape the winning pipeline's output onto the source schema (the
  // synthesized pipeline ends with a projection in Auto-Pipeline too).
  auto shaped = ProjectSelectOntoSource(source, best.table);
  Table out = shaped.ok() ? std::move(shaped).value() : best.table.Clone();
  for (const auto& name : source.column_names()) {
    if (!out.HasColumn(name)) {
      GENT_RETURN_IF_ERROR(out.AddColumn(name));
    }
  }
  GENT_ASSIGN_OR_RETURN(Table result, Project(out, source.column_names()));
  result = Distinct(result);
  result.set_name("reclaimed");
  return result;
}

}  // namespace gent
