#include "src/semantic/value_map.h"

#include <algorithm>
#include <unordered_set>

namespace gent {

FuzzyValueMap FuzzyValueMap::Build(const Table& source,
                                   const ValueMapOptions& options) {
  FuzzyValueMap map(source.dict(), options);
  std::unordered_set<ValueId> seen;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    for (ValueId v : source.column(c)) {
      if (v == kNull || source.dict()->IsLabeledNull(v)) continue;
      if (!seen.insert(v).second) continue;
      const size_t idx = map.source_values_.size();
      map.source_values_.push_back(v);
      map.canonical_.push_back(CanonicalizeValue(source.dict()->StringOf(v)));
      for (const std::string& gram : Trigrams(map.canonical_.back())) {
        map.trigram_index_[gram].push_back(idx);
      }
      map.canonical_index_.emplace(map.canonical_.back(), idx);
    }
  }
  // Source values map to themselves, by definition.
  for (ValueId v : map.source_values_) map.memo_.emplace(v, v);
  return map;
}

ValueId FuzzyValueMap::Resolve(ValueId value, bool* ambiguous) const {
  *ambiguous = false;
  const std::string_view raw = dict_->StringOf(value);
  const std::string canonical = CanonicalizeValue(raw);
  if (canonical.empty()) return value;

  // Exact canonical hit short-circuits scoring. If two source values share
  // the canonical form, the first indexed one wins deterministically (they
  // are equally good targets).
  auto exact = canonical_index_.find(canonical);
  if (exact != canonical_index_.end()) return source_values_[exact->second];

  // Candidate generation by shared canonical trigrams.
  std::unordered_map<size_t, size_t> shared;  // source idx -> #shared grams
  for (const std::string& gram : Trigrams(canonical)) {
    auto it = trigram_index_.find(gram);
    if (it == trigram_index_.end()) continue;
    for (size_t idx : it->second) ++shared[idx];
  }

  double best = 0.0, second = 0.0;
  size_t best_idx = SIZE_MAX;
  for (const auto& [idx, count] : shared) {
    if (count < options_.min_shared_trigrams) continue;
    // Compare canonical forms directly; FuzzySimilarity would
    // re-canonicalize, so pass pre-canonicalized strings with the flag off.
    FuzzyOptions fuzzy = options_.fuzzy;
    fuzzy.canonicalize = false;
    const double score = FuzzySimilarity(canonical, canonical_[idx], fuzzy);
    if (score > best) {
      second = best;
      best = score;
      best_idx = idx;
    } else if (score > second) {
      second = score;
    }
  }
  if (best_idx == SIZE_MAX || best + 1e-12 < options_.min_similarity) {
    return value;
  }
  if (best - second + 1e-12 < options_.min_margin) {
    *ambiguous = true;
    return value;
  }
  return source_values_[best_idx];
}

ValueId FuzzyValueMap::MapValue(ValueId lake_value) const {
  if (lake_value == kNull || dict_->IsLabeledNull(lake_value)) {
    return lake_value;
  }
  auto it = memo_.find(lake_value);
  if (it != memo_.end()) return it->second;
  bool ambiguous = false;
  const ValueId mapped = Resolve(lake_value, &ambiguous);
  if (ambiguous) ++ambiguous_skipped_;
  memo_.emplace(lake_value, mapped);
  return mapped;
}

Table FuzzyValueMap::Apply(const Table& table, ValueMapStats* stats) const {
  const size_t ambiguous_before = ambiguous_skipped_;
  std::unordered_set<ValueId> rewritten_values;
  Table result = table.Clone();
  for (size_t c = 0; c < result.num_cols(); ++c) {
    std::vector<ValueId>& col = result.mutable_column(c);
    for (ValueId& v : col) {
      const ValueId mapped = MapValue(v);
      if (mapped != v) {
        if (stats != nullptr) {
          ++stats->cells_rewritten;
          rewritten_values.insert(v);
        }
        v = mapped;
      }
    }
  }
  if (stats != nullptr) {
    stats->distinct_values_rewritten += rewritten_values.size();
    stats->ambiguous_values_skipped += ambiguous_skipped_ - ambiguous_before;
  }
  return result;
}

std::vector<Table> FuzzyValueMap::ApplyAll(const std::vector<Table>& tables,
                                           ValueMapStats* stats) const {
  std::vector<Table> result;
  result.reserve(tables.size());
  for (const Table& t : tables) result.push_back(Apply(t, stats));
  return result;
}

}  // namespace gent
