#include "src/lake/inverted_index.h"

#include <unordered_set>

namespace gent {

std::unordered_set<ValueId> DistinctColumnValues(const Table& t, size_t c) {
  const ValueDictionary& dict = *t.dict();
  std::unordered_set<ValueId> vals;
  vals.reserve(t.num_rows());
  for (ValueId v : t.column(c)) {
    if (v != kNull && !dict.IsLabeledNull(v)) vals.insert(v);
  }
  return vals;
}

size_t SetIntersectionSize(const std::unordered_set<ValueId>& a,
                           const std::unordered_set<ValueId>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& big = a.size() <= b.size() ? b : a;
  size_t n = 0;
  for (ValueId v : small) n += big.count(v);
  return n;
}

}  // namespace gent
