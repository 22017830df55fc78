#include "src/baselines/alite.h"

#include <functional>
#include <numeric>
#include <unordered_set>

#include "src/integration/integrator.h"
#include "src/lake/inverted_index.h"
#include "src/ops/full_disjunction.h"
#include "src/ops/unary.h"

namespace gent {

namespace {

// ALITE performs holistic schema matching before full disjunction: columns
// across the input tables that hold the same values are clustered and get a
// shared name, so complementation can stitch tuples across tables (e.g. a
// customer's nation id meets the nation table's key). This re-implementation
// clusters by value containment (union-find over column pairs with
// containment >= 0.5 on the smaller side).
std::vector<Table> AlignColumnsByValues(const std::vector<Table>& inputs) {
  struct Col {
    size_t table;
    size_t col;
    std::unordered_set<ValueId> values;
  };
  std::vector<Col> cols;
  for (size_t t = 0; t < inputs.size(); ++t) {
    for (size_t c = 0; c < inputs[t].num_cols(); ++c) {
      cols.push_back(Col{t, c, DistinctColumnValues(inputs[t], c)});
    }
  }
  std::vector<size_t> parent(cols.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].values.empty()) continue;
    for (size_t j = i + 1; j < cols.size(); ++j) {
      if (cols[i].table == cols[j].table || cols[j].values.empty()) continue;
      size_t inter = SetIntersectionSize(cols[i].values, cols[j].values);
      double cont =
          static_cast<double>(inter) /
          static_cast<double>(std::min(cols[i].values.size(),
                                       cols[j].values.size()));
      if (cont >= 0.5) parent[find(i)] = find(j);
    }
  }
  // Canonical name per cluster: the root column's name.
  std::vector<Table> aligned;
  for (const auto& t : inputs) aligned.push_back(t.Clone());
  for (size_t i = 0; i < cols.size(); ++i) {
    size_t root = find(i);
    if (root == i) continue;
    const std::string canonical =
        inputs[cols[root].table].column_name(cols[root].col);
    Table& t = aligned[cols[i].table];
    if (t.column_name(cols[i].col) == canonical) continue;
    if (t.HasColumn(canonical)) continue;  // avoid intra-table collision
    (void)t.RenameColumn(cols[i].col, canonical);
  }
  return aligned;
}

// FD output → reclamation-shaped table: pad/select the source schema.
Result<Table> ShapeToSource(const Table& source, Table fd) {
  for (const auto& name : source.column_names()) {
    if (!fd.HasColumn(name)) {
      GENT_RETURN_IF_ERROR(fd.AddColumn(name));
    }
  }
  GENT_ASSIGN_OR_RETURN(Table shaped, Project(fd, source.column_names()));
  shaped.set_name("reclaimed");
  return shaped;
}

}  // namespace

Result<Table> AliteBaseline::Run(const Table& source,
                                 const std::vector<Table>& inputs,
                                 const OpLimits& limits) const {
  if (inputs.empty()) {
    Table empty("reclaimed", source.dict());
    for (const auto& name : source.column_names()) {
      GENT_RETURN_IF_ERROR(empty.AddColumn(name));
    }
    return empty;
  }
  GENT_ASSIGN_OR_RETURN(Table fd,
                        FullDisjunction(AlignColumnsByValues(inputs), limits));
  return ShapeToSource(source, std::move(fd));
}

Result<Table> AlitePsBaseline::Run(const Table& source,
                                   const std::vector<Table>& inputs,
                                   const OpLimits& limits) const {
  std::vector<Table> prepared;
  prepared.reserve(inputs.size());
  for (const auto& t : inputs) {
    auto ps = ProjectSelectOntoSource(source, t);
    // Tables not covering the key or sharing no columns are unusable for
    // key-aligned PS; fall back to a plain column projection.
    if (ps.ok()) {
      if (ps->num_rows() > 0) prepared.push_back(std::move(ps).value());
      continue;
    }
    std::vector<std::string> keep;
    for (const auto& name : source.column_names()) {
      if (t.HasColumn(name)) keep.push_back(name);
    }
    if (keep.empty()) continue;
    GENT_ASSIGN_OR_RETURN(Table projected, Project(t, keep));
    if (projected.num_rows() > 0) prepared.push_back(std::move(projected));
  }
  return AliteBaseline().Run(source, prepared, limits);
}

}  // namespace gent
