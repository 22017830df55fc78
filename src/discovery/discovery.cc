#include "src/discovery/discovery.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/matrix/alignment_matrix.h"
#include "src/ops/join.h"

namespace gent {

namespace {

struct MatchPair {
  size_t table;     // lake index
  size_t cand_col;  // column in the lake table
  size_t src_col;   // column in the source
  double overlap;   // |cand ∩ src| / |src|
};

// A candidate's rows aligned to the source by its mapped key columns
// `cols`: (candidate row, first source row with that key), ascending.
// Empty `cols` when the candidate does not map the whole key.
struct KeyAlignment {
  std::vector<size_t> cols;
  std::vector<std::pair<uint32_t, uint32_t>> rows;
};

// The rows of `t` whose tuple over `key_cols` is null-free and keys some
// source row, each paired with the first such source row.
std::vector<std::pair<uint32_t, uint32_t>> AlignByKey(
    const Table& t, const std::vector<size_t>& key_cols,
    const JoinKeyTable& source_keys) {
  std::vector<std::pair<uint32_t, uint32_t>> align;
  std::vector<ValueId> key(key_cols.size());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool null_key = false;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      key[k] = t.cell(r, key_cols[k]);
      null_key |= key[k] == kNull;
    }
    if (null_key) continue;
    auto [rows, count] = source_keys.Find(key.data());
    if (count > 0) align.emplace_back(static_cast<uint32_t>(r), rows[0]);
  }
  return align;
}

}  // namespace

std::vector<std::pair<size_t, double>> DiversifyCandidateColumns(
    std::vector<DiversifyInput> ranked) {
  std::vector<std::pair<size_t, double>> scored;
  scored.reserve(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    double score = ranked[i].source_overlap;
    if (i > 0 && !ranked[i].values.empty()) {
      // Penalize overlap with the previous (higher-ranked) candidate:
      // diverseOverlapScore = |T∩S|/|S| − |T∩T_prev|/|T|   (Eq. 10)
      size_t inter =
          SortedIntersectionSize(ranked[i].values, ranked[i - 1].values);
      score -= static_cast<double>(inter) /
               static_cast<double>(ranked[i].values.size());
    }
    scored.emplace_back(ranked[i].id, score);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return scored;
}

Result<std::vector<Candidate>> Discovery::FindCandidates(
    const Table& source) const {
  return FindCandidates(source, OpLimits());
}

Result<std::vector<Candidate>> Discovery::FindCandidates(
    const Table& source, const OpLimits& limits) const {
  if (!source.has_key()) {
    return Status::InvalidArgument("source table must declare a key");
  }
  GENT_RETURN_IF_ERROR(limits.Interrupted());
  const DataLake& lake = catalog_.lake();

  // --- Recall stage -------------------------------------------------------
  std::vector<size_t> topk = catalog_.TopKTables(source, config_.top_k);
  std::unordered_set<size_t> topk_set(topk.begin(), topk.end());
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // --- Per-column containment search (Algorithm 3 lines 4-8) --------------
  // Source columns as sorted distinct sets; lake-side stats come from the
  // shared catalog, so overlap is one postings merge per source column.
  std::vector<std::vector<ValueId>> src_values(source.num_cols());
  for (size_t c = 0; c < source.num_cols(); ++c) {
    src_values[c] = SortedDistinctValues(source, c);
  }

  std::vector<MatchPair> pairs;
  std::unordered_map<size_t, std::vector<MatchPair>> pairs_by_table;
  // Per source column: lake table -> its best-matching column.
  std::vector<std::map<size_t, MatchPair>> best_by_col(source.num_cols());
  for (size_t c = 0; c < source.num_cols(); ++c) {
    GENT_RETURN_IF_ERROR(limits.Interrupted());
    if (src_values[c].empty()) continue;
    for (const auto& [ref, count] : catalog_.OverlapCounts(src_values[c])) {
      if (topk_set.count(ref.table) == 0) continue;
      double overlap = static_cast<double>(count) /
                       static_cast<double>(src_values[c].size());
      if (overlap < config_.tau) continue;
      MatchPair p{ref.table, ref.column, c, overlap};
      pairs.push_back(p);
      pairs_by_table[ref.table].push_back(p);
      auto it = best_by_col[c].find(ref.table);
      if (it == best_by_col[c].end() || overlap > it->second.overlap) {
        best_by_col[c][ref.table] = p;
      }
    }
  }

  // --- Diversified per-table scores (Algorithm 4) --------------------------
  std::unordered_map<size_t, double> table_score_sum;
  std::unordered_map<size_t, size_t> table_score_cnt;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    if (best_by_col[c].empty()) continue;
    std::vector<MatchPair> ranked;
    for (const auto& [t, p] : best_by_col[c]) ranked.push_back(p);
    std::sort(ranked.begin(), ranked.end(),
              [](const MatchPair& a, const MatchPair& b) {
                if (a.overlap != b.overlap) return a.overlap > b.overlap;
                return a.table < b.table;
              });
    if (config_.diversify) {
      // The catalog's immutable sorted sets back the diversification
      // directly — no per-query copies.
      std::vector<DiversifyInput> input;
      input.reserve(ranked.size());
      for (const auto& p : ranked) {
        input.push_back(DiversifyInput{
            p.table, p.overlap,
            catalog_.SortedValues(
                ColumnRef{static_cast<uint32_t>(p.table),
                          static_cast<uint32_t>(p.cand_col)})});
      }
      for (const auto& [tbl, score] : DiversifyCandidateColumns(input)) {
        table_score_sum[tbl] += score;
        table_score_cnt[tbl] += 1;
      }
    } else {
      for (const auto& p : ranked) {
        table_score_sum[p.table] += p.overlap;
        table_score_cnt[p.table] += 1;
      }
    }
  }

  // --- Column assignment per table (implicit schema matching) -------------
  // Greedy by descending overlap; each candidate column and each source
  // column used at most once per table.
  std::sort(pairs.begin(), pairs.end(),
            [](const MatchPair& a, const MatchPair& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              if (a.table != b.table) return a.table < b.table;
              if (a.src_col != b.src_col) return a.src_col < b.src_col;
              return a.cand_col < b.cand_col;
            });
  struct Assignment {
    // src_col -> cand_col
    std::map<size_t, size_t> cols;
  };
  std::unordered_map<size_t, Assignment> assignments;
  {
    std::unordered_set<uint64_t> used;  // (table, cand_col) and (table, src)
    auto mark = [&used](size_t table, size_t col, bool src) {
      return used
          .insert((static_cast<uint64_t>(table) << 33) |
                  (static_cast<uint64_t>(src) << 32) | col)
          .second;
    };
    for (const auto& p : pairs) {
      // Try to claim both slots; roll back is unnecessary because a failed
      // claim means the slot is taken by a better (earlier) pair.
      uint64_t ckey = (static_cast<uint64_t>(p.table) << 33) | p.cand_col;
      uint64_t skey = (static_cast<uint64_t>(p.table) << 33) |
                      (1ULL << 32) | p.src_col;
      if (used.count(ckey) || used.count(skey)) continue;
      mark(p.table, p.cand_col, false);
      mark(p.table, p.src_col, true);
      assignments[p.table].cols[p.src_col] = p.cand_col;
    }
  }

  // --- Build, verify, and rename candidates -------------------------------
  // One key table over the source key, built once, aligns every
  // candidate's rows (DESIGN.md §3.2).
  const JoinKeyTable source_keys = SourceKeyTable(source);
  std::vector<Candidate> candidates;
  // Per candidate: the key alignment its refinement computed, which the
  // covers-key check below reuses.
  std::vector<KeyAlignment> key_aligns;
  for (auto& [tbl, assign] : assignments) {
    // Per-candidate checkpoint: verification scans whole lake tables,
    // so this loop dominates discovery's cost on large lakes.
    GENT_RETURN_IF_ERROR(limits.Interrupted());
    const Table& lake_table = lake.table(tbl);
    if (!config_.exclude_table.empty() &&
        lake_table.name() == config_.exclude_table) {
      continue;
    }

    // Within aligned tuples, every mapped column must keep overlap ≥ τ
    // (Algorithm 3 lines 11-14). That holds by construction, so no row
    // is read for it. The aligned tuples are the rows sharing at least
    // one mapped value with S, so they include every row whose cell in a
    // mapped column c is one of its source column's values. The source
    // values c holds within aligned tuples are therefore all the source
    // values c holds; their count is the catalog overlap that put the
    // pair in `pairs`, at least 1 and at least τ. Every mapping
    // verifies and some row aligns.
    std::map<size_t, size_t> verified = assign.cols;

    // --- Instance-based mapping refinement --------------------------------
    // When the candidate covers the source key, tuples can be aligned and
    // column mappings re-scored by actual value agreement on aligned
    // rows. This resolves ties that pure set containment cannot: columns
    // over near-identical domains (tax vs. discount, status flags, small
    // integer keys) otherwise get swapped or hijacked.
    KeyAlignment key_align;
    std::vector<size_t> key_cand_cols;
    for (size_t kc : source.key_columns()) {
      auto it = verified.find(kc);
      if (it == verified.end()) {
        key_cand_cols.clear();
        break;
      }
      key_cand_cols.push_back(it->second);
    }
    if (!key_cand_cols.empty()) {
      // Align candidate rows to source rows by key tuple.
      key_align.rows = AlignByKey(lake_table, key_cand_cols, source_keys);
      key_align.cols = key_cand_cols;
      const std::vector<std::pair<uint32_t, uint32_t>>& row_align =
          key_align.rows;
      if (row_align.size() >= 2) {
        struct Rescored {
          size_t src_col;
          size_t cand_col;
          double agreement;   // -1 = no comparable rows
          double containment;
        };
        // Each column pair's containment |Vcc ∩ Vsc| / |Vsc| is the
        // catalog overlap the containment search already computed; a pair
        // it did not keep has overlap below τ, or none at all (0).
        const size_t width = lake_table.num_cols();
        std::vector<double> containment_of(source.num_cols() * width, 0.0);
        for (const MatchPair& p : pairs_by_table[tbl]) {
          containment_of[p.src_col * width + p.cand_col] = p.overlap;
        }
        std::vector<Rescored> rescored;
        for (size_t sc = 0; sc < source.num_cols(); ++sc) {
          if (source.IsKeyColumn(sc) || src_values[sc].empty()) continue;
          for (size_t cc = 0; cc < width; ++cc) {
            const double containment = containment_of[sc * width + cc];
            if (containment < config_.tau) continue;
            const ValueId* ccol = lake_table.column(cc).data();
            const ValueId* scol = source.column(sc).data();
            size_t both = 0, eq = 0;
            for (const auto& [cr, sr] : row_align) {
              ValueId cv = ccol[cr];
              ValueId sv = scol[sr];
              if (cv == kNull || sv == kNull) continue;
              ++both;
              eq += cv == sv;
            }
            double agreement =
                both == 0 ? -1.0
                          : static_cast<double>(eq) /
                                static_cast<double>(both);
            rescored.push_back(Rescored{sc, cc, agreement, containment});
          }
        }
        std::sort(rescored.begin(), rescored.end(),
                  [](const Rescored& a, const Rescored& b) {
                    if (a.agreement != b.agreement) {
                      return a.agreement > b.agreement;
                    }
                    if (a.containment != b.containment) {
                      return a.containment > b.containment;
                    }
                    if (a.src_col != b.src_col) return a.src_col < b.src_col;
                    return a.cand_col < b.cand_col;
                  });
        std::map<size_t, size_t> refined;
        std::unordered_set<size_t> used_src, used_cand;
        for (size_t k = 0; k < key_cand_cols.size(); ++k) {
          size_t kc = source.key_columns()[k];
          refined[kc] = key_cand_cols[k];
          used_src.insert(kc);
          used_cand.insert(key_cand_cols[k]);
        }
        for (const auto& rs : rescored) {
          if (used_src.count(rs.src_col) || used_cand.count(rs.cand_col)) {
            continue;
          }
          // Accept: demonstrated agreement, or no evidence either way
          // (all-null overlap) with healthy containment.
          if (rs.agreement >= 0.15 || rs.agreement < 0.0) {
            refined[rs.src_col] = rs.cand_col;
            used_src.insert(rs.src_col);
            used_cand.insert(rs.cand_col);
          }
        }
        verified = std::move(refined);
      }
    }

    // The table stays empty until the candidate survives subsumption,
    // which reads only the catalog; then it becomes a clone of the lake
    // table. The clone is row-identical to the lake table (only column
    // renames follow), so the shared catalog's stats remain exact for it.
    Candidate cand(Table(lake_table.name(), lake_table.dict()));
    cand.lake_index = tbl;
    cand.stats = &catalog_;
    for (const auto& [src_col, cand_col] : verified) {
      cand.mapping[source.column_name(src_col)] = cand_col;
    }
    double sum = table_score_sum[tbl];
    size_t cnt = table_score_cnt[tbl];
    cand.score = cnt == 0 ? 0.0 : sum / static_cast<double>(cnt);
    candidates.push_back(std::move(cand));
    key_aligns.push_back(std::move(key_align));
  }

  GENT_RETURN_IF_ERROR(limits.Interrupted());

  // --- Remove candidates subsumed by other candidates ---------------------
  // A is subsumed by B if *every* column of A has some column of B whose
  // value set contains it (Algorithm 3 line 15: "whose columns and column
  // values are subsumed"). Checking all columns — not just the mapped
  // ones — matters: with overlapping integer key domains, one table's
  // mapped columns are often numerically contained in another's even
  // though its remaining columns carry unique data.
  {
    // A candidate's columns are its lake table's (renames happen below),
    // so the catalog's sorted sets serve as the per-column value sets and
    // no candidate table is read. They are sorted and distinct, so
    // A ⊆ B exactly when |A ∩ B| = |A|, which SortedIntersectionSize's
    // SIMD merge or gallop counts faster than a scalar std::includes walk.
    auto col_values = [&](const Candidate& cand, size_t c) -> ValueSpan {
      return catalog_.SortedValues(
          ColumnRef{static_cast<uint32_t>(cand.lake_index),
                    static_cast<uint32_t>(c)});
    };
    std::vector<bool> drop(candidates.size(), false);
    auto contained_in = [&](size_t a, size_t b) {
      const Candidate& ca = candidates[a];
      const Candidate& cb = candidates[b];
      for (size_t ac = 0; ac < lake.table(ca.lake_index).num_cols(); ++ac) {
        const ValueSpan vals_a = col_values(ca, ac);
        if (vals_a.empty()) continue;
        bool covered = false;
        for (size_t bc = 0; bc < lake.table(cb.lake_index).num_cols(); ++bc) {
          const ValueSpan vals_b = col_values(cb, bc);
          if (vals_b.size() < vals_a.size()) continue;
          // B contains A only if B's range brackets A's: an exact screen.
          if (vals_b.front() > vals_a.front() ||
              vals_b.back() < vals_a.back()) {
            continue;
          }
          if (SortedIntersectionSize(vals_a, vals_b) == vals_a.size()) {
            covered = true;
            break;
          }
        }
        if (!covered) return false;
      }
      return true;
    };
    for (size_t a = 0; a < candidates.size(); ++a) {
      for (size_t b = 0; b < candidates.size() && !drop[a]; ++b) {
        if (a == b || drop[b]) continue;
        if (!contained_in(a, b)) continue;
        // Mutual containment = duplicates: keep the lower lake index.
        if (contained_in(b, a) &&
            candidates[a].lake_index < candidates[b].lake_index) {
          continue;
        }
        drop[a] = true;
      }
    }
    std::vector<Candidate> kept;
    std::vector<KeyAlignment> kept_aligns;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (drop[i]) continue;
      kept.push_back(std::move(candidates[i]));
      kept.back().table = lake.table(kept.back().lake_index).Clone();
      kept_aligns.push_back(std::move(key_aligns[i]));
    }
    candidates = std::move(kept);
    key_aligns = std::move(kept_aligns);
  }

  // --- Rename mapped columns to source names -------------------------------
  std::set<std::string> source_names(source.column_names().begin(),
                                     source.column_names().end());
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    Candidate& cand = candidates[ci];
    // First move unmapped columns out of the way of source names.
    std::unordered_set<size_t> mapped_cols;
    for (const auto& [name, col] : cand.mapping) mapped_cols.insert(col);
    for (size_t c = 0; c < cand.table.num_cols(); ++c) {
      if (mapped_cols.count(c) > 0) continue;
      if (source_names.count(cand.table.column_name(c)) > 0) {
        std::string fresh = cand.table.column_name(c) + "#raw";
        while (cand.table.HasColumn(fresh)) fresh += "'";
        (void)cand.table.RenameColumn(c, fresh);
      }
    }
    // Two-phase rename of mapped columns: a mapped column's current name
    // may itself be another mapping's target (e.g. a column literally
    // named s_nationkey mapped to c_nationkey while another column is
    // mapped to s_nationkey), so move all of them out of the way first.
    size_t tmp_id = 0;
    for (const auto& [src_name, col] : cand.mapping) {
      (void)src_name;
      std::string tmp = "#tmp" + std::to_string(tmp_id++);
      while (cand.table.HasColumn(tmp)) tmp += "'";
      Status s = cand.table.RenameColumn(col, tmp);
      if (!s.ok()) return s;
    }
    for (const auto& [src_name, col] : cand.mapping) {
      Status s = cand.table.RenameColumn(col, src_name);
      if (!s.ok()) return s;
    }
    // Key coverage: every source key column mapped AND the mapped key
    // columns actually align a non-trivial number of source key tuples.
    // Mapping alone is not enough — with overlapping integer domains a
    // table's own keys often contain the source's key *values* without a
    // single composite key *tuple* matching.
    cand.covers_key = true;
    std::vector<size_t> key_cols;
    for (size_t kc : source.key_columns()) {
      auto it = cand.mapping.find(source.column_name(kc));
      if (it == cand.mapping.end()) {
        cand.covers_key = false;
      } else {
        key_cols.push_back(it->second);
      }
    }
    if (!cand.covers_key) {
      // Partially mapped key columns are always bogus (a real originating
      // table maps the whole key or none of it): strip them so they
      // cannot masquerade as key columns during expansion.
      for (size_t kc : source.key_columns()) {
        const std::string& key_name = source.column_name(kc);
        auto it = cand.mapping.find(key_name);
        if (it == cand.mapping.end()) continue;
        std::string neutral = "#unmapped_" + key_name;
        while (cand.table.HasColumn(neutral)) neutral += "'";
        (void)cand.table.RenameColumn(it->second, neutral);
        cand.mapping.erase(it);
      }
    }
    if (cand.covers_key) {
      // Non-key mapped columns: (source column, candidate column) pairs.
      std::vector<std::pair<size_t, size_t>> nonkey_map;
      for (const auto& [src_name, cc] : cand.mapping) {
        size_t sc = *source.ColumnIndex(src_name);
        if (!source.IsKeyColumn(sc)) nonkey_map.emplace_back(sc, cc);
      }
      // The refinement aligned the same rows (the clone is
      // row-identical) by these key columns whenever it mapped the key,
      // so its alignment is reused.
      std::vector<std::pair<uint32_t, uint32_t>> fresh;
      const std::vector<std::pair<uint32_t, uint32_t>>* align =
          &key_aligns[ci].rows;
      if (key_aligns[ci].cols != key_cols) {
        fresh = AlignByKey(cand.table, key_cols, source_keys);
        align = &fresh;
      }
      const size_t aligned = align->size();
      size_t value_match = 0, value_mismatch = 0;
      for (const auto& [r, s_row] : *align) {
        for (const auto& [sc, cc] : nonkey_map) {
          ValueId sv = source.cell(s_row, sc);
          ValueId cv = cand.table.cell(r, cc);
          if (sv == kNull || cv == kNull) continue;
          (sv == cv ? value_match : value_mismatch) += 1;
        }
      }
      size_t needed = std::max<size_t>(
          2, static_cast<size_t>(0.05 * static_cast<double>(
                                            source.num_rows())));
      // Degenerate sources (a single row) can never align 2 tuples;
      // require at most every source tuple.
      needed = std::min(needed, source.num_rows());
      cand.covers_key = aligned >= needed;
      // Coincidental alignment check: genuine aligned tuples agree on a
      // healthy share of their non-null mapped values, while rows aligned
      // by numeric key coincidence agree on almost none.
      if (cand.covers_key && value_match + value_mismatch > 0) {
        double agree = static_cast<double>(value_match) /
                       static_cast<double>(value_match + value_mismatch);
        if (agree < 0.15) cand.covers_key = false;
      }
      if (!cand.covers_key) {
        // The key mappings are bogus (values overlapped, tuples do not).
        // Strip them so the renamed columns cannot masquerade as key
        // columns downstream; Expand() will re-establish key coverage
        // through value-based joins instead.
        for (size_t kc : source.key_columns()) {
          const std::string& key_name = source.column_name(kc);
          auto it = cand.mapping.find(key_name);
          if (it == cand.mapping.end()) continue;
          std::string neutral = "#unmapped_" + key_name;
          while (cand.table.HasColumn(neutral)) neutral += "'";
          (void)cand.table.RenameColumn(it->second, neutral);
          cand.mapping.erase(it);
        }
      }
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.lake_index < b.lake_index;
            });
  return candidates;
}

}  // namespace gent
