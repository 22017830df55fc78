#include "src/matrix/traversal.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "src/engine/thread_pool.h"

namespace gent {

namespace {

// Below this many (source rows × candidates) a pool costs more than the
// scan; stay serial.
constexpr size_t kParallelWorkFloor = 2048;

// Scratch alternative list for folding matrix rows (Eq. 5) without
// materializing a combined matrix: seed with one matrix's row, absorb
// others, score the result. Entries start as borrowed views into the
// source matrices and are copied into owned scratch only when a merge
// actually rewrites them (most alternatives either pass through
// untouched or conflict and stay separate, so the common path never
// copies a plane). Reused across rows/candidates to avoid allocation
// churn.
class RowFold {
 public:
  void Reset(size_t words) {
    words_ = words;
    entries_.clear();
    scratch_used_ = 0;
  }

  // Appends views of m's alternatives for src_row (no merging — used to
  // seed the fold with an already-combined row list).
  void Seed(const AlignmentMatrix& m, size_t src_row) {
    for (size_t k = 0; k < m.num_alternatives(src_row); ++k) {
      PlanesView v = m.alternative(src_row, k);
      entries_.push_back(Entry{v.pos, v.neg, kBorrowed});
    }
  }

  // Absorbs m's alternatives for src_row: each merges into the first
  // non-contradicting resident alternative or is appended — exactly the
  // CombineMatrices row procedure.
  void Absorb(const AlignmentMatrix& m, size_t src_row) {
    for (size_t k = 0; k < m.num_alternatives(src_row); ++k) {
      PlanesView v = m.alternative(src_row, k);
      bool absorbed = false;
      for (size_t j = 0; j < entries_.size(); ++j) {
        const uint64_t* pos = PosOf(entries_[j]);
        const uint64_t* neg = pos + words_;
        uint64_t conflict = 0;
        for (size_t w = 0; w < words_; ++w) {
          conflict |= (pos[w] & v.neg[w]) | (neg[w] & v.pos[w]);
        }
        if (conflict != 0) continue;
        uint64_t* own = Own(&entries_[j]);
        for (size_t w = 0; w < words_; ++w) {
          own[w] = pos[w] | v.pos[w];
          own[words_ + w] = neg[w] & v.neg[w];
        }
        absorbed = true;
        break;
      }
      if (!absorbed) entries_.push_back(Entry{v.pos, v.neg, kBorrowed});
    }
  }

  double Best(const RowScorer& scorer) const {
    double best = 0.0;
    for (const Entry& e : entries_) {
      const uint64_t* pos = PosOf(e);
      double s = scorer.AltScore(pos, pos + words_);
      if (s > best) best = s;
    }
    return best;
  }

 private:
  static constexpr uint32_t kBorrowed = UINT32_MAX;

  // pos/neg are valid only while off == kBorrowed; owned entries resolve
  // through the scratch offset (stable across scratch growth).
  struct Entry {
    const uint64_t* pos;
    const uint64_t* neg;
    uint32_t off;
  };

  const uint64_t* PosOf(const Entry& e) const {
    return e.off == kBorrowed ? e.pos : scratch_.data() + e.off;
  }

  // Ensures the entry has owned scratch storage and returns it. The
  // caller rewrites the full 2·words_ span, so no copy is needed here.
  uint64_t* Own(Entry* e) {
    if (e->off == kBorrowed) {
      if (scratch_.size() < scratch_used_ + 2 * words_) {
        scratch_.resize(std::max(scratch_used_ + 2 * words_,
                                 2 * scratch_.size()));
      }
      e->off = static_cast<uint32_t>(scratch_used_);
      scratch_used_ += 2 * words_;
    }
    return scratch_.data() + e->off;
  }

  std::vector<Entry> entries_;
  std::vector<uint64_t> scratch_;
  size_t scratch_used_ = 0;
  size_t words_ = 0;
};

// Support of a matrix: which source rows carry alternatives, as a sorted
// row list plus a bitmask for overlap tests.
struct Support {
  std::vector<uint32_t> rows;
  std::vector<uint64_t> mask;

  void Build(const AlignmentMatrix& m, size_t num_source_rows) {
    mask.assign((num_source_rows + 63) / 64, 0);
    for (size_t r = 0; r < num_source_rows; ++r) {
      if (m.num_alternatives(r) > 0) {
        rows.push_back(static_cast<uint32_t>(r));
        mask[r >> 6] |= uint64_t{1} << (r & 63);
      }
    }
  }

  bool Overlaps(const Support& other) const {
    for (size_t w = 0; w < mask.size(); ++w) {
      if (mask[w] & other.mask[w]) return true;
    }
    return false;
  }
};

}  // namespace

Result<TraversalResult> MatrixTraversal(const Table& source,
                                        const std::vector<Table>& tables,
                                        const TraversalOptions& options,
                                        const OpLimits& limits) {
  TraversalResult result;
  if (tables.empty()) return result;
  if (!source.has_key()) {
    return Status::InvalidArgument("source has no key");
  }
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  const size_t num_tables = tables.size();
  const size_t num_rows = source.num_rows();
  const double rows_d = static_cast<double>(num_rows);

  size_t threads = ThreadPool::ResolveThreads(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && num_tables > 1 &&
      num_rows * num_tables >= kParallelWorkFloor) {
    pool = std::make_unique<ThreadPool>(threads);
  }

  // MatrixInitialization (line 4), fanned out; one key table serves all.
  const JoinKeyTable source_keys = SourceKeyTable(source);
  std::vector<Result<AlignmentMatrix>> inits;
  inits.reserve(num_tables);
  for (size_t i = 0; i < num_tables; ++i) {
    inits.emplace_back(Status::Internal("not initialized"));
  }
  ParallelFor(pool.get(), num_tables, [&](size_t i) {
    inits[i] = InitializeMatrix(source, tables[i], options.matrix,
                                source_keys);
  });
  std::vector<AlignmentMatrix> matrices;
  matrices.reserve(num_tables);
  for (size_t i = 0; i < num_tables; ++i) {
    if (!inits[i].ok()) return inits[i].status();
    matrices.push_back(std::move(inits[i]).value());
  }
  inits.clear();
  GENT_RETURN_IF_ERROR(limits.Interrupted());

  RowScorer scorer(source);
  const size_t words = (source.num_cols() + 63) / 64;

  std::vector<Support> supports(num_tables);
  for (size_t i = 0; i < num_tables; ++i) {
    supports[i].Build(matrices[i], num_rows);
  }

  // GetStartTable (lines 5-6): highest individual similarity. Rows
  // outside a matrix's support contribute an exact 0.0, so summing the
  // support rows in ascending order reproduces the full row-major sum.
  std::vector<double> scores(num_tables, 0.0);
  ParallelFor(pool.get(), num_tables, [&](size_t i) {
    double total = 0.0;
    for (uint32_t r : supports[i].rows) {
      total += scorer.BestOfRow(matrices[i], r);
    }
    scores[i] = num_rows == 0 ? 0.0 : total / rows_d;
  });
  size_t start = 0;
  double best_start = -1.0;
  for (size_t i = 0; i < num_tables; ++i) {
    if (scores[i] > best_start) {
      best_start = scores[i];
      start = i;
    }
  }
  result.selected.push_back(start);
  double most_correct = best_start;

  std::vector<bool> in_set(num_tables, false);
  in_set[start] = true;
  AlignmentMatrix combined = matrices[start];

  // Per-source-row best contribution of the combined matrix — the cache
  // that makes candidate scoring incremental.
  std::vector<double> row_best(num_rows, 0.0);
  for (uint32_t r : supports[start].rows) {
    row_best[r] = scorer.BestOfRow(combined, r);
  }

  // Cached fold of each candidate against the current combined matrix:
  // best per support row. Valid until a merge touches the candidate's
  // support.
  struct CandidateEval {
    std::vector<double> merged_best;  // parallel to supports[i].rows
    bool valid = false;
  };
  std::vector<CandidateEval> evals(num_tables);

  // Greedy extension (lines 8-20). One interruption checkpoint per
  // round: each round is a full candidate re-score, the natural unit of
  // discarded work.
  while (result.selected.size() < num_tables) {
    GENT_RETURN_IF_ERROR(limits.Interrupted());
    double prev_correct = most_correct;

    ParallelFor(pool.get(), num_tables, [&](size_t i) {
      if (in_set[i]) return;
      CandidateEval& eval = evals[i];
      const Support& supp = supports[i];
      if (!eval.valid) {
        eval.merged_best.resize(supp.rows.size());
        RowFold fold;
        for (size_t s = 0; s < supp.rows.size(); ++s) {
          const uint32_t r = supp.rows[s];
          // A row at exactly 1.0 is saturated: Eq. 5 merges only add
          // pos bits (α at its max) and clear neg bits (δ at 0), so no
          // candidate can change it — skip the fold.
          if (row_best[r] == 1.0) {
            eval.merged_best[s] = 1.0;
            continue;
          }
          fold.Reset(words);
          fold.Seed(combined, r);
          fold.Absorb(matrices[i], r);
          eval.merged_best[s] = fold.Best(scorer);
        }
        eval.valid = true;
      }
      // Row-major sum with the candidate's support rows substituted —
      // identical addition order to evaluating the merged matrix.
      double total = 0.0;
      size_t s = 0;
      for (size_t r = 0; r < num_rows; ++r) {
        if (s < supp.rows.size() && supp.rows[s] == r) {
          total += eval.merged_best[s];
          ++s;
        } else {
          total += row_best[r];
        }
      }
      scores[i] = num_rows == 0 ? 0.0 : total / rows_d;
    });

    // Deterministic argmax: reduce in candidate-index order, ties break
    // low (exactly the serial scan's strict `>` update).
    size_t next_table = SIZE_MAX;
    for (size_t i = 0; i < num_tables; ++i) {
      if (in_set[i]) continue;
      if (scores[i] > most_correct) {
        most_correct = scores[i];
        next_table = i;
      }
    }
    if (most_correct <= prev_correct || next_table == SIZE_MAX) {
      break;  // integration found no more of S's values (lines 18-19)
    }
    in_set[next_table] = true;
    result.selected.push_back(next_table);
    for (uint32_t r : supports[next_table].rows) {
      // Saturated rows (best exactly 1.0) can never change again, and
      // nothing reads their alternative lists once every eval of them
      // short-circuits — skip the merge.
      if (row_best[r] == 1.0) continue;
      combined.AbsorbRowFrom(matrices[next_table], r);
      row_best[r] = scorer.BestOfRow(combined, r);
    }
    // Only candidates whose support overlaps the merged rows saw their
    // fold change; everyone else keeps the cache.
    for (size_t i = 0; i < num_tables; ++i) {
      if (!in_set[i] && supports[i].Overlaps(supports[next_table])) {
        evals[i].valid = false;
      }
    }
  }

  // Backward pruning: a table picked early can become redundant once
  // later picks cover its values (typical for a half-erroneous variant
  // chosen before both clean halves arrived). Drop any table whose
  // removal does not lower the combined score -- fewer originating tables
  // means less noise for integration to fight. Each drop is scored by
  // re-folding rows through the incremental scorer; no combined matrix
  // is ever rebuilt.
  if (options.prune_redundant && result.selected.size() > 1) {
    std::vector<double> drop_scores;
    std::vector<double> full_best(num_rows, 0.0);
    bool pruned = true;
    while (pruned && result.selected.size() > 1) {
      GENT_RETURN_IF_ERROR(limits.Interrupted());
      pruned = false;
      const size_t num_sel = result.selected.size();
      // Every fold must mirror the left-deep CombineMatrices chain the
      // serial rebuild would run: seed with the first remaining matrix's
      // row verbatim (even when empty — a later matrix's alternatives
      // then self-merge as they are absorbed), absorb the rest in
      // selection order. Dropping a matrix with no alternatives at a row
      // is a no-op for that row's chain, so each drop > 0 only re-folds
      // its own support rows and reuses the full-chain fold elsewhere;
      // drop 0 changes the seed and re-folds everything.
      {
        RowFold fold;
        for (size_t r = 0; r < num_rows; ++r) {
          fold.Reset(words);
          fold.Seed(matrices[result.selected[0]], r);
          for (size_t k = 1; k < num_sel; ++k) {
            const AlignmentMatrix& m = matrices[result.selected[k]];
            if (m.num_alternatives(r) > 0) fold.Absorb(m, r);
          }
          full_best[r] = fold.Best(scorer);
        }
      }
      drop_scores.assign(num_sel, 0.0);
      ParallelFor(pool.get(), num_sel, [&](size_t drop) {
        const size_t k_first = drop == 0 ? 1 : 0;
        RowFold fold;
        auto fold_row = [&](size_t r) {
          fold.Reset(words);
          fold.Seed(matrices[result.selected[k_first]], r);
          for (size_t k = k_first + 1; k < num_sel; ++k) {
            if (k == drop) continue;
            const AlignmentMatrix& m = matrices[result.selected[k]];
            if (m.num_alternatives(r) > 0) fold.Absorb(m, r);
          }
          return fold.Best(scorer);
        };
        double total = 0.0;
        if (drop == 0) {
          for (size_t r = 0; r < num_rows; ++r) total += fold_row(r);
        } else {
          const Support& supp = supports[result.selected[drop]];
          size_t s = 0;
          for (size_t r = 0; r < num_rows; ++r) {
            if (s < supp.rows.size() && supp.rows[s] == r) {
              total += fold_row(r);
              ++s;
            } else {
              total += full_best[r];
            }
          }
        }
        drop_scores[drop] = num_rows == 0 ? 0.0 : total / rows_d;
      });
      // Same order as the serial sweep: last selected first, erase the
      // first redundant drop found, then restart the sweep.
      for (size_t drop = num_sel; drop-- > 0;) {
        if (drop_scores[drop] >= most_correct - 1e-12) {
          result.selected.erase(result.selected.begin() +
                                static_cast<ptrdiff_t>(drop));
          pruned = true;
          break;
        }
      }
    }
  }
  result.final_score = most_correct;
  return result;
}

}  // namespace gent
