#include "src/matrix/alignment_matrix.h"

#include <algorithm>
#include <cstring>

namespace gent {

size_t AlignmentMatrix::TotalAlternatives() const {
  size_t n = 0;
  for (const auto& alts : rows_) n += alts.size();
  return n;
}

TruthRow AlignmentMatrix::Unpack(size_t src_row, size_t k) const {
  PlanesView v = alternative(src_row, k);
  TruthRow row(num_cols_);
  for (size_t c = 0; c < num_cols_; ++c) row[c] = v.truth(c);
  return row;
}

std::pair<uint64_t*, uint64_t*> AlignmentMatrix::AppendZeroed(size_t src_row) {
  uint32_t slot = static_cast<uint32_t>(arena_.size() / (2 * words_));
  arena_.resize(arena_.size() + 2 * words_, 0);
  rows_[src_row].push_back(slot);
  uint64_t* base = arena_.data() + static_cast<size_t>(slot) * 2 * words_;
  return {base, base + words_};
}

void AlignmentMatrix::Add(size_t src_row, const TruthRow& row) {
  auto [pos, neg] = AppendZeroed(src_row);
  for (size_t c = 0; c < row.size(); ++c) {
    uint64_t bit = uint64_t{1} << (c & 63);
    if (row[c] > 0) pos[c >> 6] |= bit;
    if (row[c] < 0) neg[c >> 6] |= bit;
  }
}

void AlignmentMatrix::AbsorbRowFrom(const AlignmentMatrix& other,
                                    size_t src_row) {
  const size_t words = words_;
  for (size_t k = 0; k < other.num_alternatives(src_row); ++k) {
    PlanesView rb = other.alternative(src_row, k);
    bool absorbed = false;
    for (size_t j = 0; j < rows_[src_row].size(); ++j) {
      auto [pos, neg] = mutable_alternative(src_row, j);
      if (simd::PlanesConflict(pos, neg, rb.pos, rb.neg, words)) continue;
      simd::MergePlanes(pos, neg, rb.pos, rb.neg, pos, neg, words);
      absorbed = true;
      break;
    }
    if (!absorbed) {
      auto [pos, neg] = AppendZeroed(src_row);
      std::memcpy(pos, rb.pos, words * sizeof(uint64_t));
      std::memcpy(neg, rb.neg, words * sizeof(uint64_t));
    }
  }
}

JoinKeyTable SourceKeyTable(const Table& source) {
  std::vector<const ValueId*> key_cols;
  for (size_t kc : source.key_columns()) {
    key_cols.push_back(source.column(kc).data());
  }
  return JoinKeyTable(std::move(key_cols), source.num_rows());
}

Result<AlignmentMatrix> InitializeMatrix(const Table& source,
                                         const Table& candidate,
                                         const MatrixOptions& options) {
  if (!source.has_key()) {
    return Status::InvalidArgument("source has no key");
  }
  return InitializeMatrix(source, candidate, options, SourceKeyTable(source));
}

Result<AlignmentMatrix> InitializeMatrix(const Table& source,
                                         const Table& candidate,
                                         const MatrixOptions& options,
                                         const JoinKeyTable& source_keys) {
  if (!source.has_key()) {
    return Status::InvalidArgument("source has no key");
  }
  // Candidate column for each source column, or SIZE_MAX if absent.
  std::vector<size_t> cand_col(source.num_cols(), SIZE_MAX);
  for (size_t c = 0; c < source.num_cols(); ++c) {
    auto idx = candidate.ColumnIndex(source.column_name(c));
    if (idx.has_value()) cand_col[c] = *idx;
  }
  for (size_t kc : source.key_columns()) {
    if (cand_col[kc] == SIZE_MAX) {
      return Status::InvalidArgument(
          candidate.name() + " does not cover source key column " +
          source.column_name(kc) + "; run Expand() first");
    }
  }

  AlignmentMatrix m(source.num_rows(), source.num_cols());

  // Pair collection: one contiguous key-column scan with flat-table
  // probes. Pair i occupies arena slot i (appended in candidate-row
  // order, so per-row alternative order matches the row-major build).
  std::vector<uint32_t> pair_cand;  // candidate row of pair i (= slot i)
  std::vector<uint32_t> pair_src;   // source row of pair i
  auto add_pairs = [&](size_t r, const uint32_t* rows, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      m.rows_[rows[i]].push_back(static_cast<uint32_t>(pair_cand.size()));
      pair_cand.push_back(static_cast<uint32_t>(r));
      pair_src.push_back(rows[i]);
    }
  };
  if (source.key_columns().size() == 1) {
    const std::vector<ValueId>& keys =
        candidate.column(cand_col[source.key_columns()[0]]);
    for (size_t r = 0; r < keys.size(); ++r) {
      if (keys[r] == kNull) continue;  // cannot align on a null key
      auto [rows, count] = source_keys.FindOne(keys[r]);
      if (count != 0) add_pairs(r, rows, count);
    }
  } else {
    std::vector<const ValueId*> key_cols;
    for (size_t kc : source.key_columns()) {
      key_cols.push_back(candidate.column(cand_col[kc]).data());
    }
    std::vector<ValueId> tuple(key_cols.size());
    for (size_t r = 0; r < candidate.num_rows(); ++r) {
      bool null_key = false;
      for (size_t i = 0; i < key_cols.size(); ++i) {
        tuple[i] = key_cols[i][r];
        null_key |= tuple[i] == kNull;
      }
      if (null_key) continue;  // cannot align on a null key
      auto [rows, count] = source_keys.Find(tuple.data());
      if (count != 0) add_pairs(r, rows, count);
    }
  }

  // Plane fill: one pass per source column over contiguous column data
  // (a per-pair row-major fill strides across the whole candidate;
  // column-major keeps every access streaming or L1-resident).
  const size_t words = m.words_;
  const size_t num_pairs = pair_cand.size();
  m.arena_.assign(num_pairs * 2 * words, 0);
  const bool three = options.three_valued;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    const ValueId* scol = source.column(c).data();
    const ValueId* ccol = cand_col[c] == SIZE_MAX
                              ? nullptr
                              : candidate.column(cand_col[c]).data();
    const uint64_t bit = uint64_t{1} << (c & 63);
    const size_t word = c >> 6;
    uint64_t* arena = m.arena_.data();
    for (size_t i = 0; i < num_pairs; ++i) {
      ValueId sv = scol[pair_src[i]];
      ValueId cv = ccol == nullptr ? kNull : ccol[pair_cand[i]];
      uint64_t* base = arena + i * 2 * words;
      if (sv == cv) {
        base[word] |= bit;  // match; includes null == null
      } else if (sv != kNull && cv == kNull) {
        // nullified: neither plane
      } else if (three) {
        base[words + word] |= bit;  // erroneous
      }
    }
  }
  return m;
}

bool CombineRows(const uint64_t* a_pos, const uint64_t* a_neg,
                 const uint64_t* b_pos, const uint64_t* b_neg,
                 uint64_t* out_pos, uint64_t* out_neg, size_t words) {
  if (simd::PlanesConflict(a_pos, a_neg, b_pos, b_neg, words)) return false;
  // Cellwise max over {−1, 0, +1}: +1 wins over anything non-conflicting
  // (pos OR), −1 survives only where both sides say −1 (neg AND).
  simd::MergePlanes(a_pos, a_neg, b_pos, b_neg, out_pos, out_neg, words);
  return true;
}

bool CombineRows(const TruthRow& a, const TruthRow& b, TruthRow* merged) {
  const size_t words = (a.size() + 63) / 64;
  std::vector<uint64_t> planes(4 * words, 0);
  uint64_t* a_pos = planes.data();
  uint64_t* a_neg = a_pos + words;
  uint64_t* b_pos = a_neg + words;
  uint64_t* b_neg = b_pos + words;
  for (size_t c = 0; c < a.size(); ++c) {
    uint64_t bit = uint64_t{1} << (c & 63);
    if (a[c] > 0) a_pos[c >> 6] |= bit;
    if (a[c] < 0) a_neg[c >> 6] |= bit;
    if (b[c] > 0) b_pos[c >> 6] |= bit;
    if (b[c] < 0) b_neg[c >> 6] |= bit;
  }
  if (!CombineRows(a_pos, a_neg, b_pos, b_neg, a_pos, a_neg, words)) {
    return false;
  }
  merged->resize(a.size());
  for (size_t c = 0; c < a.size(); ++c) {
    uint64_t bit = uint64_t{1} << (c & 63);
    (*merged)[c] = (a_pos[c >> 6] & bit) ? 1 : (a_neg[c >> 6] & bit) ? -1 : 0;
  }
  return true;
}

AlignmentMatrix CombineMatrices(const AlignmentMatrix& a,
                                const AlignmentMatrix& b) {
  AlignmentMatrix out(a.num_source_rows(), a.num_cols());
  const size_t words = a.words_per_plane();
  for (size_t i = 0; i < a.num_source_rows(); ++i) {
    for (size_t k = 0; k < a.num_alternatives(i); ++k) {
      PlanesView v = a.alternative(i, k);
      auto [pos, neg] = out.AppendZeroed(i);
      std::memcpy(pos, v.pos, words * sizeof(uint64_t));
      std::memcpy(neg, v.neg, words * sizeof(uint64_t));
    }
    out.AbsorbRowFrom(b, i);
  }
  return out;
}

RowScorer::RowScorer(const Table& source)
    : mask_((source.num_cols() + 63) / 64, 0) {
  size_t nonkey = 0;
  for (size_t c = 0; c < source.num_cols(); ++c) {
    if (!source.IsKeyColumn(c)) {
      mask_[c >> 6] |= uint64_t{1} << (c & 63);
      ++nonkey;
    }
  }
  n_ = static_cast<double>(nonkey);
  n_zero_ = nonkey == 0;
}

double EvaluateMatrixSimilarity(const AlignmentMatrix& m,
                                const Table& source) {
  if (source.num_rows() == 0) return 0.0;
  RowScorer scorer(source);
  double total = 0.0;
  for (size_t i = 0; i < m.num_source_rows(); ++i) {
    total += scorer.BestOfRow(m, i);
  }
  return total / static_cast<double>(source.num_rows());
}

}  // namespace gent
