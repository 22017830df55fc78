// Three-valued alignment matrices (paper §V-A2, §V-A3), bit-packed.
//
// A candidate table is represented relative to the Source Table S as a
// matrix with S's shape. For each candidate tuple aligned (by key) to
// source row i, cell (i, j) encodes (Eq. 4):
//
//    +1  candidate value equals S[i,j]            (match; null==null too)
//     0  candidate is null where S[i,j] is not    (nullified)
//    -1  candidate has a non-null value that contradicts S[i,j], or is
//        non-null where S[i,j] is null            (erroneous)
//
// Because integration can keep contradicting tuples separate, a source row
// may have several aligned alternatives; the matrix is stored row-sparse as
// source-row → list of alternatives. Combining two matrices with the
// guarded logical OR (Eq. 5) simulates Outer Union + κ + β without
// touching data.
//
// Representation: each alternative is a pair of bit planes over the source
// columns — a `pos` plane (bit c set ⇔ cell +1) and a `neg` plane (bit c
// set ⇔ cell −1); a clear bit in both planes is 0. All planes of a matrix
// live in one contiguous arena (2·words per alternative), so the Eq. 5
// inner loops are word-parallel:
//
//   contradiction(a,b)  =  (a.pos & b.neg) | (a.neg & b.pos)  ≠  0
//   merge (cellwise max) = { pos: a.pos | b.pos,  neg: a.neg & b.neg }
//   score counts         =  popcount(pos & nonkey), popcount(neg & nonkey)
//
// The unpacked `TruthRow` (vector<int8_t>) survives only as a
// convenience for tests; the reference int8 semantics live in
// tests/matrix_reference.h as the parity oracle.

#ifndef GENT_MATRIX_ALIGNMENT_MATRIX_H_
#define GENT_MATRIX_ALIGNMENT_MATRIX_H_

#include <cstdint>
#include <vector>

#include "src/discovery/discovery.h"
#include "src/ops/join.h"
#include "src/table/table.h"
#include "src/util/simd.h"
#include "src/util/status.h"

namespace gent {

/// One aligned alternative, unpacked: a row of truth values (+1/0/−1)
/// over source columns. Test/oracle convenience only — the matrix stores
/// bit planes.
using TruthRow = std::vector<int8_t>;

struct MatrixOptions;

/// A read-only view of one packed alternative's two bit planes.
struct PlanesView {
  const uint64_t* pos = nullptr;
  const uint64_t* neg = nullptr;
  size_t num_cols = 0;
  size_t words = 0;

  /// Truth value of column `c`: +1, 0, or −1.
  int8_t truth(size_t c) const {
    uint64_t bit = uint64_t{1} << (c & 63);
    if (pos[c >> 6] & bit) return 1;
    if (neg[c >> 6] & bit) return -1;
    return 0;
  }
};

class AlignmentMatrix {
 public:
  /// An empty matrix over `num_source_rows` rows and `num_cols` source
  /// columns.
  AlignmentMatrix(size_t num_source_rows, size_t num_cols)
      : num_cols_(num_cols),
        words_((num_cols + 63) / 64),
        rows_(num_source_rows) {}

  size_t num_source_rows() const { return rows_.size(); }
  size_t num_cols() const { return num_cols_; }
  /// uint64 words per plane (each alternative stores two planes).
  size_t words_per_plane() const { return words_; }

  size_t num_alternatives(size_t src_row) const {
    return rows_[src_row].size();
  }

  PlanesView alternative(size_t src_row, size_t k) const {
    const uint64_t* base = arena_.data() + rows_[src_row][k] * 2 * words_;
    return PlanesView{base, base + words_, num_cols_, words_};
  }

  /// Unpacks alternative `k` of `src_row` into int8 truth values.
  TruthRow Unpack(size_t src_row, size_t k) const;

  /// Adds an aligned alternative for a source row (packs `row`; the row
  /// must hold exactly num_cols() values in {−1, 0, +1}).
  void Add(size_t src_row, const TruthRow& row);

  /// Appends a zeroed alternative for `src_row` and returns writable
  /// plane pointers {pos, neg}. Pointers are invalidated by the next
  /// allocation from this matrix.
  std::pair<uint64_t*, uint64_t*> AppendZeroed(size_t src_row);

  /// Writable planes of an existing alternative.
  std::pair<uint64_t*, uint64_t*> mutable_alternative(size_t src_row,
                                                      size_t k) {
    uint64_t* base = arena_.data() + rows_[src_row][k] * 2 * words_;
    return {base, base + words_};
  }

  /// Merges `other`'s alternatives for `src_row` into this matrix's row
  /// (Eq. 5 lifted to row lists, in place): each of `other`'s
  /// alternatives is absorbed into the first non-contradicting resident
  /// alternative, or appended. Exactly CombineMatrices restricted to one
  /// row.
  void AbsorbRowFrom(const AlignmentMatrix& other, size_t src_row);

  /// Total number of stored alternatives.
  size_t TotalAlternatives() const;

 private:
  // The column-major bulk-build path of InitializeMatrix fills the arena
  // directly (one pass per source column over contiguous column data).
  friend Result<AlignmentMatrix> InitializeMatrix(const Table&, const Table&,
                                                  const MatrixOptions&,
                                                  const JoinKeyTable&);

  size_t num_cols_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> arena_;               // slot s → words [s·2w, (s+1)·2w)
  std::vector<std::vector<uint32_t>> rows_;   // src row → arena slots
};

struct MatrixOptions {
  /// Three-valued encoding (paper §V-A3). False = binary ablation
  /// (§V-A2): erroneous cells collapse to 0 (the neg plane stays empty).
  bool three_valued = true;
};

/// The source's key → rows table: a JoinKeyTable over the source key
/// columns, built once per source and shared across every
/// InitializeMatrix call of a traversal or expansion (the source must
/// outlive it). Candidate rows are ~25× more numerous than aligned ones,
/// so its probe dominates matrix initialization. Source rows with a null
/// key cell are left out, which changes nothing: a candidate row with a
/// null key cell never aligns.
JoinKeyTable SourceKeyTable(const Table& source);

/// Builds the alignment matrix of `candidate` w.r.t. `source`
/// (MatrixInitialization, Algorithm 1 line 4). The candidate must cover
/// the source key (run Expand() first otherwise). Candidate columns are
/// matched to source columns by name (discovery already renamed them).
Result<AlignmentMatrix> InitializeMatrix(const Table& source,
                                         const Table& candidate,
                                         const MatrixOptions& options = {});

/// Same, with a prebuilt SourceKeyTable(source) (one table serves all
/// candidates of a traversal).
Result<AlignmentMatrix> InitializeMatrix(const Table& source,
                                         const Table& candidate,
                                         const MatrixOptions& options,
                                         const JoinKeyTable& source_keys);

/// Guarded elementwise OR of two packed rows (Eq. 5 applied to one
/// pair): returns true and writes the merged planes when no position
/// holds contradicting non-zero values; returns false (keep both rows)
/// otherwise. `out_pos`/`out_neg` may alias `a_pos`/`a_neg`.
bool CombineRows(const uint64_t* a_pos, const uint64_t* a_neg,
                 const uint64_t* b_pos, const uint64_t* b_neg,
                 uint64_t* out_pos, uint64_t* out_neg, size_t words);

/// Unpacked convenience overload (tests/oracle parity).
bool CombineRows(const TruthRow& a, const TruthRow& b, TruthRow* merged);

/// Combine two matrices (Eq. 5 lifted to row lists): per source row,
/// alternatives that agree on non-zero positions merge via OR; the rest
/// stay separate.
AlignmentMatrix CombineMatrices(const AlignmentMatrix& a,
                                const AlignmentMatrix& b);

/// evaluateSimilarity (Algorithm 1): the EIS score the matrix predicts for
/// the simulated integration — per source row take the best alternative's
/// 0.5·(1 + (α−δ)/n) over non-key attributes; rows with no aligned
/// alternative contribute 0.
double EvaluateMatrixSimilarity(const AlignmentMatrix& m, const Table& source);

/// The per-row scoring kernel of EvaluateMatrixSimilarity with the
/// non-key column mask hoisted out of the loops: build once per source,
/// reuse across every alternative of every matrix (satellite of the
/// bit-plane refactor; also the engine of the incremental traversal).
class RowScorer {
 public:
  explicit RowScorer(const Table& source);

  const uint64_t* nonkey_mask() const { return mask_.data(); }
  size_t words() const { return mask_.size(); }

  /// 0.5·(1 + (α−δ)/n) of one packed alternative. The α/δ popcounts go
  /// through the dispatched fused AND+popcount kernel (simd.h); every
  /// dispatch level yields the same exact integers, so the score is
  /// bit-identical to the scalar build.
  double AltScore(const uint64_t* pos, const uint64_t* neg) const {
    if (n_zero_) return 1.0;
    uint64_t alpha = 0, delta = 0;
    simd::ScorePlanes(pos, neg, mask_.data(), mask_.size(), &alpha, &delta);
    return 0.5 * (1.0 + (static_cast<double>(alpha) -
                         static_cast<double>(delta)) /
                            n_);
  }

  /// Best alternative score of `src_row` (0 when the row has none).
  double BestOfRow(const AlignmentMatrix& m, size_t src_row) const {
    double best = 0.0;
    for (size_t k = 0; k < m.num_alternatives(src_row); ++k) {
      PlanesView alt = m.alternative(src_row, k);
      double s = AltScore(alt.pos, alt.neg);
      if (s > best) best = s;
    }
    return best;
  }

 private:
  std::vector<uint64_t> mask_;
  double n_ = 0.0;   // non-key column count
  bool n_zero_ = true;
};

}  // namespace gent

#endif  // GENT_MATRIX_ALIGNMENT_MATRIX_H_
