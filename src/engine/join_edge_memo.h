// A catalog's memo of scored join-graph edges (DESIGN.md §5.7).
//
// Expand's join graph scores the best joinable column pair between two
// candidates (BestJoinPair in src/matrix/expand.cc). When both are
// untouched lake tables of one ColumnStatsCatalog, that edge is a pure
// function of the catalog, the two lake-table indices and Expand's
// constant threshold, so every request over the catalog would score it
// again. The catalog owns one JoinEdgeMemo and Expand reads and fills
// it: a pair is scored once per catalog, not once per request.
//
// - The key is directed, (lake_a, lake_b) in the direction asked: the
//   best pair's final (a_col, b_col) tie-break is not symmetric, so the
//   edge from b to a is not the a-to-b edge swapped.
// - A stored record says whether the pair has an edge and, when it
//   does, the edge itself, bit for bit. A lookup returns exactly what
//   scoring would, so the memo never changes a result.
// - The memo lives and dies with its catalog. A new catalog (a layer,
//   a compaction, a reload, a recovery) starts empty; nothing is ever
//   invalidated.
// - Nothing is allocated before the first insert, and the slot arrays
//   never exceed the byte budget (kJoinEdgeMemoBytes for a catalog's
//   memo). A full memo refuses inserts; lookups still hit, and a miss
//   is scored as if there were no memo.
// - Internally synchronized (one mutex per shard): any number of
//   threads may look up and insert at once. Two threads that miss on
//   one key both score the same edge, and the first insert wins.

#ifndef GENT_ENGINE_JOIN_EDGE_MEMO_H_
#define GENT_ENGINE_JOIN_EDGE_MEMO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace gent {

/// The best joinable column pair from table a to table b: a's column
/// `a_col` with b's column `b_col`, of containment × keyness `weight`
/// and `inter` shared distinct values.
struct JoinEdge {
  size_t a_col = 0;
  size_t b_col = 0;
  double weight = 0.0;
  size_t inter = 0;
};

/// Slot bytes one catalog's memo may hold: ~100k edges. The
/// cold_small_noise lake's 26 sources read 19,140 distinct edges.
inline constexpr size_t kJoinEdgeMemoBytes = size_t{4} << 20;

class JoinEdgeMemo {
 public:
  explicit JoinEdgeMemo(size_t max_bytes = kJoinEdgeMemoBytes);

  /// True when the directed pair (a, b) is stored; `*edge` then
  /// receives its edge (nullopt: the pair has none).
  bool Find(size_t a, size_t b, std::optional<JoinEdge>* edge) const;

  /// Stores the directed pair's edge. A key already stored keeps its
  /// record. False when nothing was stored: the key was present, the
  /// memo is full, or the record does not fit the compact slot (a
  /// column index ≥ 65535, an intersection ≥ 2^32 or a table index
  /// ≥ 2^32 - 1; such a pair is simply scored every time).
  bool Insert(size_t a, size_t b, const std::optional<JoinEdge>& edge);

  struct Stats {
    size_t entries = 0;  // stored keys
    size_t bytes = 0;    // slot-array bytes allocated
  };
  Stats stats() const;

 private:
  // One stored key, 24 bytes. a == kFree marks a free slot; a_col ==
  // kNoEdge a stored pair without an edge.
  struct Slot {
    uint32_t a;
    uint32_t b;
    uint16_t a_col;
    uint16_t b_col;
    uint32_t inter;
    double weight;
  };
  static_assert(sizeof(Slot) == 24, "a memo slot is 24 bytes");
  static constexpr uint32_t kFree = UINT32_MAX;
  static constexpr uint16_t kNoEdge = UINT16_MAX;
  static constexpr size_t kShards = 16;

  // An open-addressing table with linear probing, at most 3/4 full so
  // every probe ends at a free slot. Capacity doubles up to the shard's
  // slot limit.
  struct Shard {
    std::mutex mu;
    std::vector<Slot> slots;  // power-of-two size, or empty
    size_t used = 0;
  };

  static uint64_t Hash(uint32_t a, uint32_t b);
  static size_t Probe(const std::vector<Slot>& slots, uint64_t hash,
                      uint32_t a, uint32_t b);
  Shard& ShardOf(uint64_t hash) const;

  size_t max_slots_;  // per shard, a power of two (or 0: never stores)
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace gent

#endif  // GENT_ENGINE_JOIN_EDGE_MEMO_H_
