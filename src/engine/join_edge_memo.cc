#include "src/engine/join_edge_memo.h"

#include <algorithm>

#include "src/util/hash.h"

namespace gent {

namespace {

// The first capacity a shard allocates, in slots.
constexpr size_t kInitialSlots = 64;

}  // namespace

JoinEdgeMemo::JoinEdgeMemo(size_t max_bytes) : max_slots_(0) {
  // The largest power of two of slots that fits one shard's share.
  const size_t fit = max_bytes / kShards / sizeof(Slot);
  for (size_t slots = 1; slots <= fit; slots *= 2) max_slots_ = slots;
}

uint64_t JoinEdgeMemo::Hash(uint32_t a, uint32_t b) {
  return SplitMix64((static_cast<uint64_t>(a) << 32) | b);
}

JoinEdgeMemo::Shard& JoinEdgeMemo::ShardOf(uint64_t hash) const {
  // The top bits pick the shard, the low bits the slot within it.
  return shards_[hash >> 60];
}

size_t JoinEdgeMemo::Probe(const std::vector<Slot>& slots, uint64_t hash,
                           uint32_t a, uint32_t b) {
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i].a != kFree && (slots[i].a != a || slots[i].b != b)) {
    i = (i + 1) & mask;
  }
  return i;
}

bool JoinEdgeMemo::Find(size_t a, size_t b,
                        std::optional<JoinEdge>* edge) const {
  if (a >= kFree || b >= kFree) return false;
  const uint32_t ka = static_cast<uint32_t>(a);
  const uint32_t kb = static_cast<uint32_t>(b);
  const uint64_t hash = Hash(ka, kb);
  Shard& shard = ShardOf(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots.empty()) return false;
  const Slot& s = shard.slots[Probe(shard.slots, hash, ka, kb)];
  if (s.a == kFree) return false;
  if (s.a_col == kNoEdge) {
    edge->reset();
  } else {
    *edge = JoinEdge{s.a_col, s.b_col, s.weight, s.inter};
  }
  return true;
}

bool JoinEdgeMemo::Insert(size_t a, size_t b,
                          const std::optional<JoinEdge>& edge) {
  if (a >= kFree || b >= kFree) return false;
  if (edge && (edge->a_col >= kNoEdge || edge->b_col >= kNoEdge ||
               edge->inter > UINT32_MAX)) {
    return false;
  }
  Slot slot{static_cast<uint32_t>(a), static_cast<uint32_t>(b), kNoEdge,
            kNoEdge, 0, 0.0};
  if (edge) {
    slot.a_col = static_cast<uint16_t>(edge->a_col);
    slot.b_col = static_cast<uint16_t>(edge->b_col);
    slot.inter = static_cast<uint32_t>(edge->inter);
    slot.weight = edge->weight;
  }
  const uint64_t hash = Hash(slot.a, slot.b);
  Shard& shard = ShardOf(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.slots.empty() &&
      shard.slots[Probe(shard.slots, hash, slot.a, slot.b)].a != kFree) {
    return false;  // first insert wins
  }
  // Grow before the insert that would take the table past 3/4 full;
  // at the slot limit the memo is full and refuses instead.
  if ((shard.used + 1) * 4 > shard.slots.size() * 3) {
    const size_t grown = shard.slots.empty()
                             ? std::min(kInitialSlots, max_slots_)
                             : shard.slots.size() * 2;
    if (grown > max_slots_ || (shard.used + 1) * 4 > grown * 3) return false;
    std::vector<Slot> next(grown, Slot{kFree, 0, 0, 0, 0, 0.0});
    for (const Slot& s : shard.slots) {
      if (s.a != kFree) next[Probe(next, Hash(s.a, s.b), s.a, s.b)] = s;
    }
    shard.slots.swap(next);
  }
  shard.slots[Probe(shard.slots, hash, slot.a, slot.b)] = slot;
  ++shard.used;
  return true;
}

JoinEdgeMemo::Stats JoinEdgeMemo::stats() const {
  Stats s;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.used;
    s.bytes += shard.slots.size() * sizeof(Slot);
  }
  return s;
}

}  // namespace gent
