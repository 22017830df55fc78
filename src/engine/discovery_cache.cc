#include "src/engine/discovery_cache.h"

#include <cstring>

#include "src/util/hash.h"

namespace gent {

namespace {

// splitmix64 finalizer: the per-word mixer for both fingerprint halves.
inline uint64_t Mix64(uint64_t x) { return SplitMix64(x); }

// Streaming 64-bit hash; two instances with distinct seeds form the
// 128-bit fingerprint.
class Hasher {
 public:
  explicit Hasher(uint64_t seed) : h_(Mix64(seed)) {}

  void U64(uint64_t v) { h_ = Mix64(h_ ^ v); }
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    uint64_t word = 0;
    size_t full = n / 8;
    for (size_t i = 0; i < full; ++i) {
      std::memcpy(&word, p + i * 8, 8);
      U64(word);
    }
    word = 0;
    if (n % 8 != 0) {
      std::memcpy(&word, p + full * 8, n % 8);
      U64(word);
    }
    U64(n);  // length-prefix so "ab","c" != "a","bc"
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  void Double(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    U64(bits);
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_;
};

void HashSource(Hasher& h, const Table& source,
                const DiscoveryConfig& config, uint64_t max_rows,
                uint64_t route_tag) {
  h.U64(route_tag);
  // Row budget: Expand consults it, and it shapes results
  // deterministically (unlike wall-clock deadlines, which stay out of
  // the key).
  h.U64(max_rows);
  // Discovery config: every field that changes discovery's output.
  h.Double(config.tau);
  h.U64(config.top_k);
  h.U64(config.diversify ? 1 : 0);
  h.Str(config.exclude_table);
  // Schema.
  h.U64(source.num_cols());
  for (const std::string& name : source.column_names()) h.Str(name);
  h.U64(source.key_columns().size());
  for (size_t k : source.key_columns()) h.U64(k);
  // Full column contents: discovery aligns rows (key indexes, value
  // agreement), so the fingerprint must cover cell sequences, not just
  // distinct sets.
  h.U64(source.num_rows());
  for (size_t c = 0; c < source.num_cols(); ++c) {
    const auto& col = source.column(c);
    h.Bytes(col.data(), col.size() * sizeof(ValueId));
  }
}

// The answer fields of `r`, deep-copied; timings and cache_hit keep
// their defaults.
ReclamationResult CloneAnswer(const ReclamationResult& r) {
  ReclamationResult out(r.reclaimed.Clone());
  out.originating.reserve(r.originating.size());
  for (const Table& t : r.originating) out.originating.push_back(t.Clone());
  out.originating_names = r.originating_names;
  out.predicted_eis = r.predicted_eis;
  return out;
}

size_t CellBytes(const Table& t) {
  return t.num_rows() * t.num_cols() * sizeof(ValueId);
}

size_t AnswerBytes(const ReclamationResult& r) {
  size_t bytes = CellBytes(r.reclaimed);
  for (const Table& t : r.originating) bytes += CellBytes(t);
  return bytes;
}

}  // namespace

SourceFingerprint FingerprintSource(const Table& source,
                                    const DiscoveryConfig& config,
                                    uint64_t max_rows, uint64_t route_tag) {
  Hasher hi(0x67656e745f686900ULL);  // distinct seeds per half
  Hasher lo(0x67656e745f6c6f00ULL);
  HashSource(hi, source, config, max_rows, route_tag);
  HashSource(lo, source, config, max_rows, route_tag);
  return SourceFingerprint{hi.value(), lo.value()};
}

std::optional<ReclamationResult> DiscoveryCache::Lookup(
    const SourceFingerprint& key) {
  std::shared_ptr<const ReclamationResult> hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    hit = it->second->result;
  }
  // Clone outside the lock: table copies are the expensive part.
  return CloneAnswer(*hit);
}

void DiscoveryCache::Insert(const SourceFingerprint& key,
                            const ReclamationResult& result) {
  if (capacity_ == 0) return;
  auto copy = std::make_shared<const ReclamationResult>(CloneAnswer(result));
  const size_t bytes = AnswerBytes(*copy);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    it->second->result = std::move(copy);
    it->second->bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{key, std::move(copy), bytes});
  index_[key] = lru_.begin();
  bytes_ += bytes;
}

DiscoveryCache::Stats DiscoveryCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  s.bytes = bytes_;
  return s;
}

void DiscoveryCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace gent
