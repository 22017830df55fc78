#include "src/value/dictionary.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/util/hash.h"
#include "src/util/string_util.h"

namespace gent {

namespace {

constexpr size_t kMinSlots = 16;

// Labels cycle through [kFirstLabeledNull, 2^32).
constexpr uint64_t kNumLabels = (uint64_t{1} << 32) - kFirstLabeledNull;

}  // namespace

// SplitMix64 over the 8-byte words, seeded with the length so
// zero-padded tails of different lengths differ; the high half of the
// 64-bit result. Persisted in snapshots: a change here must bump
// kTagVersion.
uint32_t ValueDictionary::TagOf(std::string_view s) {
  uint64_t h = SplitMix64(s.size());
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = SplitMix64(h ^ w);
  }
  if (i < s.size()) {
    uint64_t w = 0;
    std::memcpy(&w, s.data() + i, s.size() - i);
    h = SplitMix64(h ^ w);
  }
  return static_cast<uint32_t>(h >> 32);
}

ValueDictionary::ValueDictionary() {
  strings_.emplace_back("");  // id 0: the null sentinel
}

size_t ValueDictionary::ProbeLocked(std::string_view key, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (static_cast<uint32_t>(slot >> 32) == tag &&
        strings_[static_cast<ValueId>(slot)] == key) {
      break;
    }
  }
  return i;
}

ValueId ValueDictionary::FindLocked(std::string_view key, uint32_t tag) const {
  if (slots_.empty()) return kNull;
  // An empty slot is 0, which reads as kNull.
  return static_cast<ValueId>(slots_[ProbeLocked(key, tag)]);
}

void ValueDictionary::CheckEntryCount(size_t n) {
  if (n > kFirstLabeledNull) {
    std::fprintf(stderr,
                 "ValueDictionary: %zu entries would reach the labeled-null "
                 "id range\n",
                 n);
    std::abort();
  }
}

ValueId ValueDictionary::FindOrInsertLocked(std::string_view key, uint32_t tag,
                                            std::string* owned) {
  ReserveLocked(indexed_ + 1);
  const size_t i = ProbeLocked(key, tag);
  if (slots_[i] != 0) return static_cast<ValueId>(slots_[i]);
  CheckEntryCount(strings_.size() + 1);
  const ValueId id = static_cast<ValueId>(strings_.size());
  if (owned != nullptr) {
    strings_.push_back(std::move(*owned));
  } else {
    strings_.emplace_back(key);
  }
  slots_[i] = static_cast<uint64_t>(tag) << 32 | id;
  ++indexed_;
  return id;
}

void ValueDictionary::ReserveLocked(size_t n) {
  if (2 * n <= slots_.size()) return;
  size_t capacity = std::max(kMinSlots, slots_.size());
  while (capacity < 2 * n) capacity *= 2;
  // A slot's home is its tag masked to the table size, so a rehash
  // moves slots without touching (or hashing) a string.
  std::vector<uint64_t> grown(capacity, 0);
  const size_t mask = capacity - 1;
  for (const uint64_t slot : slots_) {
    if (slot == 0) continue;
    size_t i = static_cast<uint32_t>(slot >> 32) & mask;
    while (grown[i] != 0) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_.swap(grown);
}

ValueId ValueDictionary::Intern(std::string_view s) {
  if (s.empty()) return kNull;
  std::string scratch;
  const std::string_view key = CanonicalNumeric(s, &scratch);
  const uint32_t tag = TagOf(key);
  {
    std::shared_lock lock(mutex_);
    const ValueId id = FindLocked(key, tag);
    if (id != kNull) return id;
  }
  // Another thread may intern `key` between the locks; the writer path
  // probes again before inserting.
  std::unique_lock lock(mutex_);
  return FindOrInsertLocked(key, tag, nullptr);
}

void ValueDictionary::InternAll(std::vector<std::string>&& values,
                                std::vector<ValueId>* ids) {
  // Canonical spellings and tags are computed before the lock: a
  // numeric spelling is rewritten in place, anything else is already
  // its own canonical form and is later moved in, not copied.
  std::vector<uint32_t> tags(values.size());
  std::string scratch;
  for (size_t i = 0; i < values.size(); ++i) {
    std::string& value = values[i];
    if (value.empty()) continue;
    const std::string_view key = CanonicalNumeric(value, &scratch);
    if (key.data() != value.data()) value.assign(key);
    tags[i] = TagOf(value);
  }
  ids->reserve(ids->size() + values.size());
  std::unique_lock lock(mutex_);
  ReserveLocked(indexed_ + values.size());
  // Each probe is a cache miss in a large index; prefetching the home
  // slot a few values ahead overlaps them.
  constexpr size_t kPrefetchAhead = 8;
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i + kPrefetchAhead < values.size()) {
      __builtin_prefetch(&slots_[tags[i + kPrefetchAhead] & mask]);
    }
    std::string& value = values[i];
    ids->push_back(value.empty()
                       ? kNull
                       : FindOrInsertLocked(value, tags[i], &value));
  }
}

bool ValueDictionary::AdoptAll(std::vector<std::string>&& values,
                               const std::vector<uint32_t>& tags) {
  assert(tags.size() == values.size());
  std::unique_lock lock(mutex_);
  if (strings_.size() != 1) return false;
  CheckEntryCount(1 + values.size());
  ReserveLocked(values.size());
  // The same slot InternAll would pick for each value: the index is
  // empty and values arrive in id order, so the first free slot from
  // the home slot is it.
  constexpr size_t kPrefetchAhead = 8;
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i + kPrefetchAhead < values.size()) {
      __builtin_prefetch(&slots_[tags[i + kPrefetchAhead] & mask]);
    }
    size_t s = tags[i] & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint64_t>(tags[i]) << 32 |
                static_cast<ValueId>(strings_.size());
    strings_.push_back(std::move(values[i]));
  }
  indexed_ = values.size();
  return true;
}

void ValueDictionary::Reserve(size_t n) {
  std::unique_lock lock(mutex_);
  ReserveLocked(n);
}

ValueId ValueDictionary::Lookup(std::string_view s) const {
  if (s.empty()) return kNull;
  std::string scratch;
  const std::string_view key = CanonicalNumeric(s, &scratch);
  const uint32_t tag = TagOf(key);
  std::shared_lock lock(mutex_);
  return FindLocked(key, tag);
}

const std::string& ValueDictionary::StringOf(ValueId id) const {
  if (IsLabeledNull(id)) {
    std::lock_guard<std::mutex> lock(label_mutex_);
    auto [it, fresh] = label_strings_.try_emplace(id);
    if (fresh) {
      it->second = "⟨null:" + std::to_string(id - kFirstLabeledNull) + "⟩";
    }
    return it->second;  // node reference: stable after unlock
  }
  std::shared_lock lock(mutex_);
  assert(id < strings_.size());
  return strings_[id];  // deque reference: stable after unlock
}

void ValueDictionary::StringsOf(ValueId first, ValueId last,
                                std::vector<const std::string*>* out) const {
  out->reserve(out->size() + (last > first ? last - first : 0));
  std::shared_lock lock(mutex_);
  assert(last <= strings_.size());
  for (ValueId id = first; id < last; ++id) out->push_back(&strings_[id]);
}

ValueId ValueDictionary::CreateLabeledNull() {
  const uint64_t k = next_label_.fetch_add(1, std::memory_order_relaxed);
  return kFirstLabeledNull + static_cast<ValueId>(k % kNumLabels);
}

size_t ValueDictionary::size() const {
  std::shared_lock lock(mutex_);
  return strings_.size();
}

}  // namespace gent
