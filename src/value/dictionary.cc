#include "src/value/dictionary.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

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

bool DictionaryArena::Resize(size_t capacity) {
  // realloc keeps the bytes; on a large block it remaps pages instead
  // of copying them.
  void* grown = std::realloc(bytes_.get(), capacity > 0 ? capacity : 1);
  if (grown == nullptr) return false;
  bytes_.release();
  bytes_.reset(static_cast<char*>(grown));
  capacity_ = capacity;
  return true;
}

void DictionaryArena::Reserve(size_t entries, size_t string_bytes) {
  offsets_.reserve(offsets_.size() + entries);
  if (bytes() + string_bytes > capacity_) (void)Resize(bytes() + string_bytes);
}

void DictionaryArena::Grow(size_t need) {
  if (!Resize(std::max(need, 2 * capacity_))) throw std::bad_alloc();
}

void DictionaryArena::ShrinkToFit() {
  if (capacity_ > bytes()) (void)Resize(bytes());
  offsets_.shrink_to_fit();
}

std::vector<std::string_view> DictionaryArena::Views(size_t first) const {
  std::vector<std::string_view> views;
  views.reserve(size() > first ? size() - first : 0);
  for (size_t i = first; i < size(); ++i) views.push_back((*this)[i]);
  return views;
}

size_t ValueDictionary::ProbeLocked(std::string_view key, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (static_cast<uint32_t>(slot >> 32) == tag &&
        EntryLocked(static_cast<ValueId>(slot)) == key) {
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

ValueId ValueDictionary::FindOrInsertLocked(std::string_view key,
                                            uint32_t tag) {
  ReserveLocked(indexed_ + 1);
  const size_t i = ProbeLocked(key, tag);
  if (slots_[i] != 0) return static_cast<ValueId>(slots_[i]);
  CheckEntryCount(SizeLocked() + 1);
  const ValueId id = static_cast<ValueId>(SizeLocked());
  tail_.emplace_back(key);
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
  return FindOrInsertLocked(key, tag);
}

void ValueDictionary::InternAll(std::vector<std::string_view> values,
                                std::vector<ValueId>* ids) {
  // Canonical spellings and tags are computed before the lock: a
  // numeric spelling's view is pointed at its canonical form, anything
  // else is already its own canonical form.
  std::vector<uint32_t> tags(values.size());
  std::deque<std::string> canonical;  // rewritten spellings; deque: stable
  std::string scratch;
  for (size_t i = 0; i < values.size(); ++i) {
    std::string_view& value = values[i];
    if (value.empty()) continue;
    const std::string_view key = CanonicalNumeric(value, &scratch);
    if (key.data() != value.data()) value = canonical.emplace_back(key);
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
    ids->push_back(values[i].empty() ? kNull
                                     : FindOrInsertLocked(values[i], tags[i]));
  }
}

bool ValueDictionary::AdoptAll(DictionaryArena&& values,
                               const std::vector<uint32_t>& tags) {
  assert(values.size() >= 1 && tags.size() == values.size() - 1);
  std::unique_lock lock(mutex_);
  if (SizeLocked() != 1) return false;
  CheckEntryCount(values.size());
  ReserveLocked(tags.size());
  // The same slot InternAll would pick for each value: the index is
  // empty and values arrive in id order, so the first free slot from
  // the home slot is it.
  constexpr size_t kPrefetchAhead = 8;
  const size_t mask = slots_.size() - 1;
  for (size_t i = 0; i < tags.size(); ++i) {
    if (i + kPrefetchAhead < tags.size()) {
      __builtin_prefetch(&slots_[tags[i + kPrefetchAhead] & mask]);
    }
    size_t s = tags[i] & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint64_t>(tags[i]) << 32 |
                static_cast<ValueId>(i + 1);
  }
  indexed_ = tags.size();
  base_ = std::move(values);
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

std::string_view ValueDictionary::StringOf(ValueId id) const {
  if (IsLabeledNull(id)) {
    std::lock_guard<std::mutex> lock(label_mutex_);
    auto [it, fresh] = label_strings_.try_emplace(id);
    if (fresh) {
      it->second = "⟨null:" + std::to_string(id - kFirstLabeledNull) + "⟩";
    }
    return it->second;  // node-held string: stable after unlock
  }
  std::shared_lock lock(mutex_);
  assert(id < SizeLocked());
  return EntryLocked(id);  // arena or deque bytes: stable after unlock
}

void ValueDictionary::StringsOf(ValueId first, ValueId last,
                                std::vector<std::string_view>* out) const {
  out->reserve(out->size() + (last > first ? last - first : 0));
  std::shared_lock lock(mutex_);
  assert(last <= SizeLocked());
  ValueId id = first;
  for (; id < last && id < base_.size(); ++id) out->push_back(base_[id]);
  if (id >= last) return;
  // The tail by iterator: indexing a deque per id costs more than the
  // copy.
  for (auto it = tail_.begin() + (id - base_.size()); id < last; ++id, ++it) {
    out->emplace_back(*it);
  }
}

ValueId ValueDictionary::CreateLabeledNull() {
  const uint64_t k = next_label_.fetch_add(1, std::memory_order_relaxed);
  return kFirstLabeledNull + static_cast<ValueId>(k % kNumLabels);
}

size_t ValueDictionary::size() const {
  std::shared_lock lock(mutex_);
  return SizeLocked();
}

size_t ValueDictionary::base_bytes() const {
  std::shared_lock lock(mutex_);
  return base_.bytes();
}

}  // namespace gent
