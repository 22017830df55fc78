// Dictionary encoding of cell values.
//
// Every distinct cell value in a corpus is interned exactly once into a
// ValueDictionary and represented everywhere else as a 32-bit ValueId.
// This makes the hot operations of Gen-T — set overlap, tuple alignment,
// and cell equality — integer comparisons, and makes labeled nulls
// (paper §V-B1, LabelSourceNulls) first-class values that can never
// collide with real data.
//
// Id 0 is the null sentinel. Ids are dense and assigned in first-intern
// order, below kFirstLabeledNull. Numeric strings are canonicalized at
// intern time ("3.10" and "3.1" intern to the same id) because Gen-T
// matches values syntactically (paper §II: metadata and types are
// unreliable).
//
// Layout: ids [0, n) form a read-only base segment, one contiguous
// DictionaryArena (the strings' bytes plus an offset array); ids from n
// up live in a deque. A fresh dictionary's base is id 0 alone, and only
// AdoptAll replaces it. Neither part ever moves a string, so the views
// StringOf returns stay valid while the dictionary grows. The string ->
// id index is one flat open-addressing table of uint64_t slots over
// both parts, each holding a 32-bit hash tag (high half) and the id
// (low half); slot value 0 is empty, since id 0 is never indexed. A
// value's home slot is its tag masked to the table size and collisions
// probe linearly; the table doubles to keep the load factor at most
// 1/2, and a rehash moves slots by tag alone, without touching a
// string.
//
// Labeled nulls are not entries. They take ids from the reserved range
// [kFirstLabeledNull, 2^32), above every entry id, so IsLabeledNull is
// a comparison with no lock, no spelling ever looks one up, size()
// never counts one, and a walk over ids [0, size()) — the snapshot
// writers' dictionary walk — never meets one. Allocation cycles through
// the range; a label is unique among the last 2^31 allocated, far more
// than one integration uses (one per null source cell), and labels are
// only ever compared within the integration that allocated them.
//
// Bulk path: a snapshot load interns a dictionary section with one
// InternAll call and gets exactly the ids the same sequence of Intern
// calls would return. Canonical spellings and tags are computed before
// the lock; under one writer-lock acquisition the index is sized once
// and each string is probed once (home slots prefetched a few strings
// ahead).
//
// Adoption: a dictionary that holds only id 0 can instead adopt a saved
// dictionary whole with AdoptAll — an arena of the strings in saved id
// order plus their persisted tags (the snapshot's kDictTags section).
// The arena becomes the base segment as ids 1..n, with no per-string
// allocation, and the index is placed from the tags alone
// (PlaceSlots, which needs no lock, so a loader runs it beside its
// string read): no canonicalization, no hashing, no string compare.
// AdoptAll swaps the placed index in under the lock. For a section
// written from a dictionary (distinct canonical strings, true tags) the
// result is the dictionary InternAll would build, slot for slot. Tags
// are trusted: a wrong tag only puts a value where no lookup probes, so
// that lookup misses. kTagVersion names the TagOf definition; a file
// stamped with another version is not adopted. The snapshot loader
// adopts only after the whole file has verified, so a corrupt file
// never reaches the dictionary.
//
// Thread safety: all methods may be called concurrently (guarded by a
// shared_mutex: lookups share it, inserts take it exclusively). This is
// what lets BulkReclaim run many reclamations against one lake in
// parallel.

#ifndef GENT_VALUE_DICTIONARY_H_
#define GENT_VALUE_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gent {

/// Interned value handle. 0 is null; all other ids index a dictionary.
using ValueId = uint32_t;

/// The null sentinel (missing value, ⊥ in the paper).
inline constexpr ValueId kNull = 0;

/// First id of the labeled-null range [kFirstLabeledNull, 2^32). Every
/// dictionary entry id is below it.
inline constexpr ValueId kFirstLabeledNull = 0x80000000u;

/// Strings in id order, held in one contiguous byte arena plus an
/// offset array: entry i is bytes [offsets[i], offsets[i+1]). Entry 0
/// is the empty null sentinel, so entry i is id i. The snapshot loader
/// reads a saved dictionary into one; ValueDictionary::AdoptAll takes
/// it over as the base segment, which never changes again. Append may
/// move the bytes (realloc), so views are taken after the last Append.
class DictionaryArena {
 public:
  DictionaryArena() : offsets_{0, 0} {}

  /// Makes room for `entries` more entries of `string_bytes` bytes in
  /// all, without touching the memory. A hint: an allocation that fails
  /// leaves the capacity as it was.
  void Reserve(size_t entries, size_t string_bytes);

  /// Appends an entry of `n` bytes and returns where its bytes go.
  char* Append(size_t n) {
    const size_t used = bytes();
    if (used + n > capacity_) Grow(used + n);
    offsets_.push_back(used + n);
    return bytes_.get() + used;
  }

  /// Appends `s` as an entry.
  void Append(std::string_view s) {
    char* dst = Append(s.size());
    if (!s.empty()) std::memcpy(dst, s.data(), s.size());
  }

  /// Gives back the byte capacity past the last entry.
  void ShrinkToFit();

  /// Number of entries, the sentinel included.
  size_t size() const { return offsets_.size() - 1; }

  /// Bytes of the entries' strings.
  size_t bytes() const { return static_cast<size_t>(offsets_.back()); }

  std::string_view operator[](size_t i) const {
    return {bytes_.get() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }

  /// Views of the entries [first, size()), in order.
  std::vector<std::string_view> Views(size_t first) const;

 private:
  struct Free {
    void operator()(char* p) const { std::free(p); }
  };
  // Reallocates the bytes to exactly `capacity`; false if that fails.
  bool Resize(size_t capacity);
  // Makes room for at least `need` bytes; throws std::bad_alloc if it
  // cannot.
  void Grow(size_t need);

  std::unique_ptr<char, Free> bytes_;  // malloc'd: realloc grows and shrinks
  size_t capacity_ = 0;
  std::vector<uint64_t> offsets_;  // size() + 1 entries
};

/// Corpus-wide value interning table. Shared (via shared_ptr) by every
/// table in a data lake so ids are comparable across tables.
class ValueDictionary {
 public:
  /// Interns `s` (numeric spellings canonicalized) and returns its id.
  /// Empty strings intern to kNull.
  ValueId Intern(std::string_view s);

  /// Returns the id of `s` if already interned, else kNull.
  ValueId Lookup(std::string_view s) const;

  /// Interns every string of `values` in order and appends its id to
  /// `ids`: the ids that calling Intern on each string in turn would
  /// return, under a single writer-lock acquisition. The snapshot
  /// loader's dictionary path whenever it does not adopt.
  void InternAll(std::vector<std::string_view> values,
                 std::vector<ValueId>* ids);

  /// The index of a saved dictionary's entries 1..n, placed from their
  /// tags alone by PlaceSlots, for AdoptAll to swap in.
  class AdoptionSlots {
   public:
    /// Number of entries placed (n).
    size_t entries() const { return entries_; }

   private:
    friend class ValueDictionary;
    std::vector<uint64_t> slots_;
    size_t entries_ = 0;
  };

  /// Places entry i+1 by `tags[i]` (its TagOf) into a fresh index, in
  /// id order, exactly where InternAll into an empty dictionary would:
  /// no string is read, hashed or compared, and no lock is taken, so a
  /// loader builds it on its own thread while it reads the strings.
  static AdoptionSlots PlaceSlots(const std::vector<uint32_t>& tags);

  /// Adopts the entries of `values` after its sentinel as ids
  /// 1..values.size()-1 in order: the arena becomes the base segment
  /// and `slots` (PlaceSlots of their tags) the index. Runs under the
  /// writer lock and only when the dictionary holds nothing but id 0;
  /// returns false otherwise, leaving `values` and `slots` untouched.
  /// The caller vouches that the strings are distinct, non-empty and
  /// canonical (a snapshot dictionary written by SaveSnapshotV2 is).
  /// `slots` must place values.size() - 1 entries.
  bool AdoptAll(DictionaryArena&& values, AdoptionSlots&& slots);

  /// Hash tag of a canonical spelling, as the index stores it.
  static uint32_t TagOf(std::string_view canonical);

  /// Version of the TagOf definition; persisted tags stamped with any
  /// other value are recomputed, not adopted.
  static constexpr uint32_t kTagVersion = 1;

  /// Sizes the index so `n` interned values fit without a rehash.
  /// Changes no id.
  void Reserve(size_t n);

  /// The string for an id. id must be kNull, a valid interned id or a
  /// labeled null; kNull renders as "" and labeled nulls as "⟨null:k⟩".
  /// The returned view stays valid for the dictionary's lifetime.
  std::string_view StringOf(ValueId id) const;

  /// Appends the strings of entry ids [first, last) to `out`, in id
  /// order, under one shared-lock acquisition (last <= size()). The
  /// views stay valid for the dictionary's lifetime, so callers read
  /// them after the lock is gone: the snapshot writers' walk.
  void StringsOf(ValueId first, ValueId last,
                 std::vector<std::string_view>* out) const;

  /// Allocates a fresh labeled null: a non-null value distinct from
  /// every real value (used by LabelSourceNulls to protect source nulls
  /// from being overwritten during integration). Lock-free.
  ValueId CreateLabeledNull();

  /// True if `id` is a labeled null: a range check, no lock.
  bool IsLabeledNull(ValueId id) const { return id >= kFirstLabeledNull; }

  /// Number of interned values, id 0 included; labeled nulls are not
  /// entries and do not count. Entry ids are exactly [0, size()).
  size_t size() const;

  /// Bytes of the base segment's strings: 0 until AdoptAll.
  size_t base_bytes() const;

 private:
  // Index of the slot holding `key` (hash tag `tag`), or of the empty
  // slot where it would go. slots_ must be non-empty.
  size_t ProbeLocked(std::string_view key, uint32_t tag) const;
  // Id of the indexed value `key`, or kNull.
  ValueId FindLocked(std::string_view key, uint32_t tag) const;
  // Id of `key`, interning it if absent.
  ValueId FindOrInsertLocked(std::string_view key, uint32_t tag);
  // The string of entry `id`.
  std::string_view EntryLocked(ValueId id) const {
    return id < base_.size() ? base_[id]
                             : std::string_view(tail_[id - base_.size()]);
  }
  size_t SizeLocked() const { return base_.size() + tail_.size(); }
  void ReserveLocked(size_t n);
  // The slots of `slots` moved by tag alone into a table of `capacity`
  // (a power of two that holds them at load factor 1/2 or less).
  static std::vector<uint64_t> Rehashed(const std::vector<uint64_t>& slots,
                                        size_t capacity);
  // Aborts when `n` entries would reach the labeled-null range.
  static void CheckEntryCount(size_t n);

  mutable std::shared_mutex mutex_;
  DictionaryArena base_;           // ids [0, base_.size()), read-only
  std::deque<std::string> tail_;   // ids from base_.size(); deque: stable
  std::vector<uint64_t> slots_;      // tag << 32 | id; 0 = empty
  size_t indexed_ = 0;               // occupied slots
  std::atomic<uint64_t> next_label_{0};
  // Spellings of the labels StringOf was asked for, made on first use
  // (node-based: references stay valid). Guarded by label_mutex_.
  mutable std::mutex label_mutex_;
  mutable std::unordered_map<ValueId, std::string> label_strings_;
};

using DictionaryPtr = std::shared_ptr<ValueDictionary>;

/// Convenience: a fresh shared dictionary.
inline DictionaryPtr MakeDictionary() {
  return std::make_shared<ValueDictionary>();
}

}  // namespace gent

#endif  // GENT_VALUE_DICTIONARY_H_
