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
// Layout: strings live in a deque indexed by id, so references returned
// by StringOf stay valid while the dictionary grows. The string -> id
// index is a flat open-addressing table of uint64_t slots, each holding
// a 32-bit hash tag (high half) and the id (low half); slot value 0 is
// empty, since id 0 is never indexed. A value's home slot is its tag
// masked to the table size and collisions probe linearly; the table
// doubles to keep the load factor at most 1/2, and a rehash moves slots
// by tag alone, without touching a string.
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
// Bulk path: a snapshot load interns its whole dictionary section with
// one InternAll call and gets exactly the ids the same sequence of
// Intern calls would return. Canonical spellings and tags are computed
// before the lock; under one writer-lock acquisition the index is sized
// once, each string is probed once (home slots prefetched a few strings
// ahead) and new strings are moved into the deque, not copied.
//
// Adoption: a dictionary that holds only id 0 can instead adopt a saved
// dictionary whole with AdoptAll — strings in saved id order plus their
// persisted tags (the snapshot's kDictTags section). The strings are
// moved in as ids 1..n and the index is built from the tags alone: no
// canonicalization, no hashing, no string compare. For a section
// written from a dictionary (distinct canonical strings, true tags) the
// result is the dictionary InternAll would build, slot for slot. Tags
// are trusted: a wrong tag only puts a value where no lookup probes, so
// that lookup misses. kTagVersion names the TagOf definition; a file
// stamped with another version is not adopted.
//
// Thread safety: all methods may be called concurrently (guarded by a
// shared_mutex: lookups share it, inserts take it exclusively). This is
// what lets BulkReclaim run many reclamations against one lake in
// parallel.

#ifndef GENT_VALUE_DICTIONARY_H_
#define GENT_VALUE_DICTIONARY_H_

#include <atomic>
#include <cstdint>
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

/// Corpus-wide value interning table. Shared (via shared_ptr) by every
/// table in a data lake so ids are comparable across tables.
class ValueDictionary {
 public:
  ValueDictionary();

  /// Interns `s` (numeric spellings canonicalized) and returns its id.
  /// Empty strings intern to kNull.
  ValueId Intern(std::string_view s);

  /// Returns the id of `s` if already interned, else kNull.
  ValueId Lookup(std::string_view s) const;

  /// Interns every string of `values` in order and appends its id to
  /// `ids`: the ids that calling Intern on each string in turn would
  /// return, under a single writer-lock acquisition. The strings are
  /// moved from. The snapshot loader's dictionary path.
  void InternAll(std::vector<std::string>&& values, std::vector<ValueId>* ids);

  /// Adopts `values` as ids 1..values.size() in order, indexing each by
  /// `tags[i]` (its TagOf) instead of hashing it. Runs under the writer
  /// lock and only when the dictionary holds nothing but id 0; returns
  /// false otherwise, leaving `values` untouched. The caller vouches
  /// that the strings are distinct, non-empty and canonical (a snapshot
  /// dictionary written by SaveSnapshotV2 is). `tags` must have
  /// values.size() entries.
  bool AdoptAll(std::vector<std::string>&& values,
                const std::vector<uint32_t>& tags);

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
  /// The returned reference stays valid for the dictionary's lifetime.
  const std::string& StringOf(ValueId id) const;

  /// Appends the strings of entry ids [first, last) to `out`, in id
  /// order, under one shared-lock acquisition (last <= size()). The
  /// pointers stay valid for the dictionary's lifetime, so callers
  /// read them after the lock is gone: the snapshot writers' walk.
  void StringsOf(ValueId first, ValueId last,
                 std::vector<const std::string*>* out) const;

  /// Allocates a fresh labeled null: a non-null value distinct from
  /// every real value (used by LabelSourceNulls to protect source nulls
  /// from being overwritten during integration). Lock-free.
  ValueId CreateLabeledNull();

  /// True if `id` is a labeled null: a range check, no lock.
  bool IsLabeledNull(ValueId id) const { return id >= kFirstLabeledNull; }

  /// Number of interned values, id 0 included; labeled nulls are not
  /// entries and do not count. Entry ids are exactly [0, size()).
  size_t size() const;

 private:
  // Index of the slot holding `key` (hash tag `tag`), or of the empty
  // slot where it would go. slots_ must be non-empty.
  size_t ProbeLocked(std::string_view key, uint32_t tag) const;
  // Id of the indexed value `key`, or kNull.
  ValueId FindLocked(std::string_view key, uint32_t tag) const;
  // Id of `key`, interning it if absent. `owned`, when given, holds the
  // same bytes as `key` and is moved into the dictionary on insert.
  ValueId FindOrInsertLocked(std::string_view key, uint32_t tag,
                             std::string* owned);
  void ReserveLocked(size_t n);
  // Aborts when `n` entries would reach the labeled-null range.
  static void CheckEntryCount(size_t n);

  mutable std::shared_mutex mutex_;
  std::deque<std::string> strings_;  // deque: stable refs under growth
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
