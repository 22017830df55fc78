// Shared integer mixer. One definition serves every flat hash table and
// fingerprint in the engine (JoinKeyTable, ValueDictionary,
// FirstOccurrenceRows, SortedDistinctValues, DiscoveryCache) so the
// finalizer cannot drift between copies.

#ifndef GENT_UTIL_HASH_H_
#define GENT_UTIL_HASH_H_

#include <cstdint>

namespace gent {

/// splitmix64 finalizer (Steele et al.): a fast, well-avalanched mix of
/// one 64-bit word. Used as the slot hash of the flat open-addressing
/// tables and, seeded, as the per-word step of streaming fingerprints.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace gent

#endif  // GENT_UTIL_HASH_H_
