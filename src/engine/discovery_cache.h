// Bounded, thread-safe cache of per-source discovery results.
//
// Everything upstream of Matrix Traversal — the recall stage, Set
// Similarity (+ diversification and schema matching), and Expand's
// key-covering joins — depends only on (source content, DiscoveryConfig,
// row budget, lake). With the lake immutable behind a
// ColumnStatsCatalog, repeated sources — a dashboard reclaimed every
// night, retries, many near-identical requests hitting a resident
// ReclaimService — skip all of it and replay the cached expanded
// candidate-table set. Expansion is cached alongside discovery because
// it dominates the pre-traversal cost (the joins materialize tables;
// the merge-based discovery scans do not).
//
// The cache key is a 128-bit fingerprint of everything those stages
// read: the source schema (column names, key columns), every column's
// full cell sequence (which subsumes the per-column distinct value sets
// — discovery also aligns rows, so distinct sets alone would
// under-key), the DiscoveryConfig, the row budget (Expand consults it),
// and a route tag identifying the catalog shard(s). Equal fingerprints
// therefore replay bit-identical tables, which is what keeps the cached
// and uncached reclamation paths bit-identical (traversal and
// integration are deterministic in their inputs). Wall-clock deadlines
// are deliberately NOT part of the key: they are scheduling-dependent
// and exempt from the determinism contract (a warm hit may simply avoid
// a deadline a cold run would blow — the same caveat batch reclamation
// documents in src/gent/gent.h). The flip side is that deadline-carrying requests must
// never POPULATE the cache — a deadline can truncate expansion silently
// (dropped join paths, no error), and replaying a truncated set to
// untimed requests would poison them; ReclaimService enforces this.
// Fingerprints are compared in full; a collision would need two
// distinct sources agreeing on both 64-bit halves.
//
// Route tags and the shard registry epoch. With runtime shard mutation
// (ReclaimService §5.6: AddLake/RemoveLake/ReloadLake while serving),
// "the shard the request was routed to" is no longer a stable index:
// the table set behind a name can be replaced wholesale. Route tags are
// therefore built from *shard uids* — unique per registration, never
// reused, reassigned on reload — via FoldRouteTags below: a named route
// tags the shard's own uid, a fan-out route folds every uid of the
// pinned registry snapshot, and a stats-prefiltered route folds the
// selected subset's uids. Consequences: (a) reloading or re-adding a
// shard under an old name can never hit entries cached against the old
// content (the uid differs — this is the cache-epoch invalidation the
// lifecycle tests lock in); (b) registry mutations invalidate exactly
// the routes whose shard set changed — named routes to untouched shards
// keep hitting across any number of epochs; (c) entries for retired
// uids become unreachable and age out by LRU (capacity bounds them, so
// no explicit purge is needed).
//
// Eviction is LRU over a fixed entry capacity. Entries are immutable
// and shared: a hit copies a shared_ptr under the lock and deep-clones
// the tables outside it, so the lock is never held across table copies.

#ifndef GENT_ENGINE_DISCOVERY_CACHE_H_
#define GENT_ENGINE_DISCOVERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/discovery/discovery.h"
#include "src/util/hash.h"

namespace gent {

/// Route tag of one shard registration at one delta generation.
/// Incremental ingest (ReclaimService::AppendTablesToLake) mutates a
/// shard's CONTENT without re-registering it: the uid survives, the
/// delta generation bumps. Folding the generation in invalidates
/// exactly the entries whose answering shard grew — named routes to
/// untouched shards, and fan-outs over unchanged shard sets, keep
/// hitting. Generation 0 folds to the bare uid so tags from before a
/// shard's first append (and from shards never appended to) are
/// unchanged. Deterministic, no global state.
inline uint64_t ShardRouteTag(uint64_t uid, uint64_t delta_gen) {
  if (delta_gen == 0) return uid;
  return SplitMix64(uid ^ (delta_gen * 0x9E3779B97F4A7C15ULL));
}

/// Folds an ordered set of shard uids into a route tag (order-sensitive
/// splitmix chain). Callers pass the uids in registry order so the same
/// shard set always folds to the same tag. A one-element set folds to
/// the uid itself: a named route, a fan-out over a one-shard registry,
/// and a prefilter that selected one shard all produce identical
/// results, so they deliberately share cache entries. Deterministic, no
/// global state.
inline uint64_t FoldRouteTags(const std::vector<uint64_t>& shard_uids) {
  if (shard_uids.size() == 1) return shard_uids[0];
  uint64_t tag = 0x67656e745f726f75ULL;  // "gent_rou"
  for (uint64_t uid : shard_uids) tag = SplitMix64(tag ^ uid);
  return tag;
}

/// 128-bit cache key; equality is exact (both halves).
struct SourceFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const SourceFingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
};

struct SourceFingerprintHash {
  size_t operator()(const SourceFingerprint& f) const {
    return static_cast<size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Fingerprints everything the pre-traversal stages read from a source:
/// schema, key columns, full column contents, the discovery config, the
/// row budget, and `route_tag` (the catalog shard — or shard set — the
/// request is routed to; identical sources against different routes
/// must not share entries).
SourceFingerprint FingerprintSource(const Table& source,
                                    const DiscoveryConfig& config,
                                    uint64_t max_rows, uint64_t route_tag);

class DiscoveryCache {
 public:
  /// `capacity` = maximum cached expanded candidate sets (0 disables
  /// the cache: Lookup always misses, Insert is a no-op). Each entry
  /// holds the expanded tables for one (source, route), so capacity is
  /// the memory knob.
  explicit DiscoveryCache(size_t capacity) : capacity_(capacity) {}

  DiscoveryCache(const DiscoveryCache&) = delete;
  DiscoveryCache& operator=(const DiscoveryCache&) = delete;

  /// Deep clones of the cached expanded tables, or nullopt on a miss.
  /// Clones are safe to hand to the (mutation-happy) downstream
  /// pipeline; the cached originals are never exposed. Thread-safe; the
  /// internal lock is never held across table copies. A hit is
  /// deterministic in the key: it replays exactly the tables Insert
  /// stored under that fingerprint.
  std::optional<std::vector<Table>> Lookup(const SourceFingerprint& key);

  /// Caches a deep copy of `tables`, evicting the least recently used
  /// entry when full. Inserting an existing key refreshes it.
  /// Thread-safe; concurrent inserts under one key keep whichever lands
  /// last (they carry identical tables by the fingerprint contract, so
  /// the race is benign).
  void Insert(const SourceFingerprint& key, const std::vector<Table>& tables);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t capacity = 0;
  };
  /// Point-in-time counters. Thread-safe; values are mutually
  /// consistent (read under one lock acquisition).
  Stats stats() const;

  /// Drops every entry (counters are kept). Thread-safe.
  void Clear();

 private:
  struct Entry {
    SourceFingerprint key;
    std::shared_ptr<const std::vector<Table>> tables;
  };

  size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<SourceFingerprint, std::list<Entry>::iterator,
                     SourceFingerprintHash>
      index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace gent

#endif  // GENT_ENGINE_DISCOVERY_CACHE_H_
