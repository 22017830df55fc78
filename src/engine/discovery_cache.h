// Bounded, thread-safe cache of per-source reclamation answers.
//
// Gen-T's answer for a source — the recall stage, Set Similarity (+
// diversification and schema matching), Expand's key-covering joins,
// Matrix Traversal and Integration — depends only on (source content,
// DiscoveryConfig, row budget, lake, service-wide GenTConfig). Every
// stage is deterministic in those inputs; traversal's thread count is
// covered by the bit-identity contract. With the lake immutable behind
// a ColumnStatsCatalog, repeated sources — a dashboard reclaimed every
// night, retries, many near-identical requests hitting a resident
// ReclaimService — skip the whole pipeline and get a copy of the final
// ReclamationResult it produced the first time: the reclaimed table,
// the originating tables, their names and the predicted EIS. The
// cached unit is the answer, not the expanded candidate tables it was
// built from (~45 of them on TP-TR Small, against ~5 answer tables).
//
// The cache key is a 128-bit fingerprint of everything those stages
// read from a request: the source schema (column names, key columns),
// every column's full cell sequence (which subsumes the per-column
// distinct value sets — discovery also aligns rows, so distinct sets
// alone would under-key), the DiscoveryConfig, the row budget (Expand
// and Integration consult it), and a route tag identifying the catalog
// shard(s). The source's table name is not part of the key: only
// DiscoveryConfig::exclude_table reads it, and the reclaimed table is
// always named "reclaimed". Equal fingerprints therefore have equal
// answers, which is what keeps the cached and uncached reclamation
// paths bit-identical. Wall-clock deadlines are deliberately NOT part
// of the key: they are scheduling-dependent and exempt from the
// determinism contract (a warm hit may simply avoid a deadline a cold
// run would blow — the same caveat batch reclamation documents in
// src/gent/gent.h).
//
// No poisoning. Only a complete answer may enter the cache, so
// ReclaimService populates it under two rules. (1) Only an OK result
// is inserted: traversal and integration report interruption (cancel,
// timeout, row budget) only as an error Status, never as a partial OK
// answer, so an OK result is the full answer. (2) Budget-carrying
// requests (timeout or deadline) never populate — a deadline can
// truncate expansion silently (dropped join paths, no error) and the
// answer built over a truncated set is OK but not the budget-free
// answer the key names. Degraded fan-outs (a shard failed mid-request)
// never populate either: their route tag claims the full target set.
// Fingerprints are compared in full; a collision would need two
// distinct sources agreeing on both 64-bit halves.
//
// Route tags and the shard registry epoch. With runtime shard mutation
// (ReclaimService §5.6: AddLake/RemoveLake/ReloadLake while serving),
// "the shard the request was routed to" is no longer a stable index:
// the table set behind a name can be replaced wholesale. Route tags are
// therefore built from *shard uids* — unique per registration, never
// reused, reassigned on reload — via FoldRouteTags below: a named route
// tags the shard's own uid, and a fan-out route folds the uids of the
// shards its prefilter kept (every serving shard that shares a value
// with the source). Consequences: (a) reloading or re-adding a
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
// the answer's tables outside it, so the lock is never held across
// table copies. The cache reports the cell bytes it holds (Stats::bytes)
// but does not yet bound them.

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
#include "src/gent/gent.h"
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
/// the uid itself: a named route and a fan-out whose prefilter kept
/// only that shard produce identical results, so they deliberately
/// share cache entries. Deterministic, no
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

/// Fingerprints everything the pipeline reads from a request: schema,
/// key columns, full column contents, the discovery config, the row
/// budget, and `route_tag` (the catalog shard — or shard set — the
/// request is routed to; identical sources against different routes
/// must not share entries).
SourceFingerprint FingerprintSource(const Table& source,
                                    const DiscoveryConfig& config,
                                    uint64_t max_rows, uint64_t route_tag);

class DiscoveryCache {
 public:
  /// `capacity` = maximum cached answers, one per (source, route)
  /// fingerprint (0 disables the cache: Lookup always misses, Insert is
  /// a no-op). An entry holds one ReclamationResult — the reclaimed and
  /// originating tables — so Stats::bytes, not capacity, says how much
  /// memory the entries take.
  explicit DiscoveryCache(size_t capacity) : capacity_(capacity) {}

  DiscoveryCache(const DiscoveryCache&) = delete;
  DiscoveryCache& operator=(const DiscoveryCache&) = delete;

  /// A deep copy of the cached answer, or nullopt on a miss. The copy
  /// carries the reclaimed table, the originating tables and names and
  /// the predicted EIS; its phase timings are 0 and cache_hit is false
  /// (the caller stamps both). Callers own the copy and may mutate it;
  /// the cached original is never exposed. Thread-safe; the internal
  /// lock is never held across table copies. A hit is deterministic in
  /// the key: it returns exactly the answer Insert stored under that
  /// fingerprint.
  std::optional<ReclamationResult> Lookup(const SourceFingerprint& key);

  /// Caches a deep copy of `result`'s answer fields (timings and
  /// cache_hit are not kept), evicting the least recently used entry
  /// when full. Inserting an existing key replaces and refreshes it.
  /// Callers insert only complete answers (see "No poisoning" above).
  /// Thread-safe; concurrent inserts under one key keep whichever lands
  /// last (they carry identical answers by the fingerprint contract, so
  /// the race is benign).
  void Insert(const SourceFingerprint& key, const ReclamationResult& result);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t capacity = 0;
    /// Cell bytes held by the cached answers: rows x cols x
    /// sizeof(ValueId) over each entry's reclaimed and originating
    /// tables, charged once at insert and released on eviction,
    /// same-key replace and Clear().
    size_t bytes = 0;
  };
  /// Point-in-time counters. Thread-safe; values are mutually
  /// consistent (read under one lock acquisition).
  Stats stats() const;

  /// Drops every entry and releases its bytes (the hit, miss and
  /// eviction counters are kept). Thread-safe.
  void Clear();

 private:
  struct Entry {
    SourceFingerprint key;
    std::shared_ptr<const ReclamationResult> result;
    size_t bytes = 0;
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
  size_t bytes_ = 0;
};

}  // namespace gent

#endif  // GENT_ENGINE_DISCOVERY_CACHE_H_
