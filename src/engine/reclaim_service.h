// ReclaimService: a resident, multi-lake reclamation server (DESIGN.md
// §5.5–§5.6).
//
// The per-call objects (GenT, BulkReclaim) build a ColumnStatsCatalog,
// answer, and throw everything away. A service that reclaims sources
// continuously — the paper's workloads run 26–515 sources per lake, a
// production deployment runs them forever — wants the opposite shape:
//
//   * several data lakes registered as catalog shards, each built
//     exactly once per registration (optionally warm-started from a
//     binary snapshot or a CSV directory), and mutable at runtime:
//     AddLake*/RemoveLake/ReloadLakeFromSnapshot run concurrently with
//     in-flight requests,
//   * per-request routing: a request that names a shard goes to it; one
//     that names none fans out over every shard that shares a value
//     with the source (a stats prefilter skips the rest, which cannot
//     contribute a candidate),
//   * a bounded per-source discovery cache (src/engine/discovery_cache)
//     so repeated sources skip the whole pipeline — the cache stores
//     each source's final ReclamationResult and a hit returns a copy,
//   * one resident ThreadPool serving batch and async traffic, the
//     async traffic behind a bounded, priority-aware admission queue
//     (SubmitReclaim; the deadline/priority/shedding contract is
//     DESIGN.md §5.9).
//
// The service keeps routing, the cache, the pipeline call (ReclaimImpl)
// and shard construction, and composes three parts that each own their
// lock and state:
//
//   * ShardRegistry (shard_registry.h): the epoch-versioned shard set.
//     A request PINS the current snapshot at admission and serves
//     entirely from it (a batch pins once for all its sources, an async
//     ticket pins at SubmitReclaim), so a retired shard stays alive
//     until the last request pinned to an epoch that contains it
//     drains. Each registration gets a fresh uid (never reused), and
//     discovery-cache route tags are built from (uid, delta_gen), so a
//     reloaded or appended shard never replays entries cached against
//     its old content, while untouched shards keep their warm entries.
//   * AdmissionQueue (admission_queue.h): priority classes, shedding,
//     dead-on-arrival rejection and the tickets of SubmitReclaim.
//   * ShardMaintenance (shard_maintenance.h): shard health (quarantine,
//     backoff, DESIGN.md §5.11) and the one background thread that
//     runs queued folds and recoveries.
//
// Every shard shares one ValueDictionary (fixed at construction), so
// value ids stay comparable across lakes — the precondition for
// cross-shard candidate merging. Sources and appended tables arriving
// with a foreign dictionary are re-interned at admission.
//
// Determinism contract: for a fixed registry snapshot (shards + config)
// the result of a request is bit-identical regardless of thread count,
// concurrent load, routing history, cache state, and whether it was
// submitted synchronously or through the admission queue — a cache hit
// returns exactly the answer the pipeline produced for that
// fingerprint (only ReclamationResult::cache_hit and the phase
// timings tell it apart), the fan-out prefilter skips only shards that
// cannot contribute a candidate, and the downstream pipeline is
// deterministic in its inputs. Reclaim for a single-shard route is
// bit-identical to GenT::Reclaim on that lake. Only wall-clock budgets
// (ReclaimRequest::timeout_seconds) are scheduling-dependent: under
// contention a batch worker's deadline can fire that would not fire
// serially. Concurrent registry mutations choose which
// snapshot a request pins (admission order), never what a pinned
// snapshot answers.
//
// Thread safety: every public method is safe to call concurrently from
// any number of threads, including AddLake*/RemoveLake/
// ReloadLakeFromSnapshot against in-flight Reclaim/ReclaimBatch/
// SubmitReclaim traffic. Catalog builds run outside every lock, so
// registration cost never blocks serving. The one lifetime rule: a lake
// registered with AddLakeView is borrowed and must outlive its shard
// (i.e. remain valid until RemoveLake for that name has returned AND
// in-flight requests pinned to older epochs have drained — or until the
// service is destroyed).

#ifndef GENT_ENGINE_RECLAIM_SERVICE_H_
#define GENT_ENGINE_RECLAIM_SERVICE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/admission_queue.h"
#include "src/engine/discovery_cache.h"
#include "src/engine/shard_maintenance.h"
#include "src/engine/thread_pool.h"
#include "src/gent/gent.h"

namespace gent {

/// How shards built from snapshots store their catalogs (DESIGN.md
/// §5.10). The snapshot picks the backend: a v2 file whose id space
/// matches the service dictionary (SnapshotLoadInfo::identity_remap) is
/// opened mapped (mmap + buffer pool, O(open + fault-in)); a v1 file, a
/// foreign id space, or a failed mapped open rebuilds the catalog in
/// RAM. Results are bit-identical either way.
struct CatalogStorageOptions {
  /// Incremental ingest (DESIGN.md §5.12): fold a snapshot-backed
  /// shard's delta runs back into its base sections when an append
  /// leaves the file with at least this many runs (0 = never compact
  /// automatically; CompactShardSnapshot still works). Compaction runs
  /// on the background maintenance thread (ShardMaintenance, running
  /// when ShardHealthOptions::auto_recover is set), bounding both read
  /// amplification (one spine merge per run per query) and the
  /// predecessor chain appends keep alive.
  size_t compact_after_runs = 8;
};

struct ServiceOptions {
  /// Pipeline configuration for every request on every shard (shards
  /// hold only catalogs). For heavy concurrent Reclaim traffic set
  /// config.traversal.num_threads and config.expand.num_threads to 1
  /// (callers already provide the parallelism); a multi-source
  /// ReclaimBatch and the async path pin both on a multi-thread pool.
  GenTConfig config;
  /// Resident pool threads serving ReclaimBatch and SubmitReclaim.
  /// 0 = hardware concurrency (no cap — thread count never changes
  /// results).
  size_t num_threads = 0;
  /// Discovery-cache capacity in entries (0 disables caching). Each
  /// entry holds one source's final answer for one route — the
  /// reclaimed table plus its originating tables — so an entry's size
  /// follows the answer, not the candidate set; cache_stats().bytes
  /// reports the cell bytes held.
  size_t cache_capacity = 256;
  /// Shared dictionary for all shards (null = a fresh one). Lakes added
  /// with AddLake/AddLakeView must use exactly this dictionary.
  DictionaryPtr dict;
  /// Bound on async requests admitted but not yet started (0 =
  /// unbounded). Together with admission_policy this is the
  /// backpressure knob for SubmitReclaim; synchronous Reclaim/
  /// ReclaimBatch never queue here.
  size_t admission_capacity = 1024;
  /// Queue-full behavior for SubmitReclaim.
  AdmissionPolicy admission_policy = AdmissionPolicy::kBlock;
  /// Catalog storage backend for snapshot-built shards.
  CatalogStorageOptions storage;
  /// Quarantine/recovery policy for shards that hit storage faults.
  ShardHealthOptions health;
};

class ReclaimService {
 public:
  explicit ReclaimService(ServiceOptions options = {});
  ReclaimService(const ReclaimService&) = delete;
  ReclaimService& operator=(const ReclaimService&) = delete;

  // The destructor drains the resident pool first: every admitted
  // async request resolves (run or cancelled), then the background
  // thread stops, before shards, cache, or dictionary are torn down (the
  // members are declared in that order).

  const DictionaryPtr& dict() const { return dict_; }

  // --- Shard lifecycle (thread-safe; serializable among themselves) ------
  //
  // All registration methods may run while the service is serving.
  // Expensive work (CSV parse, snapshot read, catalog build) happens
  // outside the registry lock; only the snapshot swap is serialized.
  // Every successful mutation bumps the registry epoch by one.

  /// Registers an owned lake as shard `name` and builds its catalog.
  /// The lake must use dict(); shard names must be unique.
  Status AddLake(const std::string& name, DataLake lake);

  /// Registers a borrowed lake (must outlive the shard; see the header
  /// comment). Same dictionary and uniqueness rules as AddLake.
  Status AddLakeView(const std::string& name, const DataLake& lake);

  /// Builds a shard from a binary snapshot (src/lake/snapshot) — the
  /// warm-start path: one sequential read, no CSV parsing. For a v2
  /// snapshot with a matching id space, the catalog is opened from the
  /// file's own sections instead of rebuilt — O(open + fault-in); a v1
  /// snapshot or a foreign id space runs the catalog build as for
  /// AddLake. Results are bit-identical between the two paths.
  Status AddLakeFromSnapshot(const std::string& name,
                             const std::string& path);

  /// Writes shard `name`'s lake AND its built catalog to `path` as a v2
  /// snapshot (NotFound if absent). A service on the same dictionary —
  /// including a later incarnation of this one loading into a fresh
  /// dictionary — can AddLakeFromSnapshot it without a catalog rebuild.
  /// Reads from the pinned snapshot; safe against concurrent traffic.
  Status SaveShardSnapshot(const std::string& name,
                           const std::string& path) const;

  /// Builds a shard from a directory of CSVs.
  Status AddLakeFromDirectory(const std::string& name,
                              const std::string& dir);

  /// Retires shard `name` (NotFound if absent). In-flight requests that
  /// pinned an epoch containing the shard drain on it unchanged — their
  /// results are bit-identical to a run without the removal — and the
  /// shard is destroyed when the last of them finishes. Requests
  /// admitted after RemoveLake returns never see the shard.
  Status RemoveLake(const std::string& name) {
    return registry_.Remove(name);
  }

  /// Replaces shard `name` (NotFound if absent) with a fresh shard
  /// built from a binary snapshot, atomically from the point of view of
  /// admission: a request pins either the old shard or the new one,
  /// never a mix. The replacement gets a new shard uid, so discovery-
  /// cache entries against the old content can never be replayed.
  Status ReloadLakeFromSnapshot(const std::string& name,
                                const std::string& path);

  /// Incremental ingest (DESIGN.md §5.12): appends `tables` to shard
  /// `name` WITHOUT a rebuild or reload — the catalog for the new
  /// tables alone is built and layered over the shard's existing one
  /// (ColumnStatsCatalog::WithAppended), and for a snapshot-backed
  /// shard the same run is first appended to the snapshot file
  /// crash-atomically (AppendSnapshotDelta), so durability precedes
  /// visibility: a crash after return replays the append on restart, a
  /// crash during it leaves the old generation intact. Publishes under
  /// the same uid with the delta generation bumped — discovery-cache
  /// entries routed at this shard stop replaying (its content changed)
  /// while entries for untouched shards stay warm. Foreign-dictionary
  /// tables are re-interned; in-flight requests keep serving the pinned
  /// pre-append generation, and results at any generation are
  /// bit-identical to a shard built from all its tables at once.
  ///
  /// Appends and compactions serialize among themselves per service;
  /// fails Aborted when RemoveLake/ReloadLakeFromSnapshot/recovery
  /// replaced the shard mid-append (nothing published), NotFound /
  /// AlreadyExists / InvalidArgument as usual, Unavailable while the
  /// shard is quarantined. A shard backed by a v1 snapshot is refused
  /// InvalidArgument ("not a v2 snapshot") with its file and the
  /// registry untouched; to make it appendable, SaveShardSnapshot it to
  /// a new path (always v2) and ReloadLakeFromSnapshot from that path.
  /// A shard whose v2 file has its own id space (loaded without the
  /// identity remap) gets no delta run, which would be read back in the
  /// file's ids: its grown lake is written whole instead, as a fold
  /// writes it, and later appends are runs again.
  /// When the snapshot's run count reaches
  /// CatalogStorageOptions::compact_after_runs, a background compaction
  /// is queued (see CompactShardSnapshot).
  Status AppendTablesToLake(const std::string& name,
                            std::vector<Table> tables);

  /// Folds shard `name`'s snapshot delta runs into its base sections
  /// from the served generation: the shard's lake and a catalog built
  /// over it are written whole (SaveSnapshotV2: temp + rename,
  /// bit-identical to a one-shot save, in the service dictionary's
  /// ids), and the new file's catalog is mapped over the SAME lake —
  /// no load of the file, no dictionary reload. Republishes under the
  /// SAME uid and delta generation, because the content is unchanged,
  /// so every cache entry stays warm. No-op (OK: no write, no
  /// republish) when the shard's file has no runs. The offline fold of
  /// a file is CompactSnapshotV2. InvalidArgument for shards without a
  /// snapshot backing;
  /// Aborted when the shard was replaced or appended to concurrently
  /// (the fold itself is durable either way — the next reload sees the
  /// compacted file). The background maintenance thread calls this for
  /// shards queued by the compact_after_runs policy.
  Status CompactShardSnapshot(const std::string& name);

  // --- Registry observation (thread-safe) --------------------------------

  size_t num_lakes() const { return registry_.Pin()->shards.size(); }
  std::vector<std::string> lake_names() const;
  /// The lake behind shard `name` (NotFound if absent). The pointer is
  /// guaranteed only while the shard stays registered; do not hold it
  /// across a concurrent RemoveLake/ReloadLakeFromSnapshot of `name`.
  Result<const DataLake*> lake(const std::string& name) const {
    GENT_ASSIGN_OR_RETURN(auto shard, registry_.Find(name));
    return shard->lake.get();
  }
  /// Monotone counter, +1 per successful shard mutation. Two equal
  /// epochs imply the identical shard set (same uids, same order).
  uint64_t registry_epoch() const { return registry_.Pin()->epoch; }

  // --- Serving (thread-safe) ----------------------------------------------

  /// Reclaims one source. Runs in the caller's thread (a server's
  /// request handler); any number of callers may be in flight at once.
  /// Pins the registry snapshot current at entry.
  Result<ReclamationResult> Reclaim(const Table& source,
                                    const ReclaimRequest& request = {}) const;

  /// Reclaims every source over the resident pool — the one batch
  /// engine (BulkReclaim in src/gent/bulk.h is its one-shot wrapper).
  /// results[i] corresponds to sources[i] and is bit-identical to serial
  /// Reclaim calls in input order. The whole batch pins ONE registry snapshot
  /// at entry, so a concurrent shard mutation affects either every
  /// source of the batch or none. The wait is group-scoped: concurrent
  /// batches or async traffic in the same pool never extend it.
  std::vector<Result<ReclamationResult>> ReclaimBatch(
      const std::vector<Table>& sources,
      const ReclaimRequest& request = {}) const;

  /// Async admission: translates the source (if foreign-dictionary),
  /// pins the current registry snapshot, and enqueues the reclamation
  /// behind the bounded admission queue. Returns a ticket immediately
  /// (kBlock may first wait for a slot; kShedOldest evicts the oldest
  /// queued request of the lowest class ≤ the newcomer's, or returns
  /// ResourceExhausted when everything queued outranks it — see
  /// AdmissionPolicy).
  /// Execution order: the pump always starts the oldest queued request
  /// of the highest priority class next (FIFO within a class);
  /// completion order depends on scheduling, but each ticket's RESULT
  /// is bit-identical to a synchronous Reclaim(source, request) against
  /// the pinned snapshot — unless its deadline expires or it is
  /// cancelled, in which case it resolves Timeout/Cancelled with no
  /// partial result. The async path pins intra-pipeline parallelism to
  /// 1 (it optimizes throughput; use Reclaim for latency-sensitive
  /// lone requests).
  Result<ReclaimTicket> SubmitReclaim(Table source,
                                      const ReclaimRequest& request = {}) const;

  // --- Introspection (thread-safe) ----------------------------------------

  DiscoveryCache::Stats cache_stats() const { return cache_.stats(); }
  size_t num_threads() const { return pool_->num_threads(); }

  using AdmissionStats = AdmissionQueue::Stats;
  AdmissionStats admission_stats() const { return admission_.stats(); }

  /// Catalog storage residency of one shard (mapped shards report live
  /// buffer-pool counters; RAM shards are trivially fully resident).
  struct ShardResidency {
    std::string name;
    uint64_t uid = 0;
    ColumnStatsCatalog::Residency catalog;
  };
  /// Per-shard residency, in registry order, from the current snapshot.
  std::vector<ShardResidency> residency_stats() const;

  struct RoutingStats {
    /// Requests routed so far (named or fan-out).
    uint64_t requests = 0;
    /// Shards skipped by the fan-out prefilter (zero value overlap).
    uint64_t shards_pruned = 0;
    /// Shards skipped by fan-out routing because they were quarantined.
    uint64_t shards_quarantine_skipped = 0;
    /// Named-shard requests rejected Unavailable (target quarantined).
    uint64_t unavailable_rejects = 0;
  };
  RoutingStats routing_stats() const;

  // --- Shard health (thread-safe; DESIGN.md §5.11) -------------------------

  using ShardHealthStats = gent::ShardHealthStats;
  /// Per-shard health in registry order, read from each shard's health
  /// cell. Shards that never faulted report kHealthy with zero counters;
  /// a removed, reloaded or re-added shard starts from zero again.
  std::vector<ShardHealthStats> health_stats() const {
    return maintenance_.Stats();
  }

  /// On-demand health probe of shard `name` (NotFound if absent):
  /// checks the catalog backend's sticky storage health, then — for a
  /// snapshot-backed shard — re-verifies the snapshot file end to end
  /// (VerifySnapshotIntegrity). A file that verifies at fewer delta runs
  /// than the shard has published must still hold every table the shard
  /// serves (SnapshotTableCount): a damaged newest footer reads as a
  /// torn append, verifies at the previous generation and loses that
  /// run's tables, while a fold whose rename landed but whose last sync
  /// failed keeps them all at 0 runs. Runs under the append lock, so the
  /// file is not mid-append or mid-fold. A failed probe quarantines the shard
  /// (background recovery takes over) and returns the failure; OK means
  /// the shard is serving and its backing bytes verify.
  Status CheckShardHealth(const std::string& name) const;

 private:
  /// Runs the pipeline for one admitted request — the one place its
  /// budget and configuration are decided. The budget: the timeout runs
  /// from now, the end-to-end deadline from `submitted`, plus the row
  /// cap and `cancel` (may be null) as the cancel token. The
  /// configuration: ServiceOptions::config with the leave-one-out
  /// exclusion, and with traversal and expand pinned to one thread when
  /// the request runs `pooled` beside others on a multi-thread pool.
  Result<ReclamationResult> ReclaimImpl(
      const Table& source, const ReclaimRequest& request,
      const RegistrySnapshot& registry, bool pooled,
      std::chrono::steady_clock::time_point submitted,
      const std::atomic<bool>* cancel) const;

  ServiceOptions options_;
  DictionaryPtr dict_;
  ShardRegistry registry_;

  /// Serializes AppendTablesToLake, CompactShardSnapshot and
  /// CheckShardHealth among themselves. The outermost lock: it is held
  /// while ShardMaintenance's and the registry's are taken, never taken
  /// under them. Concurrent Remove/Reload/recovery still race an append;
  /// the registry's (uid, delta_gen) check turns that race into
  /// Status::Aborted.
  mutable std::mutex append_mutex_;

  mutable DiscoveryCache cache_;

  mutable std::atomic<uint64_t> requests_routed_{0};
  mutable std::atomic<uint64_t> shards_pruned_{0};
  mutable std::atomic<uint64_t> quarantine_skipped_{0};
  mutable std::atomic<uint64_t> unavailable_rejects_{0};

  std::unique_ptr<ThreadPool> pool_;
  // The last two are destroyed first: the queue drains the pool while
  // everything it runs against is alive, then the background thread
  // stops.
  mutable ShardMaintenance maintenance_;
  mutable AdmissionQueue admission_;
};

/// Re-interns `source` into `dict` (labeled nulls become plain nulls).
/// Used at service admission when a source arrives with a foreign
/// dictionary. Thread-safe (the dictionary is internally synchronized);
/// the output's cell STRINGS are deterministic, while newly interned
/// ids depend on interning order across concurrent callers.
Table TranslateToDictionary(const Table& source, const DictionaryPtr& dict);

}  // namespace gent

#endif  // GENT_ENGINE_RECLAIM_SERVICE_H_
