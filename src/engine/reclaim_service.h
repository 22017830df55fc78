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
//     in-flight requests (see "shard registry" below),
//   * per-request routing: a request that names a shard goes to it; one
//     that names none fans out over every shard that shares a value
//     with the source (a stats prefilter skips the rest, which cannot
//     contribute a candidate),
//   * a bounded per-source discovery cache (src/engine/discovery_cache)
//     so repeated sources skip the whole pipeline — the cache stores
//     each source's final ReclamationResult and a hit returns a copy,
//   * one resident ThreadPool serving batch and async traffic, behind
//     a bounded, priority-aware admission queue (SubmitReclaim):
//     three scheduling classes (RequestPriority) drained
//     highest-first, per-request end-to-end deadlines with
//     dead-on-arrival rejection, shed-oldest overload policy, and
//     cooperative mid-flight cancellation — the deadline/priority/
//     shedding contract is DESIGN.md §5.9.
//
// Every shard shares one ValueDictionary (fixed at construction), so
// value ids stay comparable across lakes — the precondition for
// cross-shard candidate merging. Sources arriving with a foreign
// dictionary are re-interned at admission.
//
// Shard registry (epoch-versioned). The shard set lives in an immutable
// RegistrySnapshot published behind one mutex; every mutation builds a
// new snapshot (copying shared_ptr shard handles, never shard
// contents), bumps the epoch, and swaps the pointer. A request PINS the
// current snapshot at admission and serves entirely from it: a batch
// pins once for all its sources, an async ticket pins at SubmitReclaim.
// A shard retired by RemoveLake/ReloadLakeFromSnapshot therefore stays
// alive — catalog, lake, and all — until the last request pinned to an
// epoch that contains it drains; only then is it destroyed. Each
// registration gets a fresh shard uid (never reused), and discovery-
// cache route tags are built from uids (see discovery_cache.h), so a
// reloaded shard can never replay entries cached against its old
// content, while untouched shards keep their warm entries across any
// number of registry mutations. A shard's health (quarantine state and
// fault history, DESIGN.md §5.11) lives on its handle as well, so a
// retired shard's health is released with its last pin.
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
// SubmitReclaim traffic. Mutations serialize among themselves on the
// registry mutex; catalog builds run outside it, so registration cost
// never blocks serving. The one lifetime rule: a lake registered with
// AddLakeView is borrowed and must outlive its shard (i.e. remain valid
// until RemoveLake for that name has returned AND in-flight requests
// pinned to older epochs have drained — or until the service is
// destroyed).

#ifndef GENT_ENGINE_RECLAIM_SERVICE_H_
#define GENT_ENGINE_RECLAIM_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/discovery_cache.h"
#include "src/engine/thread_pool.h"
#include "src/gent/gent.h"
#include "src/lake/snapshot.h"

namespace gent {

/// What SubmitReclaim does when the admission queue is full.
enum class AdmissionPolicy {
  /// Block the submitter until a slot frees (backpressure propagates to
  /// the producer; submission order is preserved per submitter).
  kBlock,
  /// Admit the new request by shedding the oldest queued request of the
  /// lowest priority class at or below the newcomer's own (its ticket
  /// resolves ResourceExhausted). If everything queued outranks the
  /// newcomer, the newcomer itself is rejected instead — shedding never
  /// evicts higher-priority work (DESIGN.md §5.9).
  kShedOldest,
};

/// Scheduling class of an async request (SubmitReclaim). Within a
/// class the queue is FIFO; across classes the pump always runs the
/// highest class first. Enumerator values are queue indices.
enum class RequestPriority {
  kHigh = 0,    // interactive traffic
  kNormal = 1,  // default
  kBatch = 2,   // backfill / best-effort
};

/// Number of RequestPriority classes (queue array size).
inline constexpr size_t kNumPriorityClasses = 3;

/// Serving state of one shard (DESIGN.md §5.11). State only ever moves
/// kHealthy → kQuarantined → (kHealthy | kDegraded) through recovery;
/// a kDegraded shard serves correctly (its catalog was rebuilt in RAM
/// from the snapshot body) but lost its mapped backend.
enum class ShardHealth {
  kHealthy = 0,
  /// Serving, but recovered via the salvage path (body reload + catalog
  /// rebuild) because the snapshot's catalog tail stayed damaged.
  kDegraded = 1,
  /// Not serving: routing skips the shard (a fan-out answers from the
  /// remaining shards; a named-shard request gets Unavailable)
  /// while background recovery retries with exponential backoff.
  kQuarantined = 2,
};

/// Self-healing policy for quarantined shards (DESIGN.md §5.11).
struct ShardHealthOptions {
  /// Run the background recovery thread. Off = shards stay quarantined
  /// until replaced explicitly (ReloadLakeFromSnapshot).
  bool auto_recover = true;
  /// First retry delay after quarantine, seconds; doubles per failed
  /// attempt up to backoff_max_seconds.
  double backoff_initial_seconds = 0.5;
  double backoff_max_seconds = 30.0;
};

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
  /// on the background recovery thread (ShardHealthOptions::
  /// auto_recover), bounding both read amplification (one spine merge
  /// per run per query) and the predecessor chain appends keep alive.
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

/// Per-request options.
struct ReclaimRequest {
  /// Route to the shard with this name (NotFound if absent, Unavailable
  /// while it is quarantined). Empty = fan out: discover on every
  /// serving shard that shares a value with the source
  /// (ColumnStatsCatalog::SharesAnyValue) and merge candidates by score.
  /// A skipped shard cannot contribute a candidate, so the answer is
  /// bit-identical to fanning out over every shard (DESIGN.md §5.6).
  std::string lake;
  /// Per-source wall-clock budget, seconds (0 = unlimited), measured
  /// from EXECUTION start. Scheduling-dependent; use max_rows where
  /// strict reproducibility matters. Budget-carrying requests may hit
  /// the discovery cache but never populate it (see discovery_cache.h).
  double timeout_seconds = 0.0;
  /// End-to-end deadline, seconds from SUBMISSION (0 = none): unlike
  /// timeout_seconds it covers queue wait. A request whose deadline
  /// expires while still queued resolves Timeout without running
  /// (dead-on-arrival rejection); one that expires mid-flight aborts at
  /// the next pipeline checkpoint (DESIGN.md §5.9). Composes with
  /// timeout_seconds — the earlier of the two wins. Same cache rule as
  /// timeout_seconds: may hit, never populates.
  double deadline_seconds = 0.0;
  /// Scheduling class for SubmitReclaim (ignored by the synchronous
  /// paths, which never queue): the pump always starts the oldest
  /// request of the highest queued class next.
  RequestPriority priority = RequestPriority::kNormal;
  /// Per-source intermediate row budget (0 = unlimited).
  uint64_t max_rows = 0;
  /// Leave-one-out protocols: exclude the lake table named like the
  /// source from its own candidacy.
  bool exclude_source_name = false;
  /// Skip the discovery cache for this request (parity testing,
  /// debugging). Results are bit-identical either way.
  bool bypass_cache = false;
};

/// Move-only handle to an asynchronously admitted reclamation
/// (SubmitReclaim). The ticket may outlive the service: destroying the
/// service drains the pool first, so every outstanding ticket resolves
/// before the service's state goes away.
class ReclaimTicket {
 public:
  ReclaimTicket() = default;
  ReclaimTicket(ReclaimTicket&&) = default;
  ReclaimTicket& operator=(ReclaimTicket&&) = default;
  ReclaimTicket(const ReclaimTicket&) = delete;
  ReclaimTicket& operator=(const ReclaimTicket&) = delete;

  /// False for a default-constructed (empty) ticket.
  bool valid() const { return state_ != nullptr; }

  /// Blocks until the result is ready and returns a reference to it
  /// (valid while the ticket is alive). Thread-safe; any number of
  /// threads may Wait on one ticket. Requires valid().
  const Result<ReclamationResult>& Wait() const;

  /// Non-consuming readiness wait with a timeout: true once the result
  /// is available, false if `timeout` elapsed first. The ticket is
  /// untouched either way — callers poll as often as they like and
  /// still Wait() for the value. Requires valid().
  bool WaitFor(std::chrono::steady_clock::duration timeout) const;

  /// Same against an absolute steady-clock deadline.
  bool WaitUntil(std::chrono::steady_clock::time_point deadline) const;

  /// Non-blocking: true once the result is available. Requires valid().
  bool ready() const;

  /// When the ticket resolved (steady clock). Requires ready(); used by
  /// open-loop latency harnesses so a completion timestamp needs no
  /// dedicated waiting thread per ticket.
  std::chrono::steady_clock::time_point completed_at() const;

  /// Requests cancellation. Returns true if the ticket had not yet
  /// resolved — the ticket is then GUARANTEED to resolve
  /// Status::Cancelled: before execution starts the pump discards the
  /// request outright; mid-flight the pipeline stops cooperatively at
  /// its next checkpoint (DESIGN.md §5.9) and no partial result
  /// escapes (a result completed in the race window is discarded).
  /// Returns false only when the result was already published.
  /// Idempotent and thread-safe.
  bool Cancel() const;

 private:
  friend class ReclaimService;
  struct SharedState;
  std::shared_ptr<SharedState> state_;
};

class ReclaimService {
 public:
  explicit ReclaimService(ServiceOptions options = {});

  /// Joins the resident pool first: every admitted async request
  /// resolves (run or cancelled) before shards, cache, or dictionary
  /// are torn down.
  ~ReclaimService();

  ReclaimService(const ReclaimService&) = delete;
  ReclaimService& operator=(const ReclaimService&) = delete;

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
  Status RemoveLake(const std::string& name);

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
  /// compacted file). The background recovery thread calls this for
  /// shards queued by the compact_after_runs policy.
  Status CompactShardSnapshot(const std::string& name);

  // --- Registry observation (thread-safe) --------------------------------

  size_t num_lakes() const;
  std::vector<std::string> lake_names() const;
  /// The lake behind shard `name` (NotFound if absent). The pointer is
  /// guaranteed only while the shard stays registered; do not hold it
  /// across a concurrent RemoveLake/ReloadLakeFromSnapshot of `name`.
  Result<const DataLake*> lake(const std::string& name) const;
  /// Monotone counter, +1 per successful shard mutation. Two equal
  /// epochs imply the identical shard set (same uids, same order).
  uint64_t registry_epoch() const;

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

  struct AdmissionStats {
    /// Async requests admitted but not yet started (total across
    /// priority classes).
    size_t queued = 0;
    /// Admission-queue capacity (0 = unbounded).
    size_t capacity = 0;
    /// Current queue depth per priority class (indexed by
    /// RequestPriority; sums to `queued`).
    std::array<size_t, kNumPriorityClasses> queue_depth = {0, 0, 0};
    /// SubmitReclaim calls rejected with ResourceExhausted so far
    /// (kShedOldest with nothing sheddable).
    uint64_t rejected = 0;
    /// Queued tickets evicted by kShedOldest (resolved
    /// ResourceExhausted without running).
    uint64_t shed = 0;
    /// Tickets whose deadline expired while queued (resolved Timeout
    /// without running — dead-on-arrival rejection).
    uint64_t deadline_expired_in_queue = 0;
    /// Tickets that resolved to Cancelled before running.
    uint64_t cancelled = 0;
    /// Tickets cancelled after execution started (pipeline aborted at a
    /// checkpoint and resolved Cancelled).
    uint64_t cancelled_mid_flight = 0;
    /// Tasks sitting in the resident pool's queue right now — async
    /// requests plus batch shards (ThreadPool::queue_depth; stale the
    /// moment it is read).
    size_t pool_backlog = 0;
  };
  AdmissionStats admission_stats() const;

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

  /// One shard's health, as reported by health_stats().
  struct ShardHealthStats {
    std::string name;
    uint64_t uid = 0;
    ShardHealth state = ShardHealth::kHealthy;
    /// Storage faults observed against this shard so far.
    uint64_t error_count = 0;
    /// Failed background recovery attempts since quarantine.
    uint64_t recovery_attempts = 0;
    /// Successful recoveries in the shard's history (a recovered shard
    /// is a new registration with a new uid; it inherits this count and
    /// error_count from the one it replaced).
    uint64_t recoveries = 0;
    /// The last recovery had to rebuild the catalog from the snapshot
    /// body (v2 tail damaged) — the shard serves, state kDegraded.
    bool rebuilt_from_body = false;
    std::string last_error;
    /// Seconds until the next recovery attempt (0 when due/serving;
    /// -1 when retries are disabled: auto_recover off, or no snapshot
    /// to recover from).
    double next_retry_in_seconds = 0;
  };
  /// Per-shard health in registry order, read from each shard's health
  /// cell. Shards that never faulted report kHealthy with zero counters;
  /// a removed, reloaded or re-added shard starts from zero again.
  std::vector<ShardHealthStats> health_stats() const;

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
  /// Health of one shard registration (DESIGN.md §5.11). Every content
  /// generation of the registration — appends and compactions keep the
  /// uid — shares one cell; a recovery publishes a new registration with
  /// a new cell, seeded with this one's history. A retired cell dies with
  /// the last pin on its shard.
  struct ShardHealthCell {
    /// The routing gate, read lock-free by every request. One-way: a
    /// quarantined registration is only ever replaced (by recovery or
    /// ReloadLakeFromSnapshot) or removed, never un-quarantined.
    std::atomic<bool> quarantined{false};
    // Guarded by health_mutex_. The reported state is derived:
    // quarantined ? kQuarantined : rebuilt_from_body ? kDegraded : kHealthy.
    uint64_t error_count = 0;
    uint64_t attempts = 0;    // failed recovery attempts this quarantine
    uint64_t recoveries = 0;  // successful recoveries in the history
    bool rebuilt_from_body = false;
    bool retry_enabled = true;  // false for a shard with no snapshot
    std::string last_error;
    std::chrono::steady_clock::time_point next_retry{};
  };

  struct Shard {
    std::string name;
    uint64_t uid = 0;  // unique per registration, never reused
    /// Null for AddLakeView shards. Shared: a fold republishes the
    /// served lake itself under a catalog mapped from the new file.
    std::shared_ptr<const DataLake> owned;
    const DataLake* lake = nullptr;
    /// Never null: built in RAM over `lake`, mapped from the snapshot
    /// file, or layered over the predecessor's by an append. Requests
    /// run the pipeline over it with ServiceOptions::config.
    std::shared_ptr<const ColumnStatsCatalog> catalog;
    /// Snapshot file this shard was built from; empty for lakes built
    /// in RAM or from CSVs. Non-empty is what makes the shard
    /// disk-recoverable after quarantine.
    std::string source_path;
    /// What `source_path` held when this generation was published: the
    /// load's SnapshotLoadInfo, with delta_runs the append's new total.
    /// A file written whole from the served lake (a fold, or an append
    /// to a foreign id space) is v2 in the service's ids with no runs.
    /// A file that later verifies at fewer runs and fewer tables has
    /// lost a committed append (CheckShardHealth). Only a file in the service's ids
    /// (identity_remap) takes delta runs: a run is written in the
    /// service's ids, and a file with its own id space would read them
    /// as its own.
    SnapshotLoadInfo file;
    /// Appends applied to this registration (AppendTablesToLake), 0 at
    /// registration. (uid, delta_gen) identifies shard CONTENT for the
    /// discovery cache (ShardRouteTag); compaction keeps both.
    uint64_t delta_gen = 0;
    /// The pre-append shard this registration's layered catalog borrows
    /// views from (null for fresh registrations and compacted reopens).
    /// Keeps the predecessor's lake and catalog alive; the chain's
    /// length is bounded by the compaction policy.
    std::shared_ptr<const Shard> predecessor;
    /// Never null; shared by every generation of this registration.
    std::shared_ptr<ShardHealthCell> health;
  };

  /// Immutable once published; mutations swap whole snapshots.
  struct RegistrySnapshot {
    uint64_t epoch = 0;
    std::vector<std::shared_ptr<const Shard>> shards;  // names unique
  };
  using RegistryPtr = std::shared_ptr<const RegistrySnapshot>;

  /// Copies the current snapshot pointer (the pin operation).
  RegistryPtr Pin() const;

  /// The shard named `name` in `registry` (NotFound if absent).
  static Result<std::shared_ptr<const Shard>> Find(
      const RegistrySnapshot& registry, const std::string& name);

  /// Builds a shard handle, with a fresh health cell, outside every lock
  /// — the one place a registration's catalog is built. `catalog` (may
  /// be null) is a prebuilt catalog over the lake (the mapped
  /// snapshot-open and layered-append paths); otherwise the shard builds
  /// one. The caller sets delta_gen, and uid and health when the handle
  /// continues an existing registration.
  std::shared_ptr<Shard> MakeShard(
      const std::string& name, std::shared_ptr<const DataLake> owned,
      const DataLake* borrowed,
      std::shared_ptr<const ColumnStatsCatalog> catalog,
      const std::string& source_path = std::string(),
      const SnapshotLoadInfo& file = SnapshotLoadInfo()) const;

  /// The one publish of a new registration (every AddLake* flavor):
  /// refuses an empty or taken name, assigns a fresh uid and swaps in a
  /// snapshot with the shard appended.
  Status RegisterShard(std::shared_ptr<Shard> shard);

  /// Shared by AddLakeFromSnapshot, ReloadLakeFromSnapshot and
  /// recovery: loads `path` into a fresh lake on the service dictionary
  /// and makes a shard of it, with the catalog sections mapped when the
  /// snapshot is v2 with an identity remap (built in RAM otherwise) and
  /// `file` set from the load.
  Result<std::shared_ptr<Shard>> LoadShard(const std::string& name,
                                           const std::string& path) const;

  /// Opens `path`'s catalog sections mapped over `lake` without
  /// re-checksumming (the caller has just verified or written the
  /// file). Null on failure: a mapped open is an optimization, and a
  /// RAM catalog serves identically.
  std::shared_ptr<const ColumnStatsCatalog> OpenMappedCatalog(
      const DataLake& lake, const std::string& path) const;

  /// Writes `lake` whole to `path` — SaveSnapshotV2 of a catalog built
  /// over it, in the service's ids — and returns the catalog to serve
  /// it with: the new file's sections mapped over `lake`, or the built
  /// catalog when the mapped open fails. The fold of
  /// CompactShardSnapshot, and the append to a file with a foreign id
  /// space.
  Result<std::shared_ptr<const ColumnStatsCatalog>> WriteShardFile(
      const DataLake& lake, const std::string& path) const;

  /// Shared tail of every registry mutation: publishes `next` as the
  /// new snapshot under the registry mutex.
  void PublishLocked(std::shared_ptr<RegistrySnapshot> next);

  /// The one replace-shard step (ReloadLakeFromSnapshot,
  /// AppendTablesToLake, CompactShardSnapshot, AttemptRecovery). Under
  /// the registry mutex: finds shard `shard->name`; when `expected` is
  /// non-null, requires the registered shard to still be that content
  /// generation (same uid and delta_gen); assigns a fresh uid if
  /// `shard->uid` is 0; swaps `shard` into the slot and publishes. False
  /// = nothing published (name gone or check failed); each caller maps
  /// that to its own status.
  bool ReplaceShard(std::shared_ptr<Shard> shard, const Shard* expected);

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

  /// One queued async request, self-contained (owns its pinned
  /// snapshot). Sitting in admission_queues_ until a pump pops it or
  /// kShedOldest evicts it.
  struct Pending {
    std::shared_ptr<ReclaimTicket::SharedState> state;
    std::shared_ptr<const Table> source;
    ReclaimRequest request;
    RegistryPtr registry;
    std::chrono::steady_clock::time_point submitted{};
  };

  /// Pool task draining one admission-queue entry: pops the oldest
  /// request of the highest non-empty class and runs (or rejects) it.
  /// Invariant: outstanding pump tasks == queued entries, so a pump
  /// always finds one (shedding swaps the entry under a pump, never
  /// the count).
  void PumpOne() const;

  /// Why a result is being published — selects which admission counter
  /// to bump (inside Publish, before waiters wake, so a Wait() +
  /// admission_stats() sequence always observes the increment).
  enum class PublishContext {
    kShed,             // kShedOldest eviction (counted under the admission lock)
    kPreStartCancel,   // pump found the ticket cancelled while queued
    kDeadlineInQueue,  // dead-on-arrival: deadline expired while queued
    kExecuted,         // the pipeline ran (normally or to an abort)
  };

  /// Publishes `result` to a ticket (stamping completed_at, waking
  /// waiters). A Cancel() that won the race forces the published status
  /// to Cancelled — a completed-but-unpublished result is discarded —
  /// so Cancel()==true always implies a Cancelled resolution. Returns
  /// the status code actually published.
  StatusCode Publish(ReclaimTicket::SharedState& state,
                     Result<ReclamationResult> result,
                     PublishContext context) const;

  ServiceOptions options_;
  DictionaryPtr dict_;

  mutable std::mutex registry_mutex_;  // guards registry_ swap + uid counter
  RegistryPtr registry_;
  uint64_t next_shard_uid_ = 1;

  /// Serializes AppendTablesToLake and CompactShardSnapshot among
  /// themselves. Lock order: append_mutex_ → health_mutex_ →
  /// registry_mutex_ (each may be skipped; none is ever taken while a
  /// later one in the order is held). Concurrent
  /// Remove/Reload/recovery still race an append; ReplaceShard's
  /// (uid, delta_gen) check turns that race into Status::Aborted.
  mutable std::mutex append_mutex_;

  mutable DiscoveryCache cache_;

  mutable std::mutex admission_mutex_;
  mutable std::condition_variable admission_space_;
  mutable std::array<std::deque<Pending>, kNumPriorityClasses>
      admission_queues_;
  mutable size_t admission_queued_ = 0;  // sum over admission_queues_
  mutable uint64_t admission_rejected_ = 0;
  mutable uint64_t admission_shed_ = 0;
  mutable std::atomic<uint64_t> admission_cancelled_{0};
  mutable std::atomic<uint64_t> admission_deadline_expired_{0};
  mutable std::atomic<uint64_t> admission_cancelled_mid_flight_{0};

  mutable std::atomic<uint64_t> requests_routed_{0};
  mutable std::atomic<uint64_t> shards_pruned_{0};
  mutable std::atomic<uint64_t> quarantine_skipped_{0};
  mutable std::atomic<uint64_t> unavailable_rejects_{0};

  // --- Shard health and maintenance (DESIGN.md §5.11) ---------------------
  //
  // Health lives on the shard (Shard::health). The serving path reads
  // one atomic flag per routed shard and takes no lock.

  /// Records a storage fault against `shard`'s registration; the first
  /// fault quarantines it and wakes the recovery thread.
  void NoteShardFault(const Shard& shard, const std::string& error) const;

  /// Background maintenance loop: drains queued compactions first, then
  /// scans the pinned registry's health cells for the earliest due retry
  /// and attempts one recovery — all actual work outside the locks.
  void RecoveryLoop();
  /// One recovery attempt for the quarantined generation `old`: full
  /// reopen first, body-salvage + rebuild as fallback, reschedule on
  /// failure.
  void AttemptRecovery(const std::shared_ptr<const Shard>& old);

  /// Guards every ShardHealthCell's non-atomic fields, the compaction
  /// queue and stopping_. RecoveryLoop pins the registry while holding
  /// it; nothing takes it while holding registry_mutex_.
  mutable std::mutex health_mutex_;
  mutable std::condition_variable health_cv_;
  /// Shards awaiting a background fold (compact_after_runs policy),
  /// by name; drained by RecoveryLoop before recovery work. Duplicates
  /// are benign (the fold is idempotent).
  mutable std::deque<std::string> compaction_queue_;
  bool stopping_ = false;
  std::thread recovery_thread_;

  // Declared last: destroyed first, draining every admitted task while
  // the members above are still alive.
  std::unique_ptr<ThreadPool> pool_;
};

/// Re-interns `source` into `dict` (labeled nulls become plain nulls).
/// Used at service admission when a source arrives with a foreign
/// dictionary. Thread-safe (the dictionary is internally synchronized);
/// the output's cell STRINGS are deterministic, while newly interned
/// ids depend on interning order across concurrent callers.
Table TranslateToDictionary(const Table& source, const DictionaryPtr& dict);

}  // namespace gent

#endif  // GENT_ENGINE_RECLAIM_SERVICE_H_
