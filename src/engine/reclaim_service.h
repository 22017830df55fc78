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
//   * per-request routing: a request names its shard, fans out across
//     every shard, or lets a stats prefilter skip shards that share no
//     value with the source (RoutingPolicy),
//   * a bounded per-source discovery cache (src/engine/discovery_cache)
//     so repeated sources skip the recall, Set Similarity, and
//     expansion stages entirely — the cache stores the expanded
//     candidate tables, the whole pre-traversal product,
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
// number of registry mutations.
//
// Determinism contract: for a fixed registry snapshot (shards + config)
// the result of a request is bit-identical regardless of thread count,
// concurrent load, routing history, cache state, and whether it was
// submitted synchronously or through the admission queue — a cache hit
// replays exactly the candidate set discovery would produce, the
// stats-prefilter route skips only shards that cannot contribute a
// candidate, and the downstream pipeline is deterministic in its
// inputs. Reclaim for a single-shard route is bit-identical to
// GenT::Reclaim on that lake. Only wall-clock budgets
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
#include <unordered_map>
#include <vector>

#include "src/engine/discovery_cache.h"
#include "src/engine/thread_pool.h"
#include "src/gent/gent.h"

namespace gent {

/// What SubmitReclaim does when the admission queue is full.
enum class AdmissionPolicy {
  /// Block the submitter until a slot frees (backpressure propagates to
  /// the producer; submission order is preserved per submitter).
  kBlock,
  /// Fail fast with ResourceExhausted (the caller sheds load).
  kReject,
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
  /// Not serving: routing skips the shard (fan-out policies answer from
  /// the remaining shards; a named-shard request gets Unavailable)
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
  /// Multiplicative jitter: each delay is scaled by a deterministic
  /// per-(shard, attempt) factor in [1 - jitter, 1 + jitter], so a
  /// fleet quarantined by one event does not retry in lockstep.
  double backoff_jitter = 0.25;
  /// Give up rescheduling after this many failed recovery attempts
  /// (0 = retry forever). The shard then stays quarantined until an
  /// explicit ReloadLakeFromSnapshot/RemoveLake.
  size_t max_recovery_attempts = 0;
};

/// How shards built from snapshots store their catalogs (DESIGN.md
/// §5.10).
struct CatalogStorageOptions {
  /// For a v2 snapshot whose id space matches the service dictionary
  /// (SnapshotLoadInfo::identity_remap — always true when the snapshot
  /// was saved from this service's own dictionary, or loaded into a
  /// fresh one), open the on-disk catalog sections via mmap + buffer
  /// pool instead of rebuilding: O(open + fault-in) registration.
  /// Falls back to the rebuild path transparently when the snapshot is
  /// v1 or the id spaces differ; results are bit-identical either way.
  bool map_v2_snapshots = true;
  /// ONE buffer-pool capacity budget for the UNPINNED resident set of
  /// ALL mapped shards together, in 64 KiB blocks (0 = unbounded
  /// fault-in). Shards no longer get a private cap each: a service's
  /// shards share the allowance, so a cold shard's fault-in evicts the
  /// fleet's coldest blocks instead of thrashing its own small pool
  /// while others idle (storage::PoolBudget; DESIGN.md §5.12). The hot
  /// spines (postings spine, CSR offsets, column index — base and delta
  /// runs) stay pinned and exempt.
  size_t pool_capacity_blocks = 0;
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
  /// Pipeline configuration shared by every shard. For heavy concurrent
  /// Reclaim traffic set config.traversal.num_threads and
  /// config.expand.num_threads to 1 (callers already provide the
  /// parallelism); ReclaimBatch and the async path pin both regardless.
  GenTConfig config;
  /// Resident pool threads serving ReclaimBatch and SubmitReclaim.
  /// 0 = hardware concurrency (no cap — thread count never changes
  /// results).
  size_t num_threads = 0;
  /// Discovery-cache capacity in expanded candidate sets (0 disables
  /// caching). Each entry holds one source's expanded tables for one
  /// route, so this is the memory knob.
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
  /// Per-priority-class queue caps, indexed by RequestPriority (0 =
  /// that class is uncapped). A full class applies admission_policy to
  /// the newcomer's own class: kReject fails fast, kBlock waits for a
  /// slot in the class, kShedOldest evicts the class's own oldest
  /// entry. Caps compose with admission_capacity (both must admit).
  std::array<size_t, kNumPriorityClasses> priority_capacity = {0, 0, 0};
  /// Catalog storage backend for snapshot-built shards.
  CatalogStorageOptions storage;
  /// Quarantine/recovery policy for shards that hit storage faults.
  ShardHealthOptions health;
};

/// How a request picks its catalog shard(s).
enum class RoutingPolicy {
  /// Back-compat default: named shard if ReclaimRequest::lake is set,
  /// fan-out over all shards otherwise.
  kAuto,
  /// Route to ReclaimRequest::lake (InvalidArgument if empty, NotFound
  /// if no such shard).
  kNamedShard,
  /// Discover on every shard and merge candidates by score
  /// (ReclaimRequest::lake must be empty).
  kFanOutAll,
  /// Fan-out, but first consult each shard's ColumnStatsCatalog and
  /// skip shards sharing no value with the source
  /// (!ColumnStatsCatalog::SharesAnyValue). Such shards cannot
  /// contribute a candidate, so results are bit-identical to
  /// kFanOutAll; only the per-shard discovery work — and the cache
  /// route tag, which covers exactly the surviving shard set — differ.
  kStatsPrefilter,
};

/// Per-request options.
struct ReclaimRequest {
  /// Route to the shard with this name; empty = fan out (see `policy`).
  std::string lake;
  /// Shard-selection policy; kAuto preserves the pre-§5.6 behavior.
  RoutingPolicy policy = RoutingPolicy::kAuto;
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
  /// snapshot with a matching id space (and
  /// CatalogStorageOptions::map_v2_snapshots), the catalog is opened
  /// from the file's own sections instead of rebuilt — O(open +
  /// fault-in); otherwise the catalog build runs as for AddLake.
  /// Results are bit-identical between the two paths.
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
  /// shard is quarantined. When the snapshot's run count reaches
  /// CatalogStorageOptions::compact_after_runs, a background compaction
  /// is queued (see CompactShardSnapshot).
  Status AppendTablesToLake(const std::string& name,
                            std::vector<Table> tables);

  /// Folds shard `name`'s snapshot delta runs into its base sections
  /// (CompactSnapshotV2: rewrite-and-rename, bit-identical to a
  /// one-shot save) and republishes the shard from the compacted file —
  /// SAME uid and delta generation, because the content is unchanged,
  /// so every cache entry stays warm. No-op (OK) when the file has no
  /// runs. InvalidArgument for shards without a snapshot backing;
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
  /// (kBlock may first wait for a slot; kReject returns
  /// ResourceExhausted; kShedOldest evicts the oldest queued request of
  /// the lowest class ≤ the newcomer's — see AdmissionPolicy).
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
    /// (kReject, or kShedOldest with nothing sheddable).
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
    /// Requests routed so far (any policy).
    uint64_t requests = 0;
    /// Shards skipped by kStatsPrefilter (zero value overlap).
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
    /// carries a new uid; the count survives the re-key).
    uint64_t recoveries = 0;
    /// The last recovery had to rebuild the catalog from the snapshot
    /// body (v2 tail damaged) — the shard serves, state kDegraded.
    bool rebuilt_from_body = false;
    std::string last_error;
    /// Seconds until the next recovery attempt (0 when due/serving;
    /// -1 when retries are exhausted or disabled).
    double next_retry_in_seconds = 0;
  };
  /// Per-shard health in registry order, joined with the health map.
  /// Shards that never faulted report kHealthy with zero counters.
  std::vector<ShardHealthStats> health_stats() const;

  /// On-demand health probe of shard `name` (NotFound if absent):
  /// checks the catalog backend's sticky storage health, then — for a
  /// snapshot-backed shard — re-verifies the snapshot file end to end
  /// (VerifySnapshotIntegrity). A failed probe quarantines the shard
  /// (background recovery takes over) and returns the failure; OK means
  /// the shard is serving and its backing bytes verify.
  Status CheckShardHealth(const std::string& name) const;

 private:
  struct Shard {
    std::string name;
    uint64_t uid = 0;                 // unique per registration, never reused
    std::unique_ptr<DataLake> owned;  // null for AddLakeView shards
    const DataLake* lake = nullptr;
    std::unique_ptr<GenT> gent;       // shard catalog lives inside
    /// Snapshot file this shard was built from; empty for lakes built
    /// in RAM or from CSVs. Non-empty is what makes the shard
    /// disk-recoverable after quarantine.
    std::string source_path;
    /// Appends applied to this registration (AppendTablesToLake), 0 at
    /// registration. (uid, delta_gen) identifies shard CONTENT for the
    /// discovery cache (ShardRouteTag); compaction keeps both.
    uint64_t delta_gen = 0;
    /// The pre-append shard this registration's layered catalog borrows
    /// views from (null for fresh registrations and compacted reopens).
    /// Keeps the predecessor's lake and catalog alive; the chain's
    /// length is bounded by the compaction policy.
    std::shared_ptr<const Shard> predecessor;
  };

  /// Immutable once published; mutations swap whole snapshots.
  struct RegistrySnapshot {
    uint64_t epoch = 0;
    uint64_t fanout_tag = 0;  // FoldRouteTags over all shard uids
    std::vector<std::shared_ptr<const Shard>> shards;
    std::unordered_map<std::string, size_t> by_name;
  };
  using RegistryPtr = std::shared_ptr<const RegistrySnapshot>;

  /// Copies the current snapshot pointer (the pin operation).
  RegistryPtr Pin() const;

  /// Builds shard state outside the lock, then swaps in a snapshot with
  /// it appended. Used by all four AddLake* flavors. `catalog` (may be
  /// null) is a prebuilt catalog over the lake — the mapped-open path —
  /// otherwise the shard builds one.
  Status RegisterShard(const std::string& name,
                       std::unique_ptr<DataLake> owned,
                       const DataLake* borrowed,
                       std::shared_ptr<const ColumnStatsCatalog> catalog,
                       const std::string& source_path = std::string());

  /// Shared by AddLakeFromSnapshot/ReloadLakeFromSnapshot: loads `path`
  /// into a fresh lake on the service dictionary and, when the snapshot
  /// is v2 + identity-remap + storage options allow, opens its catalog
  /// sections mapped (null `*catalog` = caller builds as usual).
  Status LoadShardFromSnapshot(
      const std::string& path, std::unique_ptr<DataLake>* lake,
      std::shared_ptr<const ColumnStatsCatalog>* catalog) const;

  /// Shared tail of RegisterShard/ReloadLakeFromSnapshot: publishes
  /// `next` as the new snapshot under the registry mutex.
  void PublishLocked(std::shared_ptr<RegistrySnapshot> next);

  /// Runs the pipeline for one admitted request. `limits` carries the
  /// caller-built budget (timeout and/or absolute deadline, row cap,
  /// cancel token); `request` still supplies routing/cache knobs and
  /// the populate-cache eligibility test.
  Result<ReclamationResult> ReclaimImpl(
      const Table& source, const ReclaimRequest& request,
      const RegistrySnapshot& registry, const TraversalOptions& traversal,
      const ExpandOptions& expand, const OpLimits& limits) const;

  /// One queued async request, self-contained (owns its pinned
  /// snapshot). Sitting in admission_queues_ until a pump pops it or
  /// kShedOldest evicts it.
  struct Pending {
    std::shared_ptr<ReclaimTicket::SharedState> state;
    std::shared_ptr<const Table> source;
    ReclaimRequest request;
    RegistryPtr registry;
    TraversalOptions traversal;
    ExpandOptions expand;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
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
  /// themselves (never held together with registry_mutex_ or
  /// health_mutex_ — both are taken and released inside). Concurrent
  /// Remove/Reload still race an append; the (uid, delta_gen) recheck
  /// at publish turns that race into Status::Aborted.
  mutable std::mutex append_mutex_;

  /// Shared buffer-pool capacity across every mapped shard (null when
  /// CatalogStorageOptions::pool_capacity_blocks is 0 = unbounded).
  std::shared_ptr<storage::PoolBudget> pool_budget_;

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

  // --- Shard health state (DESIGN.md §5.11) --------------------------------
  //
  // Lock discipline: health_mutex_ and registry_mutex_ are NEVER held
  // together — every path takes one, releases it, then (maybe) takes
  // the other, so no ordering between them can deadlock. The serving
  // fast path pays one relaxed atomic load (quarantined_count_) and
  // touches the map only while something is actually quarantined.

  /// Health record of one shard registration, keyed by shard uid.
  struct HealthEntry {
    ShardHealth state = ShardHealth::kHealthy;
    uint64_t error_count = 0;
    uint64_t attempts = 0;    // failed recovery attempts this quarantine
    uint64_t recoveries = 0;  // successful recoveries, survives re-key
    bool rebuilt_from_body = false;
    bool retry_enabled = true;  // false once max_recovery_attempts hit
    std::string last_error;
    std::string name;           // shard name at fault time
    std::string snapshot_path;  // recovery source ("" = unrecoverable)
    std::chrono::steady_clock::time_point next_retry{};
  };

  /// Records a storage fault against `shard`; the first fault moves it
  /// to kQuarantined and wakes the recovery thread.
  void NoteShardFault(const Shard& shard, const std::string& error) const;

  /// Background recovery loop: drains queued compactions first, then
  /// waits for the earliest due retry and attempts one recovery — all
  /// actual work outside the locks.
  void RecoveryLoop();
  /// One recovery attempt for the quarantined shard `uid`: full reopen
  /// first, body-salvage + rebuild as fallback, reschedule on failure.
  void AttemptRecovery(uint64_t uid);

  /// Drops health entries whose uid left the registry (after
  /// RemoveLake / ReloadLakeFromSnapshot), fixing quarantined_count_.
  void PruneHealthEntries() const;

  mutable std::mutex health_mutex_;
  mutable std::condition_variable health_cv_;
  mutable std::unordered_map<uint64_t, HealthEntry> health_;
  /// Shards awaiting a background fold (compact_after_runs policy),
  /// by name; drained by RecoveryLoop before recovery work. Guarded by
  /// health_mutex_; duplicates are benign (the fold is idempotent).
  mutable std::deque<std::string> compaction_queue_;
  /// Fast routing gate: number of kQuarantined entries in health_.
  mutable std::atomic<uint64_t> quarantined_count_{0};
  bool stopping_ = false;  // guarded by health_mutex_
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
