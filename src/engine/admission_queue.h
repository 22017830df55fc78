// AdmissionQueue: the bounded, priority-aware queue in front of a
// ReclaimService's resident pool (DESIGN.md §5.9).
//
// Three scheduling classes (RequestPriority) are drained highest-first,
// FIFO within a class. A full queue either blocks the submitter or
// sheds the oldest entry of the lowest class at or below the newcomer's
// (AdmissionPolicy). Every admitted entry has exactly one pump task in
// the pool; a pump pops the best entry, resolves it Cancelled when its
// ticket was cancelled before it started, Timeout when its end-to-end
// deadline expired in the queue (dead-on-arrival), and otherwise runs
// it through the one runner fixed at construction (the service's
// pipeline call). It owns the tickets' shared state, the publish step
// that resolves them, and the counters behind
// ReclaimService::admission_stats().
//
// Thread safety: every method is safe to call concurrently. The pool
// must outlive the queue; the queue's destructor drains the pool, so
// every admitted ticket resolves before the queue goes away.

#ifndef GENT_ENGINE_ADMISSION_QUEUE_H_
#define GENT_ENGINE_ADMISSION_QUEUE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/engine/shard_registry.h"
#include "src/engine/thread_pool.h"
#include "src/gent/gent.h"

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
  ReclaimTicket(ReclaimTicket&&) = default;  // move-only: no copies
  ReclaimTicket& operator=(ReclaimTicket&&) = default;

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
  bool WaitFor(std::chrono::steady_clock::duration timeout) const {
    return WaitUntil(std::chrono::steady_clock::now() + timeout);
  }

  /// Same against an absolute steady-clock deadline.
  bool WaitUntil(std::chrono::steady_clock::time_point deadline) const;

  /// Non-blocking: true once the result is available. Requires valid().
  bool ready() const {
    return WaitFor(std::chrono::steady_clock::duration::zero());
  }

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
  friend class AdmissionQueue;
  struct SharedState;
  std::shared_ptr<SharedState> state_;
};

class AdmissionQueue {
 public:
  /// One admitted request, self-contained: it owns its source and its
  /// pinned registry snapshot, so a shed or a pump needs nothing from
  /// the submitter.
  struct Entry {
    std::shared_ptr<const Table> source;
    ReclaimRequest request;
    RegistryPtr registry;
    std::chrono::steady_clock::time_point submitted{};
    /// Its ticket's state; set by Submit.
    std::shared_ptr<ReclaimTicket::SharedState> state = nullptr;
  };
  /// Runs one admitted entry; `cancel` is its ticket's cancel token.
  using Runner = std::function<Result<ReclamationResult>(
      const Entry& entry, const std::atomic<bool>* cancel)>;

  struct Stats {
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

  /// `capacity` 0 = unbounded. `pool` must outlive the queue.
  AdmissionQueue(size_t capacity, AdmissionPolicy policy, ThreadPool* pool,
                 Runner runner)
      : capacity_(capacity),
        policy_(policy),
        pool_(pool),
        runner_(std::move(runner)) {}
  /// Drains the pool: every admitted entry resolves first.
  ~AdmissionQueue() { pool_->Wait(); }
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `entry` in class entry.request.priority and returns its
  /// ticket. A full queue blocks (kBlock) or sheds (kShedOldest: the
  /// oldest entry of the lowest class at or below the newcomer's, or
  /// ResourceExhausted for the newcomer when everything queued
  /// outranks it).
  Result<ReclaimTicket> Submit(Entry entry);

  Stats stats() const;

 private:
  using Counter = uint64_t Stats::*;

  /// Pool task draining one entry: pops the oldest entry of the highest
  /// non-empty class and runs (or rejects) it. Invariant: outstanding
  /// pump tasks == queued entries, so a pump always finds one (shedding
  /// swaps the entry under a pump, never the count).
  void PumpOne();

  /// Publishes `result` to a ticket (stamping completed_at, waking
  /// waiters) and counts it in `if_cancelled` or `otherwise` (either
  /// may be null) — before waiters wake, so a Wait() followed by
  /// stats() always observes the increment. A Cancel() that won the
  /// race forces the published status to Cancelled (a completed but
  /// unpublished result is discarded), so Cancel()==true always implies
  /// a Cancelled resolution.
  void Publish(ReclaimTicket::SharedState& state,
               Result<ReclamationResult> result, Counter if_cancelled,
               Counter otherwise);

  size_t QueuedLocked() const;

  const size_t capacity_;
  const AdmissionPolicy policy_;
  ThreadPool* const pool_;
  const Runner runner_;

  /// Guards queues_ and counts_. Taken under a ticket's mutex (Publish),
  /// never the other way round.
  mutable std::mutex mutex_;
  std::condition_variable space_;
  std::array<std::deque<Entry>, kNumPriorityClasses> queues_;
  Stats counts_;  // the counters; queued, depth and backlog are read live
};

}  // namespace gent

#endif  // GENT_ENGINE_ADMISSION_QUEUE_H_
