// ShardMaintenance: shard health and the one background thread of a
// ReclaimService (DESIGN.md §5.11, §5.12).
//
// It owns each registration's health bookkeeping (the fields of its
// ShardHealthCell, the fault step that quarantines it, and the
// deterministic exponential backoff of its retries) and the queue of
// folds that the compaction policy asked for. Its thread drains queued
// folds first, then attempts one recovery of the earliest due
// quarantined shard of the registry's current snapshot, and sleeps
// until the next due retry or a wake-up. The work itself belongs to the
// service and is passed in as two callbacks: `recover(old)` builds the
// healed shard and `compact(name)` folds one shard's delta runs. Both
// run outside every lock of this class.
//
// Thread safety: every method is safe to call concurrently. The serving
// path reads one atomic flag per routed shard and takes no lock.

#ifndef GENT_ENGINE_SHARD_MAINTENANCE_H_
#define GENT_ENGINE_SHARD_MAINTENANCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/shard_registry.h"

namespace gent {

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

/// One shard's health, as reported by ReclaimService::health_stats().
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

/// Health of one shard registration. Every content generation of the
/// registration (appends and compactions keep the uid) shares one cell;
/// a recovery publishes a new registration with a new cell, seeded with
/// this one's history. A retired cell dies with the last pin on its
/// shard.
struct ShardHealthCell {
  /// The routing gate, read lock-free by every request. One-way: a
  /// quarantined registration is only ever replaced (by recovery or
  /// ReloadLakeFromSnapshot) or removed, never un-quarantined.
  std::atomic<bool> quarantined{false};
  // The rest is guarded by ShardMaintenance's mutex once published.
  // `report` holds the counters, rebuilt_from_body and last_error as
  // health_stats() reports them; its name, uid, state and next retry
  // are filled in when reporting.
  ShardHealthStats report;
  /// When the next recovery attempt is due; max() when retries are
  /// disabled (a shard with no snapshot to recover from).
  std::chrono::steady_clock::time_point next_retry{};
};

class ShardMaintenance {
 public:
  /// Builds the healed registration of the quarantined generation
  /// `old` (a fresh cell, with rebuilt_from_body set when it had to
  /// salvage), or the failure that reschedules the retry.
  using RecoverFn =
      std::function<Result<std::shared_ptr<Shard>>(const Shard& old)>;
  /// Folds shard `name`'s delta runs; best effort.
  using CompactFn = std::function<void(const std::string& name)>;

  /// Starts the thread when `options.auto_recover` is set. `registry`
  /// must outlive this object.
  ShardMaintenance(const ShardHealthOptions& options, ShardRegistry& registry,
                   RecoverFn recover, CompactFn compact)
      : options_(options),
        registry_(registry),
        recover_(std::move(recover)),
        compact_(std::move(compact)) {
    if (options_.auto_recover) thread_ = std::thread([this]() { Loop(); });
  }
  ~ShardMaintenance() { Stop(); }
  ShardMaintenance(const ShardMaintenance&) = delete;
  ShardMaintenance& operator=(const ShardMaintenance&) = delete;

  /// Stops the thread: a callback already running finishes, no further
  /// one starts, and the thread is joined. Idempotent.
  void Stop();

  /// Records a storage fault against `shard`'s registration; the first
  /// fault quarantines it and schedules its first retry.
  void NoteShardFault(const Shard& shard, const std::string& error);

  /// Queues a fold of shard `name` for the thread (dropped when there is
  /// no thread). Duplicates are benign: the fold is idempotent.
  void QueueCompaction(const std::string& name);

  /// Per-shard health of the registry's current snapshot, in registry
  /// order.
  std::vector<ShardHealthStats> Stats() const;

  /// The delay before retry `attempt` of registration `uid`:
  /// initial · 2^attempt capped at max, scaled by a splitmix-derived
  /// factor in [0.75, 1.25]. Deterministic, so recovery tests are
  /// reproducible; distinct per shard, so a fleet quarantined by one
  /// event fans its retries out instead of retrying in lockstep.
  static double BackoffSeconds(const ShardHealthOptions& options,
                               uint64_t uid, uint64_t attempt);

 private:
  void Loop();
  /// One recovery attempt for the quarantined generation `old`.
  void AttemptRecovery(const std::shared_ptr<const Shard>& old);

  const ShardHealthOptions options_;
  ShardRegistry& registry_;
  const RecoverFn recover_;
  const CompactFn compact_;

  /// Guards every published ShardHealthCell's non-atomic fields,
  /// compactions_ and stopping_. Lock order: the service's append lock
  /// → this → the registry's (Loop pins the registry under it).
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::string> compactions_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace gent

#endif  // GENT_ENGINE_SHARD_MAINTENANCE_H_
