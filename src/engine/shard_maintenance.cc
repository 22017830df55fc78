#include "src/engine/shard_maintenance.h"

#include <algorithm>
#include <cmath>

#include "src/ops/op_limits.h"
#include "src/util/hash.h"

namespace gent {

namespace {

// ShardHealthCell::next_retry of a shard whose retries are disabled.
constexpr auto kNever = std::chrono::steady_clock::time_point::max();

}  // namespace

void ShardMaintenance::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double ShardMaintenance::BackoffSeconds(const ShardHealthOptions& o,
                                        uint64_t uid, uint64_t attempt) {
  constexpr double kJitter = 0.25;
  const double exp2 = std::ldexp(1.0, static_cast<int>(std::min<uint64_t>(
                                          attempt, 62)));
  double delay = std::min(o.backoff_initial_seconds * exp2,
                          o.backoff_max_seconds);
  const uint64_t h = SplitMix64(uid * 0x9E3779B97F4A7C15ULL + attempt);
  const double unit = static_cast<double>(h >> 11) * 0x1p-53;  // [0, 1)
  delay *= 1.0 - kJitter + 2.0 * kJitter * unit;
  return delay > 0 ? delay : 0.0;
}

void ShardMaintenance::NoteShardFault(const Shard& shard,
                                      const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  ShardHealthCell& cell = *shard.health;
  ++cell.report.error_count;
  cell.report.last_error = error;
  if (cell.quarantined.load(std::memory_order_relaxed)) return;
  cell.report.rebuilt_from_body = false;
  cell.next_retry =
      SteadyTimeAfter(std::chrono::steady_clock::now(),
                      BackoffSeconds(options_, shard.uid, /*attempt=*/0));
  cell.quarantined.store(true, std::memory_order_release);
  wake_.notify_all();
}

void ShardMaintenance::QueueCompaction(const std::string& name) {
  if (!options_.auto_recover) return;
  std::lock_guard<std::mutex> lock(mutex_);
  compactions_.push_back(name);
  wake_.notify_all();
}

void ShardMaintenance::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // Queued folds drain ahead of recovery scans: the policy that
    // queued them fired on the append path, so the work is known-due.
    // Best-effort: a concurrent append/remove aborts the fold and the
    // next threshold crossing re-queues it.
    if (!compactions_.empty()) {
      std::string name = std::move(compactions_.front());
      compactions_.pop_front();
      lock.unlock();
      compact_(name);
      lock.lock();
      continue;
    }
    // Earliest due quarantined shard with retries still enabled, among
    // the registered ones (a retired shard's cell is out of reach). With
    // none due, sleep until the earliest schedule or a notify (a new
    // quarantine, a queued fold, Stop). Pinning under mutex_ means a
    // shard published and faulted after the pin can only notify once the
    // wait below has begun; the pin is dropped before waiting, so a
    // sleeping loop keeps no retired shard alive.
    const auto now = std::chrono::steady_clock::now();
    std::shared_ptr<const Shard> due;
    auto earliest = kNever;
    {
      RegistryPtr registry = registry_.Pin();
      for (const auto& shard : registry->shards) {
        const ShardHealthCell& cell = *shard->health;
        if (!cell.quarantined.load(std::memory_order_relaxed)) continue;
        if (cell.next_retry <= now) {
          due = shard;
          break;
        }
        earliest = std::min(earliest, cell.next_retry);
      }
    }
    if (due != nullptr) {
      lock.unlock();
      AttemptRecovery(due);
      lock.lock();
    } else if (earliest == kNever) {
      wake_.wait(lock);  // nothing scheduled; the loop re-checks
    } else {
      wake_.wait_until(lock, earliest);
    }
  }
}

void ShardMaintenance::AttemptRecovery(
    const std::shared_ptr<const Shard>& old) {
  ShardHealthCell& cell = *old->health;
  if (old->source_path.empty()) {
    // Nothing on disk to recover from (a RAM/CSV shard): stop
    // scheduling; only an explicit reload can heal it.
    std::lock_guard<std::mutex> lock(mutex_);
    cell.next_retry = kNever;
    cell.report.last_error +=
        " (not snapshot-backed; awaiting explicit reload)";
    return;
  }
  Result<std::shared_ptr<Shard>> healed = recover_(*old);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!healed.ok()) {
      ++cell.report.recovery_attempts;
      cell.report.last_error = healed.status().message();
      cell.next_retry = SteadyTimeAfter(
          std::chrono::steady_clock::now(),
          BackoffSeconds(options_, old->uid, cell.report.recovery_attempts));
      return;
    }
    // The healed registration carries the old one's fault history.
    ShardHealthStats& fresh = (*healed)->health->report;
    fresh.error_count = cell.report.error_count;
    fresh.recoveries = cell.report.recoveries + 1;
    fresh.last_error = cell.report.last_error;
  }
  // Swap in ONLY if the quarantined generation is still registered. A
  // concurrent RemoveLake/Reload supersedes recovery (the retired cell
  // dies with its last pin); a generation published meanwhile shares
  // the quarantined cell, so the next scan retries against it.
  (void)registry_.Replace(std::move(healed).value(), old.get());
}

std::vector<ShardHealthStats> ShardMaintenance::Stats() const {
  RegistryPtr registry = registry_.Pin();
  std::vector<ShardHealthStats> out;
  out.reserve(registry->shards.size());
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : registry->shards) {
    const ShardHealthCell& cell = *s->health;
    const bool quarantined = cell.quarantined.load(std::memory_order_relaxed);
    ShardHealthStats& stats = out.emplace_back(cell.report);
    stats.name = s->name;
    stats.uid = s->uid;
    stats.state = quarantined              ? ShardHealth::kQuarantined
                  : stats.rebuilt_from_body ? ShardHealth::kDegraded
                                            : ShardHealth::kHealthy;
    const bool retries = options_.auto_recover && cell.next_retry != kNever;
    if (quarantined && !retries) {
      stats.next_retry_in_seconds = -1;
    } else if (quarantined && cell.next_retry > now) {
      stats.next_retry_in_seconds =
          std::chrono::duration<double>(cell.next_retry - now).count();
    }
  }
  return out;
}

}  // namespace gent
