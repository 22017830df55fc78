// ShardRegistry: the epoch-versioned shard set of a ReclaimService
// (DESIGN.md §5.6).
//
// The set lives in an immutable RegistrySnapshot published behind one
// mutex. Every mutation (add, replace, remove) is one copy-on-write
// commit: copy the current snapshot (shared_ptr shard handles, never
// shard contents), edit the copy, bump the epoch and swap the pointer.
// A reader Pins the current snapshot and serves entirely from it, so a
// retired shard (catalog, lake and health cell) stays alive until the
// last pin on an epoch that contains it drops.
//
// Uids are assigned here, one per registration, never reused. A shard's
// content generation is (uid, delta_gen), which discovery-cache route
// tags are built from (discovery_cache.h). An append carries the
// registration forward with delta_gen + 1, a fold with delta_gen kept;
// both keep the uid and the health cell. A reload or a recovery is a new
// registration: fresh uid, fresh cell.
//
// Thread safety: every method is safe to call concurrently. The registry
// mutex is the innermost lock of the service: nothing else is taken
// while it is held.

#ifndef GENT_ENGINE_SHARD_REGISTRY_H_
#define GENT_ENGINE_SHARD_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/lake/snapshot.h"
#include "src/util/status.h"

namespace gent {

class ColumnStatsCatalog;
struct ShardHealthCell;  // src/engine/shard_maintenance.h

/// One published content generation of a registered lake. Immutable
/// once published; a new generation is a new handle.
struct Shard {
  std::string name;
  uint64_t uid = 0;  // unique per registration, never reused
  /// Non-owning for AddLakeView shards. Shared: a fold republishes the
  /// served lake itself under a catalog mapped from the new file.
  std::shared_ptr<const DataLake> lake;
  /// Built in RAM over `lake`, mapped from the snapshot file, or
  /// layered over the predecessor's by an append. Requests run the
  /// pipeline over it with ServiceOptions::config.
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
  /// lost a committed append (CheckShardHealth). Only a file in the
  /// service's ids (identity_remap) takes delta runs: a run is written
  /// in the service's ids, and a file with its own id space would read
  /// them as its own.
  SnapshotLoadInfo file;
  /// Appends applied to this registration, 0 at registration.
  uint64_t delta_gen = 0;
  /// The pre-append shard this generation's layered catalog borrows
  /// views from (null for fresh registrations and compacted reopens).
  /// Keeps the predecessor's lake and catalog alive; the chain's
  /// length is bounded by the compaction policy.
  std::shared_ptr<const Shard> predecessor;
  /// Shared by every generation of this registration.
  std::shared_ptr<ShardHealthCell> health;
};

/// Immutable once published; mutations swap whole snapshots.
struct RegistrySnapshot {
  uint64_t epoch = 0;
  std::vector<std::shared_ptr<const Shard>> shards;  // names unique
};
using RegistryPtr = std::shared_ptr<const RegistrySnapshot>;

class ShardRegistry {
 public:
  ShardRegistry() = default;
  ShardRegistry(const ShardRegistry&) = delete;
  ShardRegistry& operator=(const ShardRegistry&) = delete;

  /// Copies the current snapshot pointer (the pin operation).
  RegistryPtr Pin() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// The shard named `name` in `registry` (NotFound if absent).
  static Result<std::shared_ptr<const Shard>> Find(
      const RegistrySnapshot& registry, const std::string& name) {
    for (const auto& shard : registry.shards) {
      if (shard->name == name) return shard;
    }
    return NoShard(name);
  }
  /// The same in the current snapshot.
  Result<std::shared_ptr<const Shard>> Find(const std::string& name) const {
    return Find(*Pin(), name);
  }

  /// Publishes a new registration: refuses an empty (InvalidArgument)
  /// or taken (AlreadyExists) name and assigns a fresh uid.
  Status Add(std::shared_ptr<Shard> shard) {
    if (shard->name.empty()) {
      return Status::InvalidArgument(
          "shard name must be non-empty (\"\" routes to all shards)");
    }
    return Commit(shard->name, [&](auto& shards, auto slot) {
      if (slot != shards.end()) {
        return Status::AlreadyExists("shard '" + shard->name +
                                     "' already registered");
      }
      shard->uid = next_uid_++;
      shards.push_back(std::move(shard));
      return Status::OK();
    });
  }

  /// Swaps `shard` into the slot named `shard->name`. With `expected`,
  /// only while the slot still holds that content generation (same uid
  /// and delta_gen): Aborted otherwise, or when the name is gone.
  /// Without it, NotFound when the name is gone. A shard with uid 0 is
  /// a new registration and gets a fresh uid, so discovery-cache
  /// entries routed at the one it replaces are never replayed.
  Status Replace(std::shared_ptr<Shard> shard, const Shard* expected) {
    return Commit(shard->name, [&](auto& shards, auto slot) {
      if (expected != nullptr &&
          (slot == shards.end() || (*slot)->uid != expected->uid ||
           (*slot)->delta_gen != expected->delta_gen)) {
        return Status::Aborted("shard '" + shard->name +
                               "' was replaced or removed concurrently");
      }
      if (slot == shards.end()) return NoShard(shard->name);
      if (shard->uid == 0) shard->uid = next_uid_++;
      *slot = std::move(shard);
      return Status::OK();
    });
  }

  /// Replaces the generation `from` by `next` under the same
  /// registration: `next` takes from's uid, health cell and delta_gen,
  /// plus 1 when its content is new (an append; a fold keeps it).
  /// Aborted when `from` is no longer the registered generation.
  Status CarryForward(std::shared_ptr<Shard> next, const Shard& from,
                      bool new_content) {
    next->uid = from.uid;
    next->delta_gen = from.delta_gen + (new_content ? 1 : 0);
    next->health = from.health;
    return Replace(std::move(next), &from);
  }

  /// Retires shard `name` (NotFound if absent). Its handle lives on
  /// inside every pinned snapshot; the last draining pin releases it.
  Status Remove(const std::string& name) {
    return Commit(name, [&](auto& shards, auto slot) {
      if (slot == shards.end()) return NoShard(name);
      shards.erase(slot);
      return Status::OK();
    });
  }

 private:
  static Status NoShard(const std::string& name) {
    return Status::NotFound("no shard named '" + name + "'");
  }

  /// The one commit: under the mutex, `edit(shards, slot)` changes a
  /// copy of the current shard list, `slot` being the position of
  /// `name` in it or end(); an OK edit is published at the next epoch.
  /// Shard counts are small, so a scan is the whole index.
  template <typename Edit>
  Status Commit(const std::string& name, Edit edit) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto next = std::make_shared<RegistrySnapshot>(*current_);
    auto slot =
        std::find_if(next->shards.begin(), next->shards.end(),
                     [&](const auto& shard) { return shard->name == name; });
    GENT_RETURN_IF_ERROR(edit(next->shards, slot));
    next->epoch = current_->epoch + 1;
    current_ = std::move(next);
    return Status::OK();
  }

  mutable std::mutex mutex_;  // guards current_ and next_uid_
  RegistryPtr current_ = std::make_shared<RegistrySnapshot>();
  uint64_t next_uid_ = 1;
};

}  // namespace gent

#endif  // GENT_ENGINE_SHARD_REGISTRY_H_
