#include "src/engine/reclaim_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "src/lake/snapshot.h"
#include "src/util/hash.h"

namespace gent {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Budget for a synchronous request: timeout and end-to-end deadline
// both start now (there is no queue wait to cover), the earlier wins.
OpLimits LimitsFromRequest(const ReclaimRequest& request) {
  OpLimits limits;
  const auto now = std::chrono::steady_clock::now();
  if (request.timeout_seconds > 0) {
    limits.Deadline(SteadyTimeAfter(now, request.timeout_seconds));
  }
  if (request.deadline_seconds > 0) {
    limits.Deadline(SteadyTimeAfter(now, request.deadline_seconds));
  }
  if (request.max_rows > 0) limits.MaxRows(request.max_rows);
  return limits;
}

// Exponential backoff with deterministic per-(shard, attempt) jitter:
// initial · 2^attempt capped at max, scaled by a splitmix-derived
// factor in [1 - kJitter, 1 + kJitter]. Deterministic so recovery tests
// are reproducible; distinct per shard so a fleet quarantined by one
// event fans its retries out instead of thundering in lockstep.
double BackoffSeconds(const ShardHealthOptions& o, uint64_t uid,
                      uint64_t attempt) {
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

// What a file written whole from a served lake holds (WriteShardFile):
// v2, the service's ids, no delta runs.
SnapshotLoadInfo WrittenFromServedLake() {
  SnapshotLoadInfo file;
  file.version = 2;
  file.identity_remap = true;
  return file;
}

}  // namespace

Table TranslateToDictionary(const Table& source, const DictionaryPtr& dict) {
  Table out(source.name(), dict);
  for (const std::string& name : source.column_names()) {
    (void)out.AddColumn(name);
  }
  const DictionaryPtr& src_dict = source.dict();
  std::vector<ValueId> row(source.num_cols());
  for (size_t r = 0; r < source.num_rows(); ++r) {
    for (size_t c = 0; c < source.num_cols(); ++c) {
      ValueId v = source.cell(r, c);
      row[c] = (v == kNull || src_dict->IsLabeledNull(v))
                   ? kNull
                   : dict->Intern(src_dict->StringOf(v));
    }
    out.AddRow(row);
  }
  if (source.has_key()) (void)out.SetKeyColumns(source.key_columns());
  return out;
}

// --- ReclaimTicket ----------------------------------------------------------

struct ReclaimTicket::SharedState {
  std::mutex mutex;
  std::condition_variable ready_cv;
  // Cancel() ran before the result was published. One-way; the
  // publisher (ReclaimService::Publish) honors it by forcing the
  // published status to Cancelled.
  bool cancelled = false;
  std::optional<Result<ReclamationResult>> result;
  // Stamped by Publish immediately before waking waiters.
  std::chrono::steady_clock::time_point completed_at{};
  // The OpLimits cancel token the pipeline polls at its checkpoints.
  // Atomic (not mutex-guarded): checkpoints read it lock-free from
  // worker threads while Cancel() stores from any thread.
  std::atomic<bool> cancel_flag{false};
};

const Result<ReclamationResult>& ReclaimTicket::Wait() const {
  SharedState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  s.ready_cv.wait(lock, [&s]() { return s.result.has_value(); });
  return *s.result;
}

bool ReclaimTicket::WaitFor(std::chrono::steady_clock::duration timeout) const {
  SharedState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  return s.ready_cv.wait_for(lock, timeout,
                             [&s]() { return s.result.has_value(); });
}

bool ReclaimTicket::WaitUntil(
    std::chrono::steady_clock::time_point deadline) const {
  SharedState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  return s.ready_cv.wait_until(lock, deadline,
                               [&s]() { return s.result.has_value(); });
}

bool ReclaimTicket::ready() const {
  SharedState& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.result.has_value();
}

std::chrono::steady_clock::time_point ReclaimTicket::completed_at() const {
  SharedState& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.completed_at;
}

bool ReclaimTicket::Cancel() const {
  if (state_ == nullptr) return false;
  SharedState& s = *state_;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.result.has_value()) return false;  // already resolved: too late
  s.cancelled = true;  // idempotent: repeat Cancels also report success
  // Fire the pipeline token. Publication is serialized on s.mutex, so
  // either the publisher already ran (result above) or it will observe
  // s.cancelled and publish Cancelled — Cancel()==true is a guarantee.
  s.cancel_flag.store(true, std::memory_order_release);
  return true;
}

// --- Registry lifecycle -----------------------------------------------------

ReclaimService::ReclaimService(ServiceOptions options)
    : options_(std::move(options)),
      dict_(options_.dict != nullptr ? options_.dict : MakeDictionary()),
      registry_(std::make_shared<RegistrySnapshot>()),
      pool_budget_(options_.storage.pool_capacity_blocks > 0
                       ? std::make_shared<storage::PoolBudget>(
                             options_.storage.pool_capacity_blocks)
                       : nullptr),
      cache_(options_.cache_capacity),
      pool_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreads(options_.num_threads))) {
  if (options_.health.auto_recover) {
    recovery_thread_ = std::thread([this]() { RecoveryLoop(); });
  }
}

ReclaimService::~ReclaimService() {
  // The recovery thread touches the registry and shards, so it must be
  // gone before ANY member teardown begins (the pool — declared last,
  // destroyed first — drains only async requests).
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    stopping_ = true;
  }
  health_cv_.notify_all();
  if (recovery_thread_.joinable()) recovery_thread_.join();
}

ReclaimService::RegistryPtr ReclaimService::Pin() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return registry_;
}

void ReclaimService::PublishLocked(std::shared_ptr<RegistrySnapshot> next) {
  next->epoch = registry_->epoch + 1;
  registry_ = std::move(next);
}

std::shared_ptr<ReclaimService::Shard> ReclaimService::MakeShard(
    const std::string& name, std::shared_ptr<const DataLake> owned,
    const DataLake* borrowed,
    std::shared_ptr<const ColumnStatsCatalog> catalog,
    const std::string& source_path) const {
  auto shard = std::make_shared<Shard>();
  shard->name = name;
  shard->lake = owned != nullptr ? owned.get() : borrowed;
  shard->owned = std::move(owned);
  shard->source_path = source_path;
  shard->health = std::make_shared<ShardHealthCell>();
  shard->gent = catalog != nullptr
                    ? std::make_unique<GenT>(std::move(catalog),
                                             options_.config)
                    : std::make_unique<GenT>(*shard->lake, options_.config);
  return shard;
}

Status ReclaimService::RegisterShard(
    const std::string& name, std::shared_ptr<const DataLake> owned,
    const DataLake* borrowed,
    std::shared_ptr<const ColumnStatsCatalog> catalog,
    const std::string& source_path, const SnapshotLoadInfo& file) {
  if (name.empty()) {
    return Status::InvalidArgument(
        "shard name must be non-empty (\"\" routes to all shards)");
  }
  const DataLake* lake = owned != nullptr ? owned.get() : borrowed;
  if (lake->dict() != dict_) {
    return Status::InvalidArgument(
        "shard '" + name +
        "' must use the service dictionary (value ids must be comparable "
        "across shards)");
  }
  // Fail fast on an obvious duplicate before paying for the catalog
  // build; the authoritative check re-runs under the lock below.
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    if (registry_->by_name.count(name) > 0) {
      return Status::AlreadyExists("shard '" + name + "' already registered");
    }
  }

  // The one catalog build this registration will ever do — outside the
  // registry lock, so serving is never blocked on it. A prebuilt
  // catalog (the mapped snapshot-open path) skips even that.
  std::shared_ptr<Shard> shard = MakeShard(name, std::move(owned), borrowed,
                                           std::move(catalog), source_path);
  shard->file = file;

  std::lock_guard<std::mutex> lock(registry_mutex_);
  if (registry_->by_name.count(name) > 0) {
    return Status::AlreadyExists("shard '" + name + "' already registered");
  }
  shard->uid = next_shard_uid_++;
  auto next = std::make_shared<RegistrySnapshot>(*registry_);
  next->by_name[name] = next->shards.size();
  next->shards.push_back(std::move(shard));
  PublishLocked(std::move(next));
  return Status::OK();
}

bool ReclaimService::ReplaceShard(std::shared_ptr<Shard> shard,
                                  const Shard* expected) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = registry_->by_name.find(shard->name);
  if (it == registry_->by_name.end()) return false;
  const Shard& current = *registry_->shards[it->second];
  if (expected != nullptr && (current.uid != expected->uid ||
                              current.delta_gen != expected->delta_gen)) {
    return false;
  }
  // A new registration gets a new uid, so the discovery-cache entries
  // routed at the one it replaces can never be replayed.
  if (shard->uid == 0) shard->uid = next_shard_uid_++;
  auto next = std::make_shared<RegistrySnapshot>(*registry_);
  next->shards[it->second] = std::move(shard);
  PublishLocked(std::move(next));
  return true;
}

Status ReclaimService::AddLake(const std::string& name, DataLake lake) {
  return RegisterShard(name, std::make_unique<DataLake>(std::move(lake)),
                       nullptr, nullptr);
}

Status ReclaimService::AddLakeView(const std::string& name,
                                   const DataLake& lake) {
  return RegisterShard(name, nullptr, &lake, nullptr);
}

Status ReclaimService::LoadShardFromSnapshot(
    const std::string& path, std::unique_ptr<DataLake>* lake,
    std::shared_ptr<const ColumnStatsCatalog>* catalog,
    SnapshotLoadInfo* info) const {
  *lake = std::make_unique<DataLake>(dict_);
  catalog->reset();
  GENT_RETURN_IF_ERROR(LoadSnapshot(**lake, path, info));
  // v2 with a matching id space: the file's catalog sections speak this
  // lake's ValueIds verbatim, so open them mapped. LoadSnapshot just
  // verified every section checksum. Anything else rebuilds.
  if (info->version >= 2 && info->identity_remap) {
    *catalog = OpenMappedCatalog(**lake, path);
  }
  return Status::OK();
}

std::shared_ptr<const ColumnStatsCatalog> ReclaimService::OpenMappedCatalog(
    const DataLake& lake, const std::string& path) const {
  storage::MappedCatalog::Options mopts;
  mopts.verify_checksums = false;
  // One capacity budget for the whole service: every mapped shard's
  // pool registers against it, so eviction pressure is fleet-wide
  // instead of per-shard (pool_capacity_blocks is the budget's size).
  mopts.budget = pool_budget_;
  auto mapped = ColumnStatsCatalog::OpenMapped(lake, path, mopts);
  // Any failure (e.g. mmap unavailable) leaves the caller on the RAM
  // catalog, which serves identically.
  return mapped.ok() ? std::move(*mapped) : nullptr;
}

Result<std::shared_ptr<const ColumnStatsCatalog>>
ReclaimService::WriteShardFile(const DataLake& lake,
                               const std::string& path) const {
  // The one builder and the one writer: the file is bit-identical to a
  // one-shot save of the same tables, and lands by temp + rename.
  auto built = std::make_shared<const ColumnStatsCatalog>(lake);
  GENT_RETURN_IF_ERROR(SaveSnapshotV2(lake, built->section_views(), path));
  std::shared_ptr<const ColumnStatsCatalog> mapped =
      OpenMappedCatalog(lake, path);
  if (mapped != nullptr) return mapped;
  return std::shared_ptr<const ColumnStatsCatalog>(std::move(built));
}

Status ReclaimService::AddLakeFromSnapshot(const std::string& name,
                                           const std::string& path) {
  std::unique_ptr<DataLake> lake;
  std::shared_ptr<const ColumnStatsCatalog> catalog;
  SnapshotLoadInfo info;
  GENT_RETURN_IF_ERROR(LoadShardFromSnapshot(path, &lake, &catalog, &info));
  return RegisterShard(name, std::move(lake), nullptr, std::move(catalog),
                       path, info);
}

Status ReclaimService::AddLakeFromDirectory(const std::string& name,
                                            const std::string& dir) {
  // Startup housekeeping: a saver that crashed mid-commit strands its
  // temp file here; collect the strands before serving from the dir.
  (void)SweepSnapshotTemps(dir);
  auto lake = std::make_unique<DataLake>(dict_);
  GENT_RETURN_IF_ERROR(lake->LoadDirectory(dir));
  return RegisterShard(name, std::move(lake), nullptr, nullptr);
}

Status ReclaimService::SaveShardSnapshot(const std::string& name,
                                         const std::string& path) const {
  // Pin: the shard (lake + catalog) stays alive for the whole write
  // even against a concurrent RemoveLake/Reload.
  RegistryPtr registry = Pin();
  auto it = registry->by_name.find(name);
  if (it == registry->by_name.end()) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  const Shard& shard = *registry->shards[it->second];
  return SaveSnapshotV2(*shard.lake, shard.gent->catalog().section_views(),
                        path);
}

Status ReclaimService::RemoveLake(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = registry_->by_name.find(name);
  if (it == registry_->by_name.end()) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  const size_t index = it->second;
  auto next = std::make_shared<RegistrySnapshot>();
  next->shards.reserve(registry_->shards.size() - 1);
  for (size_t i = 0; i < registry_->shards.size(); ++i) {
    if (i == index) continue;
    next->by_name[registry_->shards[i]->name] = next->shards.size();
    next->shards.push_back(registry_->shards[i]);
  }
  // The removed shard's handle — health cell included — lives on inside
  // every pinned snapshot; the last draining request releases it.
  PublishLocked(std::move(next));
  return Status::OK();
}

Status ReclaimService::ReloadLakeFromSnapshot(const std::string& name,
                                              const std::string& path) {
  // Expensive work first, outside the lock: if the snapshot is corrupt
  // the old shard keeps serving untouched.
  std::unique_ptr<DataLake> lake;
  std::shared_ptr<const ColumnStatsCatalog> catalog;
  SnapshotLoadInfo info;
  GENT_RETURN_IF_ERROR(LoadShardFromSnapshot(path, &lake, &catalog, &info));
  // A new registration with a fresh health cell: an explicit reload
  // supersedes any quarantine of the old one.
  std::shared_ptr<Shard> shard =
      MakeShard(name, std::move(lake), nullptr, std::move(catalog), path);
  shard->file = info;
  if (!ReplaceShard(std::move(shard), nullptr)) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  return Status::OK();
}

Status ReclaimService::AppendTablesToLake(const std::string& name,
                                          std::vector<Table> tables) {
  if (tables.empty()) {
    return Status::InvalidArgument("append needs at least one table");
  }
  // Appends/compactions serialize among themselves; serving never waits
  // on this lock.
  std::lock_guard<std::mutex> append_lock(append_mutex_);

  RegistryPtr registry = Pin();
  auto it = registry->by_name.find(name);
  if (it == registry->by_name.end()) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  std::shared_ptr<const Shard> old = registry->shards[it->second];
  if (old->health->quarantined.load(std::memory_order_acquire)) {
    return Status::Unavailable("shard '" + name +
                               "' is quarantined pending recovery");
  }

  // The served lake is immutable (in-flight requests read it), so the
  // appended generation is a fresh lake: copied table handles plus the
  // re-interned new tables. Any failure below leaves the old shard
  // serving untouched.
  auto lake = std::make_unique<DataLake>(*old->lake);
  const size_t first_table = lake->size();
  for (Table& t : tables) {
    GENT_RETURN_IF_ERROR(lake->AddTable(
        t.dict() != dict_ ? TranslateToDictionary(t, dict_) : std::move(t)));
  }

  // Durability before visibility: a snapshot-backed shard gets the new
  // tables on disk first, so a crash after this call replays the append
  // on the next load while a crash during it leaves the previous
  // generation intact.
  std::shared_ptr<const ColumnStatsCatalog> catalog;
  std::shared_ptr<const Shard> predecessor;
  SnapshotLoadInfo file = old->file;
  if (!old->source_path.empty() && file.version >= 2 &&
      !file.identity_remap) {
    // The file has its own id space, and a run in the service's ids
    // would reload as other values. Write the grown lake whole instead
    // (the fold's path); from then on the file speaks the service's ids.
    auto written = WriteShardFile(*lake, old->source_path);
    if (!written.ok()) return written.status();
    catalog = std::move(*written);
    file = WrittenFromServedLake();
  } else {
    // A delta run (the footer-commit protocol of AppendSnapshotDelta),
    // then the run-merge layer: the shard's existing catalog — RAM or
    // mapped — plus a RAM region for the new tables. Bit-identical to a
    // rebuild over the grown lake, at the cost of building only the
    // run's arrays.
    if (!old->source_path.empty()) {
      const ColumnStatsCatalog::DeltaRunArrays run =
          ColumnStatsCatalog::BuildDeltaRun(*lake, first_table);
      GENT_RETURN_IF_ERROR(AppendSnapshotDelta(*lake, first_table, run.views(),
                                               old->source_path,
                                               &file.delta_runs));
    }
    auto layered = ColumnStatsCatalog::WithAppended(
        old->gent->shared_catalog(), *lake, first_table);
    if (!layered.ok()) return layered.status();
    catalog = std::move(*layered);
    predecessor = old;  // keeps the borrowed views' owner alive
  }

  std::shared_ptr<Shard> shard = MakeShard(
      name, std::move(lake), nullptr, std::move(catalog), old->source_path);
  // Same registration, next content generation.
  shard->uid = old->uid;
  shard->delta_gen = old->delta_gen + 1;
  shard->file = file;
  shard->health = old->health;
  shard->predecessor = std::move(predecessor);
  if (!ReplaceShard(std::move(shard), old.get())) {
    // Remove/Reload/recovery replaced the shard under us. Nothing is
    // published; the durable write (if any) belongs to the superseded
    // file and the next load of it will still see a valid snapshot.
    return Status::Aborted("shard '" + name +
                           "' was modified concurrently with the append");
  }

  // Compaction policy: enough runs accreted — queue a background fold.
  // The queue lives with the health machinery so one thread serves
  // both; without that thread the fold waits for an explicit
  // CompactShardSnapshot call.
  const size_t threshold = options_.storage.compact_after_runs;
  if (threshold > 0 && file.delta_runs >= threshold) {
    {
      std::lock_guard<std::mutex> lock(health_mutex_);
      compaction_queue_.push_back(name);
    }
    health_cv_.notify_all();
  }
  return Status::OK();
}

Status ReclaimService::CompactShardSnapshot(const std::string& name) {
  std::lock_guard<std::mutex> append_lock(append_mutex_);

  RegistryPtr registry = Pin();
  auto it = registry->by_name.find(name);
  if (it == registry->by_name.end()) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  std::shared_ptr<const Shard> old = registry->shards[it->second];
  if (old->source_path.empty()) {
    return Status::InvalidArgument("shard '" + name +
                                   "' has no snapshot backing to compact");
  }

  // A file with no runs has nothing to fold: no write, no republish.
  if (old->file.delta_runs == 0) return Status::OK();

  // Fold from the served generation: its lake already holds base + runs
  // in the service's ids, so the new file is written from RAM (temp +
  // rename — a crash leaves old or new, never torn) and its catalog is
  // mapped over the SAME lake object, with no load of the file and no
  // dictionary reload. Readers of the old mapping keep the replaced
  // inode alive. Republished under the SAME (uid, delta_gen): the
  // content is bit-identical, so cache entries and route tags stay
  // valid — compaction is invisible to serving.
  auto catalog = WriteShardFile(*old->lake, old->source_path);
  if (!catalog.ok()) return catalog.status();
  std::shared_ptr<Shard> shard = MakeShard(
      name, old->owned, old->lake, std::move(*catalog), old->source_path);
  shard->uid = old->uid;
  shard->delta_gen = old->delta_gen;
  shard->file = WrittenFromServedLake();
  shard->health = old->health;  // a quarantined shard stays quarantined
  if (!ReplaceShard(std::move(shard), old.get())) {
    // Replaced while folding. The compacted file is durable and
    // equivalent; whoever replaced the shard owns the registration now.
    return Status::Aborted("shard '" + name +
                           "' was modified concurrently with the compaction");
  }
  return Status::OK();
}

// --- Registry observation ---------------------------------------------------

size_t ReclaimService::num_lakes() const { return Pin()->shards.size(); }

std::vector<std::string> ReclaimService::lake_names() const {
  RegistryPtr registry = Pin();
  std::vector<std::string> names;
  names.reserve(registry->shards.size());
  for (const auto& s : registry->shards) names.push_back(s->name);
  return names;
}

Result<const DataLake*> ReclaimService::lake(const std::string& name) const {
  RegistryPtr registry = Pin();
  auto it = registry->by_name.find(name);
  if (it == registry->by_name.end()) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  return registry->shards[it->second]->lake;
}

uint64_t ReclaimService::registry_epoch() const { return Pin()->epoch; }

// --- Serving ----------------------------------------------------------------

Result<ReclamationResult> ReclaimService::ReclaimImpl(
    const Table& source, const ReclaimRequest& request,
    const RegistrySnapshot& registry, const TraversalOptions& traversal,
    const ExpandOptions& expand, const OpLimits& limits) const {
  if (registry.shards.empty()) {
    return Status::InvalidArgument(
        "service has no lakes registered (at the pinned registry epoch)");
  }
  requests_routed_.fetch_add(1, std::memory_order_relaxed);

  // Quarantine gate (DESIGN.md §5.11): one lock-free load of each
  // routed shard's health flag. Routing below treats a quarantined shard
  // as absent (fan-out answers from the remaining shards, a named
  // request gets Unavailable).
  auto is_quarantined = [](const Shard& shard) {
    return shard.health->quarantined.load(std::memory_order_acquire);
  };

  // Route (DESIGN.md §5.6) to a target shard set and a route tag (see
  // discovery_cache.h for the tag contract: uids, not indices).
  std::vector<size_t> targets;
  uint64_t route_tag = 0;
  if (!request.lake.empty()) {
    auto it = registry.by_name.find(request.lake);
    if (it == registry.by_name.end()) {
      return Status::NotFound("no shard named '" + request.lake + "'");
    }
    const Shard& shard = *registry.shards[it->second];
    if (is_quarantined(shard)) {
      unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("shard '" + request.lake +
                                 "' is quarantined pending recovery");
    }
    targets.push_back(it->second);
    route_tag = ShardRouteTag(shard.uid, shard.delta_gen);
  } else {
    // Fan out, skipping quarantined shards and shards the source shares
    // no value with: recall ranks lake tables by shared distinct values
    // and forwards only tables sharing at least one, so a zero-overlap
    // shard cannot produce a candidate — dropping it is free and
    // result-preserving. SortedQueryValues is the exact construction
    // recall (TopKTables) uses, so !SharesAnyValue ⇒ recall forwards
    // nothing from the shard.
    const std::vector<ValueId> query = SortedQueryValues(source);
    std::vector<uint64_t> selected;
    for (size_t i = 0; i < registry.shards.size(); ++i) {
      const Shard& shard = *registry.shards[i];
      if (is_quarantined(shard)) {
        quarantine_skipped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!shard.gent->catalog().SharesAnyValue(query)) {
        shards_pruned_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      targets.push_back(i);
      selected.push_back(ShardRouteTag(shard.uid, shard.delta_gen));
    }
    // The tag folds exactly the answering shards' (uid, delta_gen): an
    // append or a quarantine changes it, and fan-outs that reach the
    // same shard set share cache entries, which is correct because
    // their results are identical.
    route_tag = FoldRouteTags(selected);
  }

  DiscoveryConfig discovery = options_.config.discovery;
  if (request.exclude_source_name) discovery.exclude_table = source.name();

  // Downstream of expansion the pipeline reads only the expanded tables
  // and config (candidates' Candidate::stats pointers reference their
  // own shard's catalog, which the pinned snapshot keeps alive), so any
  // shard's pipeline object can run it — all shards share
  // options_.config. An empty target set (prefilter pruned everything)
  // still runs the downstream pipeline with zero candidates, exactly
  // what fanning out over only zero-overlap shards would produce.
  const GenT& pipeline =
      *registry.shards[targets.empty() ? 0 : targets[0]]->gent;
  const bool use_cache =
      !request.bypass_cache && options_.cache_capacity > 0;
  // A wall-clock budget (timeout or end-to-end deadline) can interrupt
  // expansion mid-join silently, and the answer built over the
  // truncated set is OK but not the budget-free answer the key names.
  // Budget-carrying requests may hit entries (a stored answer under
  // budget is strictly better) but never populate them. A cancel token
  // needs no such guard: cancellation, like every interruption in
  // traversal and integration, surfaces as an error Status, and only
  // OK results reach the Insert below.
  bool populate_cache = use_cache && request.timeout_seconds <= 0 &&
                        request.deadline_seconds <= 0;
  SourceFingerprint key;
  if (use_cache) {
    auto t0 = std::chrono::steady_clock::now();
    key = FingerprintSource(source, discovery, request.max_rows, route_tag);
    if (auto hit = cache_.Lookup(key)) {
      // Return a copy of the stored answer: no pipeline stage runs, and
      // the result is bit-identical to the cold run that populated the
      // entry. A cancelled or expired request still fails here, as it
      // would at the miss path's first checkpoint.
      GENT_RETURN_IF_ERROR(limits.Interrupted());
      hit->cache_hit = true;
      hit->discovery_seconds = SecondsSince(t0);
      return std::move(*hit);
    }
  }

  // Cold path: discover per shard, merge candidate lists by score, then
  // expand. Each shard's list is already sorted (score desc, lake index
  // asc); the stable sort keeps shard order and within-shard order on
  // ties, so the merged order — and with it every downstream result —
  // is deterministic.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Candidate> merged;
  for (size_t shard : targets) {
    auto candidates = registry.shards[shard]->gent->DiscoverCandidates(
        source, discovery, limits);
    if (!candidates.ok()) {
      const StatusCode code = candidates.status().code();
      if (code == StatusCode::kIOError || code == StatusCode::kInternal) {
        // A storage-class failure mid-serving: quarantine the shard so
        // later requests skip it while recovery runs.
        NoteShardFault(*registry.shards[shard],
                       candidates.status().message());
        if (targets.size() > 1) {
          // Fan-out degrades to the surviving shards. The partial
          // candidate set must NOT enter the cache: its route tag
          // claims the full target set.
          populate_cache = false;
          continue;
        }
      }
      return candidates.status();
    }
    merged.reserve(merged.size() + candidates->size());
    for (auto& c : *candidates) merged.push_back(std::move(c));
  }
  // Post-serve sweep: a mapped shard whose prefaults hit I/O faults
  // reports it through its sticky storage health; quarantine before the
  // next request routes to it. One relaxed load per healthy shard.
  for (size_t shard : targets) {
    Status h = registry.shards[shard]->gent->catalog().storage_health();
    if (!h.ok()) NoteShardFault(*registry.shards[shard], h.message());
  }
  if (targets.size() > 1) {
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.score > b.score;
                     });
  }
  GENT_ASSIGN_OR_RETURN(auto expanded,
                        Expand(source, merged, limits, expand));
  GENT_ASSIGN_OR_RETURN(
      ReclamationResult result,
      pipeline.ReclaimFromExpanded(source, std::move(expanded.tables), limits,
                                   traversal, SecondsSince(t0)));
  if (populate_cache) cache_.Insert(key, result);
  return result;
}

Result<ReclamationResult> ReclaimService::Reclaim(
    const Table& source, const ReclaimRequest& request) const {
  RegistryPtr registry = Pin();
  if (source.dict() != dict_) {
    return ReclaimImpl(TranslateToDictionary(source, dict_), request,
                       *registry, options_.config.traversal,
                       options_.config.expand, LimitsFromRequest(request));
  }
  return ReclaimImpl(source, request, *registry, options_.config.traversal,
                     options_.config.expand, LimitsFromRequest(request));
}

std::vector<Result<ReclamationResult>> ReclaimService::ReclaimBatch(
    const std::vector<Table>& sources, const ReclaimRequest& request) const {
  std::vector<Result<ReclamationResult>> results;
  results.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    results.emplace_back(Status::Internal("not run"));
  }
  if (sources.empty()) return results;

  // One snapshot for the whole batch: a concurrent shard mutation
  // affects every source of the batch or none, and results stay
  // bit-identical to serial Reclaim calls against the same snapshot.
  RegistryPtr registry = Pin();

  // Foreign-dictionary sources are re-interned serially, in input
  // order, before any worker runs: new values get schedule-independent
  // ids.
  std::vector<Table> translated;
  translated.reserve(sources.size());  // pointer stability for admitted
  std::vector<const Table*> admitted(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].dict() != dict_) {
      translated.push_back(TranslateToDictionary(sources[i], dict_));
      admitted[i] = &translated.back();
    } else {
      admitted[i] = &sources[i];
    }
  }

  // Batch workers saturate the resident pool; intra-traversal and
  // intra-expansion parallelism on top would oversubscribe (thread
  // count never affects results). A 1-source batch keeps both: only one
  // worker runs, so the pipeline may use the machine.
  TraversalOptions traversal = options_.config.traversal;
  ExpandOptions expand = options_.config.expand;
  if (pool_->num_threads() > 1 && sources.size() > 1) {
    traversal.num_threads = 1;
    expand.num_threads = 1;
  }

  ParallelFor(pool_.get(), sources.size(), [&](size_t i) {
    // Limits built per worker invocation: each source's wall-clock
    // budget starts when ITS reclamation starts, not when the batch does.
    results[i] = ReclaimImpl(*admitted[i], request, *registry, traversal,
                             expand, LimitsFromRequest(request));
  });
  return results;
}

StatusCode ReclaimService::Publish(ReclaimTicket::SharedState& state,
                                   Result<ReclamationResult> result,
                                   PublishContext context) const {
  StatusCode published;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.cancelled) {
      // Cancel() won the race: honor its guarantee and discard whatever
      // the pipeline produced (even a completed result).
      result = Result<ReclamationResult>(
          Status::Cancelled("reclamation cancelled"));
    }
    published = result.ok() ? StatusCode::kOk : result.status().code();
    // Counters bumped before waiters wake: a Wait() followed by
    // admission_stats() is guaranteed to observe the increment.
    switch (context) {
      case PublishContext::kShed:
        break;  // admission_shed_ counted under the admission lock
      case PublishContext::kPreStartCancel:
        admission_cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      case PublishContext::kDeadlineInQueue:
        if (published == StatusCode::kCancelled) {
          // A Cancel() landed in the DOA check's race window; it still
          // never ran, so it counts as a pre-start cancel.
          admission_cancelled_.fetch_add(1, std::memory_order_relaxed);
        } else {
          admission_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case PublishContext::kExecuted:
        if (published == StatusCode::kCancelled) {
          admission_cancelled_mid_flight_.fetch_add(1,
                                                    std::memory_order_relaxed);
        }
        break;
    }
    state.result = std::move(result);
    state.completed_at = std::chrono::steady_clock::now();
  }
  state.ready_cv.notify_all();
  return published;
}

Result<ReclaimTicket> ReclaimService::SubmitReclaim(
    Table source, const ReclaimRequest& request) const {
  const auto submitted_at = std::chrono::steady_clock::now();

  // Admission work happens in the submitter's thread: pin the registry,
  // re-intern a foreign-dictionary source. The queued entry is fully
  // self-contained (it owns its pinned snapshot), so a shed or a pump
  // needs nothing from the submitter.
  Pending entry;
  entry.state = std::make_shared<ReclaimTicket::SharedState>();
  entry.request = request;
  if (request.deadline_seconds > 0) {
    entry.has_deadline = true;
    entry.deadline = SteadyTimeAfter(submitted_at, request.deadline_seconds);
  }
  entry.registry = Pin();
  entry.source = std::make_shared<const Table>(
      source.dict() != dict_ ? TranslateToDictionary(source, dict_)
                             : std::move(source));
  // Async requests share the pool with each other and with batches;
  // intra-pipeline parallelism on top would oversubscribe.
  entry.traversal = options_.config.traversal;
  entry.expand = options_.config.expand;
  if (pool_->num_threads() > 1) {
    entry.traversal.num_threads = 1;
    entry.expand.num_threads = 1;
  }

  ReclaimTicket ticket;
  ticket.state_ = entry.state;

  const size_t pri = static_cast<size_t>(request.priority);
  const size_t capacity = options_.admission_capacity;
  std::shared_ptr<ReclaimTicket::SharedState> shed_victim;
  bool need_pump = true;
  {
    std::unique_lock<std::mutex> lock(admission_mutex_);
    auto full = [&]() {
      return capacity > 0 && admission_queued_ >= capacity;
    };
    if (full() && options_.admission_policy == AdmissionPolicy::kBlock) {
      admission_space_.wait(lock, [&]() { return !full(); });
    } else if (full()) {  // kShedOldest
      // Victim: the oldest entry of the lowest class at or below the
      // newcomer's.
      size_t victim_class = kNumPriorityClasses;  // sentinel: none
      for (size_t p = kNumPriorityClasses; p-- > pri;) {
        if (!admission_queues_[p].empty()) {
          victim_class = p;
          break;
        }
      }
      if (victim_class == kNumPriorityClasses) {
        // Everything queued outranks the newcomer: shed the newcomer
        // itself.
        ++admission_rejected_;
        return Status::ResourceExhausted(
            "admission queue full of higher-priority work");
      }
      shed_victim = std::move(admission_queues_[victim_class].front().state);
      admission_queues_[victim_class].pop_front();
      --admission_queued_;
      ++admission_shed_;
      // The victim's already-submitted pump task now drains the
      // newcomer instead: queue count and outstanding pumps both stay
      // balanced without a new Submit.
      need_pump = false;
    }
    admission_queues_[pri].push_back(std::move(entry));
    ++admission_queued_;
  }
  if (shed_victim != nullptr) {
    (void)Publish(*shed_victim,
                  Result<ReclamationResult>(Status::ResourceExhausted(
                      "shed from the admission queue by newer work "
                      "(kShedOldest)")),
                  PublishContext::kShed);
  }
  if (need_pump) {
    pool_->Submit([this]() { PumpOne(); });
  }
  return ticket;
}

void ReclaimService::PumpOne() const {
  Pending entry;
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    for (auto& queue : admission_queues_) {  // kHigh → kNormal → kBatch
      if (queue.empty()) continue;
      entry = std::move(queue.front());
      queue.pop_front();
      break;
    }
    // Invariant (outstanding pumps == queued entries) guarantees the
    // scan above found an entry.
    --admission_queued_;
  }
  admission_space_.notify_all();

  // Cancelled while queued: discard without running.
  bool pre_cancelled;
  {
    std::lock_guard<std::mutex> lock(entry.state->mutex);
    pre_cancelled = entry.state->cancelled;
  }
  if (pre_cancelled) {
    (void)Publish(*entry.state,
                  Result<ReclamationResult>(Status::Cancelled(
                      "cancelled before execution started")),
                  PublishContext::kPreStartCancel);
    return;
  }

  // Dead-on-arrival rejection: the end-to-end deadline expired during
  // the queue wait, so running the pipeline could only waste the pool.
  if (entry.has_deadline &&
      std::chrono::steady_clock::now() > entry.deadline) {
    (void)Publish(*entry.state,
                  Result<ReclamationResult>(Status::Timeout(
                      "deadline expired in the admission queue")),
                  PublishContext::kDeadlineInQueue);
    return;
  }

  // Execution budget: relative timeout starts now, the end-to-end
  // deadline keeps its submission epoch, the earlier of the two wins;
  // the ticket's cancel token makes Cancel() bite mid-flight at the
  // next pipeline checkpoint.
  OpLimits limits;
  if (entry.request.timeout_seconds > 0) {
    limits.Deadline(SteadyTimeAfter(std::chrono::steady_clock::now(),
                                    entry.request.timeout_seconds));
  }
  if (entry.has_deadline) limits.Deadline(entry.deadline);
  if (entry.request.max_rows > 0) limits.MaxRows(entry.request.max_rows);
  limits.CancelToken(&entry.state->cancel_flag);

  (void)Publish(*entry.state,
                ReclaimImpl(*entry.source, entry.request, *entry.registry,
                            entry.traversal, entry.expand, limits),
                PublishContext::kExecuted);
}

// --- Introspection ----------------------------------------------------------

ReclaimService::AdmissionStats ReclaimService::admission_stats() const {
  AdmissionStats stats;
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    stats.queued = admission_queued_;
    stats.rejected = admission_rejected_;
    stats.shed = admission_shed_;
    for (size_t p = 0; p < kNumPriorityClasses; ++p) {
      stats.queue_depth[p] = admission_queues_[p].size();
    }
  }
  stats.capacity = options_.admission_capacity;
  stats.cancelled = admission_cancelled_.load(std::memory_order_relaxed);
  stats.deadline_expired_in_queue =
      admission_deadline_expired_.load(std::memory_order_relaxed);
  stats.cancelled_mid_flight =
      admission_cancelled_mid_flight_.load(std::memory_order_relaxed);
  stats.pool_backlog = pool_->queue_depth();
  return stats;
}

std::vector<ReclaimService::ShardResidency> ReclaimService::residency_stats()
    const {
  RegistryPtr registry = Pin();
  std::vector<ShardResidency> out;
  out.reserve(registry->shards.size());
  for (const auto& s : registry->shards) {
    out.push_back({s->name, s->uid, s->gent->catalog().residency()});
  }
  return out;
}

ReclaimService::RoutingStats ReclaimService::routing_stats() const {
  RoutingStats stats;
  stats.requests = requests_routed_.load(std::memory_order_relaxed);
  stats.shards_pruned = shards_pruned_.load(std::memory_order_relaxed);
  stats.shards_quarantine_skipped =
      quarantine_skipped_.load(std::memory_order_relaxed);
  stats.unavailable_rejects =
      unavailable_rejects_.load(std::memory_order_relaxed);
  return stats;
}

// --- Shard health -----------------------------------------------------------

void ReclaimService::NoteShardFault(const Shard& shard,
                                    const std::string& error) const {
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    ShardHealthCell& cell = *shard.health;
    ++cell.error_count;
    cell.last_error = error;
    if (cell.quarantined.load(std::memory_order_relaxed)) return;
    cell.rebuilt_from_body = false;
    cell.next_retry = SteadyTimeAfter(
        std::chrono::steady_clock::now(),
        BackoffSeconds(options_.health, shard.uid, /*attempt=*/0));
    cell.quarantined.store(true, std::memory_order_release);
  }
  health_cv_.notify_all();
}

void ReclaimService::RecoveryLoop() {
  std::unique_lock<std::mutex> lock(health_mutex_);
  while (!stopping_) {
    // Queued compactions drain ahead of recovery scans: the policy that
    // queued them fired on the append path, so the work is known-due.
    // Best-effort — a concurrent append/remove aborts the fold and the
    // next threshold crossing re-queues it.
    if (!compaction_queue_.empty()) {
      std::string name = std::move(compaction_queue_.front());
      compaction_queue_.pop_front();
      lock.unlock();
      (void)CompactShardSnapshot(name);
      lock.lock();
      continue;
    }
    // Earliest due quarantined shard with retries still enabled, among
    // the registered ones (a retired shard's cell is out of reach). With
    // none due, sleep until the earliest schedule or a notify (a new
    // quarantine, a queued fold, shutdown). Pinning under health_mutex_
    // means a shard published and faulted after the pin can only notify
    // once the wait below has begun; the pin is dropped before waiting,
    // so a sleeping loop keeps no retired shard alive.
    const auto now = std::chrono::steady_clock::now();
    std::shared_ptr<const Shard> due;
    auto earliest = std::chrono::steady_clock::time_point::max();
    {
      RegistryPtr registry = Pin();
      for (const auto& shard : registry->shards) {
        const ShardHealthCell& cell = *shard->health;
        if (!cell.quarantined.load(std::memory_order_relaxed) ||
            !cell.retry_enabled) {
          continue;
        }
        if (cell.next_retry <= now) {
          due = shard;
          break;
        }
        earliest = std::min(earliest, cell.next_retry);
      }
    }
    if (due == nullptr) {
      if (earliest == std::chrono::steady_clock::time_point::max()) {
        health_cv_.wait(lock);  // nothing scheduled; loop re-checks
      } else {
        health_cv_.wait_until(lock, earliest);
      }
      continue;
    }
    lock.unlock();
    AttemptRecovery(due);
    lock.lock();
  }
}

void ReclaimService::AttemptRecovery(const std::shared_ptr<const Shard>& old) {
  ShardHealthCell& cell = *old->health;
  if (old->source_path.empty()) {
    // Nothing on disk to recover from (a RAM/CSV shard): stop
    // scheduling; only an explicit reload can heal it.
    std::lock_guard<std::mutex> lock(health_mutex_);
    cell.retry_enabled = false;
    cell.last_error += " (not snapshot-backed; awaiting explicit reload)";
    return;
  }

  // Expensive work outside every lock, exactly like ReloadLakeFromSnapshot.
  // Preferred path: full reopen (mapped when the snapshot allows).
  std::unique_ptr<DataLake> lake;
  std::shared_ptr<const ColumnStatsCatalog> catalog;
  SnapshotLoadInfo info;
  Status st = LoadShardFromSnapshot(old->source_path, &lake, &catalog, &info);
  bool salvaged = false;
  std::string fail_reason;
  if (!st.ok()) {
    fail_reason = st.message();
    // Salvage fallback: the body may still parse even when the v2
    // catalog tail is damaged — reload it and rebuild the catalog in
    // RAM. The shard then serves identically, flagged kDegraded.
    lake = std::make_unique<DataLake>(dict_);
    catalog.reset();
    info = SnapshotLoadInfo();  // salvage recovers the base generation only
    Status body = LoadSnapshotBody(*lake, old->source_path, &info);
    if (body.ok()) {
      salvaged = true;
      st = Status::OK();
    } else {
      fail_reason += "; body salvage: " + body.message();
    }
  }

  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(health_mutex_);
    ++cell.attempts;
    cell.last_error = fail_reason;
    const size_t cap = options_.health.max_recovery_attempts;
    if (cap > 0 && cell.attempts >= cap) {
      cell.retry_enabled = false;  // give up; explicit reload only
    } else {
      cell.next_retry =
          SteadyTimeAfter(std::chrono::steady_clock::now(),
                          BackoffSeconds(options_.health, old->uid,
                                         cell.attempts));
    }
    return;
  }

  // The healed shard is a new registration (fresh uid, fresh cell) that
  // carries the old one's fault history forward.
  std::shared_ptr<Shard> shard = MakeShard(
      old->name, std::move(lake), nullptr, std::move(catalog),
      old->source_path);
  shard->file = info;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    shard->health->error_count = cell.error_count;
    shard->health->recoveries = cell.recoveries + 1;
    shard->health->last_error = cell.last_error;
    shard->health->rebuilt_from_body = salvaged;
  }
  // Swap in ONLY if the quarantined generation is still registered. A
  // concurrent RemoveLake/Reload supersedes recovery (the retired cell
  // dies with its last pin); a generation published meanwhile shares
  // the quarantined cell, so the next scan retries against it.
  (void)ReplaceShard(std::move(shard), old.get());
}

std::vector<ReclaimService::ShardHealthStats> ReclaimService::health_stats()
    const {
  RegistryPtr registry = Pin();
  std::vector<ShardHealthStats> out;
  out.reserve(registry->shards.size());
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(health_mutex_);
  for (const auto& s : registry->shards) {
    const ShardHealthCell& cell = *s->health;
    const bool quarantined = cell.quarantined.load(std::memory_order_relaxed);
    ShardHealthStats stats;
    stats.name = s->name;
    stats.uid = s->uid;
    stats.state = quarantined              ? ShardHealth::kQuarantined
                  : cell.rebuilt_from_body ? ShardHealth::kDegraded
                                           : ShardHealth::kHealthy;
    stats.error_count = cell.error_count;
    stats.recovery_attempts = cell.attempts;
    stats.recoveries = cell.recoveries;
    stats.rebuilt_from_body = cell.rebuilt_from_body;
    stats.last_error = cell.last_error;
    if (quarantined) {
      if (!cell.retry_enabled || !options_.health.auto_recover) {
        stats.next_retry_in_seconds = -1;
      } else if (cell.next_retry > now) {
        stats.next_retry_in_seconds =
            std::chrono::duration<double>(cell.next_retry - now).count();
      }
    }
    out.push_back(std::move(stats));
  }
  return out;
}

Status ReclaimService::CheckShardHealth(const std::string& name) const {
  // Appends and folds rewrite the backing file under this lock; holding
  // it keeps the file's run count and the shard's in step.
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  RegistryPtr registry = Pin();
  auto it = registry->by_name.find(name);
  if (it == registry->by_name.end()) {
    return Status::NotFound("no shard named '" + name + "'");
  }
  const Shard& shard = *registry->shards[it->second];
  // Cheap first: the catalog backend's sticky verdict. Then the deep
  // check — re-verify the backing snapshot's bytes end to end.
  Status st = shard.gent->catalog().storage_health();
  if (st.ok() && !shard.source_path.empty()) {
    size_t runs = 0;
    st = VerifySnapshotIntegrity(shard.source_path, &runs);
    if (st.ok() && runs < shard.file.delta_runs) {
      // Fewer runs than committed. A damaged newest footer verifies at
      // the previous generation and loses that run's tables; a fold
      // whose rename landed but whose last sync failed left every
      // table in a file with no runs, and is healthy.
      auto tables = SnapshotTableCount(shard.source_path);
      if (!tables.ok()) {
        st = tables.status();
      } else if (*tables < shard.lake->size()) {
        st = Status::IOError(
            "'" + shard.source_path + "' verifies at " +
            std::to_string(runs) + " delta runs and " +
            std::to_string(*tables) + " tables but the shard committed " +
            std::to_string(shard.file.delta_runs) + " runs and serves " +
            std::to_string(shard.lake->size()) +
            " tables: the newest committed footer is damaged");
      }
    }
  }
  if (!st.ok()) NoteShardFault(shard, st.message());
  return st;
}

}  // namespace gent
