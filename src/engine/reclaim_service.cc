#include "src/engine/reclaim_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/lake/snapshot.h"

namespace gent {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Status CheckServiceDictionary(const std::string& name, const DataLake& lake,
                              const DictionaryPtr& dict) {
  if (lake.dict() == dict) return Status::OK();
  return Status::InvalidArgument(
      "shard '" + name +
      "' must use the service dictionary (value ids must be comparable "
      "across shards)");
}

// Shard construction. MakeShard builds a shard handle, with a fresh
// health cell, outside every lock — the one place a registration's
// catalog is built. `catalog` (may be null) is a prebuilt catalog over
// the lake (the mapped snapshot-open and layered-append paths);
// otherwise the shard builds one, which serving never waits on.
std::shared_ptr<Shard> MakeShard(
    const std::string& name, std::shared_ptr<const DataLake> lake,
    std::shared_ptr<const ColumnStatsCatalog> catalog,
    const std::string& source_path = std::string(),
    const SnapshotLoadInfo& file = SnapshotLoadInfo()) {
  auto shard = std::make_shared<Shard>();
  shard->name = name;
  shard->lake = std::move(lake);
  shard->catalog = catalog != nullptr
                       ? std::move(catalog)
                       : std::make_shared<const ColumnStatsCatalog>(
                             *shard->lake);
  shard->source_path = source_path;
  shard->file = file;
  shard->health = std::make_shared<ShardHealthCell>();
  return shard;
}

// Opens `path`'s catalog sections mapped over `lake` without
// re-checksumming (the caller has just verified or written the file).
// Null on failure (e.g. mmap unavailable): a mapped open is an
// optimization, and a RAM catalog serves identically.
std::shared_ptr<const ColumnStatsCatalog> OpenMappedCatalog(
    const DataLake& lake, const std::string& path) {
  storage::MappedCatalog::Options mopts;
  mopts.verify_checksums = false;
  auto mapped = ColumnStatsCatalog::OpenMapped(lake, path, mopts);
  return mapped.ok() ? std::move(*mapped) : nullptr;
}

// Loads `path` into a fresh lake on `dict` and makes a shard of it, with
// the catalog sections mapped when the snapshot is v2 with an identity
// remap (built in RAM otherwise) and `file` set from the load. Shared by
// AddLakeFromSnapshot, ReloadLakeFromSnapshot and recovery.
Result<std::shared_ptr<Shard>> LoadShard(const DictionaryPtr& dict,
                                         const std::string& name,
                                         const std::string& path) {
  auto lake = std::make_shared<DataLake>(dict);
  SnapshotLoadInfo info;
  GENT_RETURN_IF_ERROR(LoadSnapshot(*lake, path, &info));
  // v2 with a matching id space: the file's catalog sections speak this
  // lake's ValueIds verbatim, so open them mapped. LoadSnapshot just
  // verified every section checksum. Anything else rebuilds.
  std::shared_ptr<const ColumnStatsCatalog> catalog;
  if (info.version >= 2 && info.identity_remap) {
    catalog = OpenMappedCatalog(*lake, path);
  }
  return MakeShard(name, std::move(lake), std::move(catalog), path, info);
}

// Writes the served `lake` whole to `path` (SaveSnapshotV2 of a catalog
// built over it: bit-identical to a one-shot save, landing by temp +
// rename) and makes the shard that serves it: the new file's sections
// mapped over the same lake (the built catalog when the mapped open
// fails), with a file record of v2 in the service's ids and no runs.
// The fold of CompactShardSnapshot, and the append to a file with a
// foreign id space.
Result<std::shared_ptr<Shard>> WriteShardFile(
    const std::string& name, std::shared_ptr<const DataLake> lake,
    const std::string& path) {
  auto catalog = std::make_shared<const ColumnStatsCatalog>(*lake);
  GENT_RETURN_IF_ERROR(SaveSnapshotV2(*lake, catalog->section_views(), path));
  if (auto mapped = OpenMappedCatalog(*lake, path)) catalog = std::move(mapped);
  std::shared_ptr<Shard> shard =
      MakeShard(name, std::move(lake), std::move(catalog), path);
  shard->file.version = 2;
  shard->file.identity_remap = true;
  return shard;
}

// The one admission step for foreign dictionaries: a table on another
// dictionary than `dict` is re-interned into it and kept in
// `*translated`; one already on `dict` passes through uncopied.
const Table& Admit(const DictionaryPtr& dict, const Table& table,
                   std::optional<Table>* translated) {
  if (table.dict() == dict) return table;
  return translated->emplace(TranslateToDictionary(table, dict));
}

// ShardMaintenance's recover callback: a full reopen of `old`'s snapshot
// (mapped when the snapshot allows); when that fails, the body salvage —
// the body may still parse when the v2 catalog tail is damaged, so
// reload it and rebuild the catalog in RAM. The salvaged shard serves
// identically, flagged rebuilt_from_body (kDegraded).
Result<std::shared_ptr<Shard>> RecoverShard(const DictionaryPtr& dict,
                                            const Shard& old) {
  auto loaded = LoadShard(dict, old.name, old.source_path);
  if (loaded.ok()) return loaded;
  auto lake = std::make_shared<DataLake>(dict);
  SnapshotLoadInfo info;  // salvage recovers the base generation only
  Status body = LoadSnapshotBody(*lake, old.source_path, &info);
  if (!body.ok()) {
    return Status(body.code(), loaded.status().message() +
                                   "; body salvage: " + body.message());
  }
  std::shared_ptr<Shard> shard =
      MakeShard(old.name, std::move(lake), nullptr, old.source_path, info);
  shard->health->report.rebuilt_from_body = true;
  return shard;
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

// --- Registry lifecycle -----------------------------------------------------

ReclaimService::ReclaimService(ServiceOptions options)
    : options_(std::move(options)),
      dict_(options_.dict != nullptr ? options_.dict : MakeDictionary()),
      cache_(options_.cache_capacity),
      pool_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreads(options_.num_threads))),
      maintenance_(
          options_.health, registry_,
          [this](const Shard& old) { return RecoverShard(dict_, old); },
          [this](const std::string& n) { (void)CompactShardSnapshot(n); }),
      admission_(options_.admission_capacity, options_.admission_policy,
                 pool_.get(),
                 [this](const AdmissionQueue::Entry& entry,
                        const std::atomic<bool>* cancel) {
                   return ReclaimImpl(*entry.source, entry.request,
                                      *entry.registry, /*pooled=*/true,
                                      entry.submitted, cancel);
                 }) {}

Status ReclaimService::AddLake(const std::string& name, DataLake lake) {
  GENT_RETURN_IF_ERROR(CheckServiceDictionary(name, lake, dict_));
  return registry_.Add(MakeShard(
      name, std::make_shared<const DataLake>(std::move(lake)), nullptr));
}

Status ReclaimService::AddLakeView(const std::string& name,
                                   const DataLake& lake) {
  GENT_RETURN_IF_ERROR(CheckServiceDictionary(name, lake, dict_));
  // Non-owning: the aliasing constructor with an empty owner.
  return registry_.Add(MakeShard(
      name, std::shared_ptr<const DataLake>(std::shared_ptr<void>(), &lake),
      nullptr));
}

Status ReclaimService::AddLakeFromSnapshot(const std::string& name,
                                           const std::string& path) {
  GENT_ASSIGN_OR_RETURN(auto shard, LoadShard(dict_, name, path));
  return registry_.Add(std::move(shard));
}

Status ReclaimService::AddLakeFromDirectory(const std::string& name,
                                            const std::string& dir) {
  // Startup housekeeping: a saver that crashed mid-commit strands its
  // temp file here; collect the strands before serving from the dir.
  (void)SweepSnapshotTemps(dir);
  auto lake = std::make_shared<DataLake>(dict_);
  GENT_RETURN_IF_ERROR(lake->LoadDirectory(dir));
  return registry_.Add(MakeShard(name, std::move(lake), nullptr));
}

Status ReclaimService::SaveShardSnapshot(const std::string& name,
                                         const std::string& path) const {
  // Pin: the shard (lake + catalog) stays alive for the whole write
  // even against a concurrent RemoveLake/Reload.
  GENT_ASSIGN_OR_RETURN(auto shard, registry_.Find(name));
  return SaveSnapshotV2(*shard->lake, shard->catalog->section_views(), path);
}

Status ReclaimService::ReloadLakeFromSnapshot(const std::string& name,
                                              const std::string& path) {
  // Expensive work first, outside the lock: if the snapshot is corrupt
  // the old shard keeps serving untouched. The new registration has a
  // fresh health cell: an explicit reload supersedes any quarantine of
  // the old one.
  GENT_ASSIGN_OR_RETURN(auto shard, LoadShard(dict_, name, path));
  return registry_.Replace(std::move(shard), nullptr);
}

Status ReclaimService::AppendTablesToLake(const std::string& name,
                                          std::vector<Table> tables) {
  if (tables.empty()) {
    return Status::InvalidArgument("append needs at least one table");
  }
  // Appends/compactions serialize among themselves; serving never waits
  // on this lock.
  std::lock_guard<std::mutex> append_lock(append_mutex_);

  GENT_ASSIGN_OR_RETURN(std::shared_ptr<const Shard> old, registry_.Find(name));
  if (old->health->quarantined.load(std::memory_order_acquire)) {
    return Status::Unavailable("shard '" + name +
                               "' is quarantined pending recovery");
  }

  // The served lake is immutable (in-flight requests read it), so the
  // appended generation is a fresh lake: copied table handles plus the
  // re-interned new tables. Any failure below leaves the old shard
  // serving untouched.
  auto lake = std::make_shared<DataLake>(*old->lake);
  const size_t first_table = lake->size();
  for (Table& t : tables) {
    std::optional<Table> translated;
    Admit(dict_, t, &translated);
    GENT_RETURN_IF_ERROR(
        lake->AddTable(std::move(translated).value_or(std::move(t))));
  }

  // Durability before visibility: a snapshot-backed shard gets the new
  // tables on disk first, so a crash after this call replays the append
  // on the next load while a crash during it leaves the previous
  // generation intact.
  std::shared_ptr<Shard> shard;
  if (!old->source_path.empty() && old->file.version >= 2 &&
      !old->file.identity_remap) {
    // The file has its own id space, and a run in the service's ids
    // would reload as other values. Write the grown lake whole instead
    // (the fold's path); from then on the file speaks the service's ids.
    GENT_ASSIGN_OR_RETURN(
        shard, WriteShardFile(name, std::move(lake), old->source_path));
  } else {
    // A delta run (the footer-commit protocol of AppendSnapshotDelta),
    // then the run-merge layer: the shard's existing catalog — RAM or
    // mapped — plus a RAM region for the new tables. Bit-identical to a
    // rebuild over the grown lake, at the cost of building only the
    // run's arrays.
    SnapshotLoadInfo file = old->file;
    if (!old->source_path.empty()) {
      const ColumnStatsCatalog::DeltaRunArrays run =
          ColumnStatsCatalog::BuildDeltaRun(*lake, first_table);
      GENT_RETURN_IF_ERROR(AppendSnapshotDelta(*lake, first_table, run.views(),
                                               old->source_path,
                                               &file.delta_runs));
    }
    GENT_ASSIGN_OR_RETURN(auto catalog, ColumnStatsCatalog::WithAppended(
                                            old->catalog, *lake, first_table));
    shard = MakeShard(name, std::move(lake), std::move(catalog),
                      old->source_path, file);
    shard->predecessor = old;  // keeps the borrowed views' owner alive
  }
  const size_t runs = shard->file.delta_runs;
  // Same registration, next content generation. Aborted when
  // Remove/Reload/recovery replaced the shard under us: nothing is
  // published, the durable write (if any) belongs to the superseded file
  // and the next load of it will still see a valid snapshot.
  GENT_RETURN_IF_ERROR(
      registry_.CarryForward(std::move(shard), *old, /*new_content=*/true));

  // Compaction policy: enough runs accreted — queue a background fold.
  // Without the maintenance thread the fold waits for an explicit
  // CompactShardSnapshot call.
  const size_t threshold = options_.storage.compact_after_runs;
  if (threshold > 0 && runs >= threshold) maintenance_.QueueCompaction(name);
  return Status::OK();
}

Status ReclaimService::CompactShardSnapshot(const std::string& name) {
  std::lock_guard<std::mutex> append_lock(append_mutex_);

  GENT_ASSIGN_OR_RETURN(std::shared_ptr<const Shard> old, registry_.Find(name));
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
  // valid — compaction is invisible to serving. Aborted when the shard
  // was replaced while folding: the compacted file is durable and
  // equivalent, and whoever replaced the shard owns the registration
  // now. A quarantined shard stays quarantined (the cell carries
  // forward).
  GENT_ASSIGN_OR_RETURN(auto shard,
                        WriteShardFile(name, old->lake, old->source_path));
  return registry_.CarryForward(std::move(shard), *old,
                                /*new_content=*/false);
}

// --- Registry observation ---------------------------------------------------

std::vector<std::string> ReclaimService::lake_names() const {
  RegistryPtr registry = registry_.Pin();
  std::vector<std::string> names;
  names.reserve(registry->shards.size());
  for (const auto& s : registry->shards) names.push_back(s->name);
  return names;
}

// --- Serving ----------------------------------------------------------------

Result<ReclamationResult> ReclaimService::ReclaimImpl(
    const Table& source, const ReclaimRequest& request,
    const RegistrySnapshot& registry, bool pooled,
    std::chrono::steady_clock::time_point submitted,
    const std::atomic<bool>* cancel) const {
  // Budget: the relative timeout starts now, the end-to-end deadline
  // keeps its submission epoch, the earlier of the two wins; a ticket's
  // cancel token makes Cancel() bite at the next pipeline checkpoint.
  OpLimits limits;
  if (request.timeout_seconds > 0) {
    limits.Deadline(SteadyTimeAfter(std::chrono::steady_clock::now(),
                                    request.timeout_seconds));
  }
  if (request.deadline_seconds > 0) {
    limits.Deadline(SteadyTimeAfter(submitted, request.deadline_seconds));
  }
  if (request.max_rows > 0) limits.MaxRows(request.max_rows);
  limits.CancelToken(cancel);

  // Configuration: a request running beside others on the resident pool
  // (a multi-source batch, every async request) runs traversal and
  // expansion on one thread, since intra-pipeline parallelism on top
  // would oversubscribe (thread count never affects results).
  GenTConfig config = options_.config;
  if (request.exclude_source_name) {
    config.discovery.exclude_table = source.name();
  }
  if (pooled && pool_->num_threads() > 1) {
    config.traversal.num_threads = 1;
    config.expand.num_threads = 1;
  }

  if (registry.shards.empty()) {
    return Status::InvalidArgument(
        "service has no lakes registered (at the pinned registry epoch)");
  }
  requests_routed_.fetch_add(1, std::memory_order_relaxed);

  // Route (DESIGN.md §5.6) to a target shard set and a route tag (see
  // discovery_cache.h for the tag contract: uids, not indices). The
  // quarantine gate (DESIGN.md §5.11) is one lock-free load of each
  // routed shard's health flag: routing treats a quarantined shard as
  // absent (fan-out answers from the remaining shards, a named request
  // gets Unavailable).
  std::vector<const Shard*> targets;
  uint64_t route_tag = 0;
  if (!request.lake.empty()) {
    GENT_ASSIGN_OR_RETURN(std::shared_ptr<const Shard> shard,
                          ShardRegistry::Find(registry, request.lake));
    if (shard->health->quarantined.load(std::memory_order_acquire)) {
      unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("shard '" + request.lake +
                                 "' is quarantined pending recovery");
    }
    targets.push_back(shard.get());
    route_tag = ShardRouteTag(shard->uid, shard->delta_gen);
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
    for (const auto& shard : registry.shards) {
      if (shard->health->quarantined.load(std::memory_order_acquire)) {
        quarantine_skipped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!shard->catalog->SharesAnyValue(query)) {
        shards_pruned_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      targets.push_back(shard.get());
      selected.push_back(ShardRouteTag(shard->uid, shard->delta_gen));
    }
    // The tag folds exactly the answering shards' (uid, delta_gen): an
    // append or a quarantine changes it, and fan-outs that reach the
    // same shard set share cache entries, which is correct because
    // their results are identical.
    route_tag = FoldRouteTags(selected);
  }

  const bool use_cache = !request.bypass_cache && options_.cache_capacity > 0;
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
    key = FingerprintSource(source, config.discovery, request.max_rows,
                            route_tag);
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
  // is deterministic. Downstream of discovery the pipeline reads only
  // the candidates and config (each Candidate::stats points into its
  // own shard's catalog, which the pinned snapshot keeps alive). An
  // empty target set (prefilter pruned everything) still runs it with
  // zero candidates, exactly what fanning out over only zero-overlap
  // shards would produce.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Candidate> merged;
  for (const Shard* shard : targets) {
    auto candidates = Discovery(*shard->catalog, config.discovery)
                          .FindCandidates(source, limits);
    if (!candidates.ok()) {
      const StatusCode code = candidates.status().code();
      if (code == StatusCode::kIOError || code == StatusCode::kInternal) {
        // A storage-class failure mid-serving: quarantine the shard so
        // later requests skip it while recovery runs.
        maintenance_.NoteShardFault(*shard, candidates.status().message());
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
  for (const Shard* shard : targets) {
    Status h = shard->catalog->storage_health();
    if (!h.ok()) maintenance_.NoteShardFault(*shard, h.message());
  }
  if (targets.size() > 1) {
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.score > b.score;
                     });
  }
  GENT_ASSIGN_OR_RETURN(auto expanded,
                        Expand(source, merged, limits, config.expand));
  GENT_ASSIGN_OR_RETURN(
      ReclamationResult result,
      ReclaimFromExpanded(source, std::move(expanded.tables), config, limits,
                          SecondsSince(t0)));
  if (populate_cache) cache_.Insert(key, result);
  return result;
}

Result<ReclamationResult> ReclaimService::Reclaim(
    const Table& source, const ReclaimRequest& request) const {
  std::optional<Table> translated;
  return ReclaimImpl(Admit(dict_, source, &translated), request,
                     *registry_.Pin(), /*pooled=*/false,
                     std::chrono::steady_clock::now(), nullptr);
}

std::vector<Result<ReclamationResult>> ReclaimService::ReclaimBatch(
    const std::vector<Table>& sources, const ReclaimRequest& request) const {
  std::vector<Result<ReclamationResult>> results(sources.size(),
                                                 Status::Internal("not run"));

  // One snapshot for the whole batch: a concurrent shard mutation
  // affects every source of the batch or none, and results stay
  // bit-identical to serial Reclaim calls against the same snapshot.
  RegistryPtr registry = registry_.Pin();

  // Foreign-dictionary sources are re-interned serially, in input
  // order, before any worker runs: new values get schedule-independent
  // ids.
  std::vector<std::optional<Table>> translated(sources.size());
  std::vector<const Table*> admitted(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    admitted[i] = &Admit(dict_, sources[i], &translated[i]);
  }

  // A 1-source batch runs unpooled: only one worker runs, so the
  // pipeline may use the machine.
  const bool pooled = sources.size() > 1;
  ParallelFor(pool_.get(), sources.size(), [&](size_t i) {
    // Each source's wall-clock budget starts when ITS reclamation
    // starts, not when the batch does.
    results[i] = ReclaimImpl(*admitted[i], request, *registry, pooled,
                             std::chrono::steady_clock::now(), nullptr);
  });
  return results;
}

Result<ReclaimTicket> ReclaimService::SubmitReclaim(
    Table source, const ReclaimRequest& request) const {
  // Admission work happens in the submitter's thread: pin the registry,
  // re-intern a foreign-dictionary source.
  const auto submitted = std::chrono::steady_clock::now();
  RegistryPtr registry = registry_.Pin();
  std::optional<Table> translated;
  Admit(dict_, source, &translated);
  return admission_.Submit({std::make_shared<const Table>(std::move(
                                translated).value_or(std::move(source))),
                            request, std::move(registry), submitted});
}

// --- Introspection ----------------------------------------------------------

std::vector<ReclaimService::ShardResidency> ReclaimService::residency_stats()
    const {
  RegistryPtr registry = registry_.Pin();
  std::vector<ShardResidency> out;
  out.reserve(registry->shards.size());
  for (const auto& s : registry->shards) {
    out.push_back({s->name, s->uid, s->catalog->residency()});
  }
  return out;
}

ReclaimService::RoutingStats ReclaimService::routing_stats() const {
  return {requests_routed_.load(std::memory_order_relaxed),
          shards_pruned_.load(std::memory_order_relaxed),
          quarantine_skipped_.load(std::memory_order_relaxed),
          unavailable_rejects_.load(std::memory_order_relaxed)};
}

// --- Shard health -----------------------------------------------------------

Status ReclaimService::CheckShardHealth(const std::string& name) const {
  // Appends and folds rewrite the backing file under this lock; holding
  // it keeps the file's run count and the shard's in step.
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  GENT_ASSIGN_OR_RETURN(auto shard, registry_.Find(name));
  // Cheap first: the catalog backend's sticky verdict. Then the deep
  // check — re-verify the backing snapshot's bytes end to end.
  Status st = shard->catalog->storage_health();
  if (st.ok() && !shard->source_path.empty()) {
    size_t runs = 0;
    st = VerifySnapshotIntegrity(shard->source_path, &runs);
    if (st.ok() && runs < shard->file.delta_runs) {
      // Fewer runs than committed. A damaged newest footer verifies at
      // the previous generation and loses that run's tables; a fold
      // whose rename landed but whose last sync failed left every
      // table in a file with no runs, and is healthy.
      auto tables = SnapshotTableCount(shard->source_path);
      if (!tables.ok()) {
        st = tables.status();
      } else if (*tables < shard->lake->size()) {
        st = Status::IOError(
            "'" + shard->source_path + "' verifies at " +
            std::to_string(runs) + " delta runs and " +
            std::to_string(*tables) + " tables but the shard committed " +
            std::to_string(shard->file.delta_runs) + " runs and serves " +
            std::to_string(shard->lake->size()) +
            " tables: the newest committed footer is damaged");
      }
    }
  }
  if (!st.ok()) maintenance_.NoteShardFault(*shard, st.message());
  return st;
}

}  // namespace gent
