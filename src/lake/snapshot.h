// Binary snapshots of a data lake.
//
// Loading a lake from a directory of CSVs re-parses and re-interns every
// cell; for the repository sizes the paper targets (up to 15K tables,
// §VI-A) that dominates startup. A snapshot serializes the dictionary
// once and every table as raw ValueId columns, so reloading is a single
// sequential read with no parsing or hashing.
//
// Body format (little-endian, versioned):
//   magic "GENTSNAP" | u32 version | u64 dictionary size
//   per dictionary entry: u32 length, bytes   (ids are implicit, in order)
//   u64 table count
//   per table: name, u32 column count, column names,
//              u32 key-column count, u32 key indices,
//              u64 row count, columns as u32 ValueId runs
//
// Version 1 is the body alone. Version 2 appends the BUILT column-stats
// catalog — sorted distinct sets, postings spine, CSR postings — as
// block-aligned, checksummed sections plus a fixed footer at EOF
// (src/storage/paged_file.h), making the snapshot both the data and the
// index: a service can open it O(open + fault-in) instead of rebuilding
// the catalog (src/storage/catalog_pager.h, DESIGN.md §5.10).
// SaveSnapshotV2 is the one writer. LoadSnapshot reads both versions —
// v1 files written by earlier builds stay supported input — fully
// validating v2's footer and every section checksum.
//
// Snapshots are self-contained: ids written are ids of the saved
// dictionary, and LoadSnapshot re-interns them into the target
// dictionary, so a snapshot can be loaded into a non-empty lake.
// Labeled nulls are never written (they are transient integration
// state, and not dictionary entries: ValueDictionary keeps them above
// every entry id); a table cell holding one fails the save.
//
// Dictionary adoption: SaveSnapshotV2 also writes the optional
// kDictTags section (src/storage/paged_file.h) — the hash tag of every
// base-dictionary entry, computed from the strings written. A full load
// reads the footer first and the base dictionary's strings into one
// DictionaryArena. When the section's checksum passes, its tag_version
// is this build's and the target dictionary holds only id 0 (a fresh
// lake), the arena is adopted whole (ValueDictionary::AdoptAll): the
// same ids and index InternAll would build, without hashing a string or
// allocating one per entry. Every other case — a non-empty target,
// delta-run dictionaries, the body salvage load, v1 files and v2 files
// written before the section existed — re-interns from the arena.
// Either way the dictionary is touched only after the whole file has
// verified: tables are staged in the file's ids, each column read in
// place and range-checked once, and remapped in one pass only when the
// commit changed some id.

#ifndef GENT_LAKE_SNAPSHOT_H_
#define GENT_LAKE_SNAPSHOT_H_

#include <string>

#include "src/lake/data_lake.h"
#include "src/storage/catalog_pager.h"
#include "src/util/status.h"

namespace gent {

/// What LoadSnapshot learned about the file, for callers that choose a
/// warm-start strategy (ReclaimService::AddLakeFromSnapshot).
struct SnapshotLoadInfo {
  /// Format version of the loaded file's body (1 or 2). A v2 body with
  /// appended delta runs still reports 2; see delta_runs.
  uint32_t version = 0;
  /// True when re-interning mapped every saved id to itself — i.e. the
  /// target dictionary is (a prefix-equal superset of) the saved one, as
  /// when loading into a fresh lake. Only then do the on-disk catalog
  /// sections of a v2 snapshot speak the lake's id space, so only then
  /// may they be mapped directly (catalog_pager.h) instead of rebuilt.
  /// Covers the delta runs too: run blobs extend the same id space in
  /// append order.
  bool identity_remap = false;
  /// True when the base dictionary was adopted from the file's
  /// kDictTags section (ValueDictionary::AdoptAll) rather than
  /// re-interned: a full v2 load into a dictionary holding only id 0,
  /// with tags of this build's kTagVersion.
  bool dictionary_adopted = false;
  /// Number of delta runs loaded after the base tables (0 for a plain
  /// snapshot; see AppendSnapshotDelta).
  size_t delta_runs = 0;
};

/// Writes `lake` plus its built catalog (`catalog` borrows the
/// catalog's arrays; see ColumnStatsCatalog::section_views) to `path`
/// in version-2 format, overwriting. The dictionary written is all of
/// lake.dict() at the call: entries that exist never change, so later
/// entries do not reach the file. Fails with
/// InvalidArgument if a table cell holds a labeled null (or any id
/// outside the dictionary), IOError on filesystem trouble — including a
/// failed final flush/fsync, so a snapshot truncated by a full disk
/// never reports success.
///
/// The commit is crash-atomic (DESIGN.md §5.11): bytes stream to
/// `<path>.tmp.<pid>`, which is fsynced and atomically renamed over
/// `path`, then the parent directory is fsynced. On ANY failure the
/// temp is unlinked and `path` is never touched — a reader of `path`
/// sees either the previous snapshot intact or the new one complete,
/// never a partial file. A crash mid-save can strand the temp;
/// SweepSnapshotTemps collects those at startup. The format is
/// additionally append-only, so even the temp can never hold a file
/// that validates without its final footer.
Status SaveSnapshotV2(const DataLake& lake,
                      const storage::CatalogSectionViews& catalog,
                      const std::string& path);

/// Incremental ingest (DESIGN.md §5.12): appends one delta run to the
/// v2 snapshot at `path` IN PLACE, crash-atomically, without rewriting
/// any existing byte. The run carries `lake`'s tables
/// [first_table, lake.size()), every dictionary entry the file does not
/// cover yet (the file's own base + run headers say how many it does —
/// the caller cannot know, a shared service dictionary grows under it),
/// and `catalog` — the PRE-BUILT run catalog arrays for exactly those
/// tables, with global dense column ids continuing the snapshot's
/// (ColumnStatsCatalog::BuildDeltaRun produces one).
///
/// Protocol: the run blob, a rewritten delta-run directory section, and
/// a new footer are appended after the last durable footer (block-
/// aligned), with an fsync barrier before the footer and another after
/// — the new footer IS the commit point. A crash at any step leaves the
/// previous footer (and everything it describes) untouched, so readers
/// see the old generation intact or the new one complete
/// (ReadFooterRecover skips torn debris). Concurrent mmap readers of
/// the old generation are unaffected: no byte below the old EOF is
/// written.
///
/// The run's tables are written in `lake`'s ids, so the file must
/// speak them: its ids must be lake.dict()'s (a file saved from that
/// dictionary, or loaded into it with SnapshotLoadInfo::identity_remap).
///
/// Fails with InvalidArgument when `path` is not a v2 snapshot, the run
/// would be empty, a run cell holds a labeled null, or the file's
/// dictionary coverage does not prefix `lake`'s; IOError on filesystem trouble. The snapshot's footer
/// version becomes storage::kFooterVersionDelta, which readers
/// predating deltas refuse (no silent loss of appended tables). Fills
/// `*runs_total` (if non-null) with the file's run count after the
/// append — the compaction-policy input.
Status AppendSnapshotDelta(const DataLake& lake, size_t first_table,
                           const storage::DeltaRunCatalogViews& catalog,
                           const std::string& path,
                           size_t* runs_total = nullptr);

/// Offline fold of a snapshot's delta runs back into its base sections
/// (a service folds its shards from RAM instead: ReclaimService::
/// CompactShardSnapshot): loads base + runs, rebuilds the catalog
/// arrays over the merged lake, and rewrites `path` as a plain v2
/// snapshot (temp + rename, same
/// crash-atomic commit as SaveSnapshotV2 — old-or-new, never torn).
/// The rebuilt catalog is bit-identical to one built over the merged
/// tables directly, so readers cannot distinguish a compacted snapshot
/// from a one-shot save. No-op (OK, *runs_folded = 0) when the file has
/// no runs. Declared here, implemented in the engine
/// (column_stats_catalog.cc) — folding needs the catalog builder.
Status CompactSnapshotV2(const std::string& path,
                         size_t* runs_folded = nullptr);

/// Appends every table of the snapshot at `path` into `lake`,
/// re-interning values into lake.dict(). Fails with IOError on a
/// missing/short/corrupt file (for v2 this includes a footer or section
/// checksum mismatch — the whole file is verified), InvalidArgument on
/// bad magic or a version from the future, AlreadyExists on a
/// table-name collision with the lake or within the snapshot.
/// All-or-nothing: on any failure, including a collision, the lake and
/// its dictionary are untouched. Delta runs appended by AppendSnapshotDelta load too, in
/// generation order, as if their tables had been in the base. Fills
/// `*info` (if non-null) on success.
Status LoadSnapshot(DataLake& lake, const std::string& path,
                    SnapshotLoadInfo* info = nullptr);

/// Salvage load: like LoadSnapshot but validates only the BODY
/// (dictionary + tables) and ignores the catalog tail entirely — a v2
/// snapshot whose catalog sections or footer are damaged still loads
/// if its body parses, at the cost of a catalog rebuild. This is the
/// self-healing fallback ReclaimService's shard recovery uses when a
/// full reopen keeps failing (DESIGN.md §5.11). Same all-or-nothing
/// and collision contract as LoadSnapshot.
Status LoadSnapshotBody(DataLake& lake, const std::string& path,
                        SnapshotLoadInfo* info = nullptr);

/// End-to-end integrity check of the snapshot at `path` without
/// touching any lake. v2 (footer present): verifies the footer and
/// every section checksum including the body descriptor — full byte
/// coverage — and that the dictionary tags, if any, count the body's
/// dictionary. v1: full structural parse into a scratch lake. Returns
/// the first corruption found; OK means LoadSnapshot would accept the
/// file byte-for-byte. Used by shard health checks and
/// tools/snapshot_inspect --verify. Fills `*delta_runs` (if non-null)
/// with the number of delta runs the verified generation holds (0 for
/// v1 or on failure): a damaged newest footer reads as a torn append
/// and verifies at the previous generation, so a caller that knows how
/// many runs it committed compares against this.
Status VerifySnapshotIntegrity(const std::string& path,
                               size_t* delta_runs = nullptr);

/// Number of tables the snapshot at `path` holds: the body's plus every
/// delta run's its footer lists (the body's alone for v1). Reads only
/// the headers and skips the dictionaries. Meant for a file that
/// VerifySnapshotIntegrity accepted; IOError on a malformed one. A
/// shard health check compares it with the served lake: a damaged
/// newest footer loses the newest run's tables, while a fold that
/// committed keeps every table in a file with no runs.
Result<size_t> SnapshotTableCount(const std::string& path);

/// Removes orphaned snapshot temp files (`*.tmp.<digits>`, the commit
/// staging names a crashed saver strands) from directory `dir`.
/// Returns the number removed. Called by
/// ReclaimService::AddLakeFromDirectory; standalone snapshot users
/// should call it once at startup on their snapshot directories.
size_t SweepSnapshotTemps(const std::string& dir);

}  // namespace gent

#endif  // GENT_LAKE_SNAPSHOT_H_
