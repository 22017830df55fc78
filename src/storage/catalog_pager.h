// Catalog section layout of snapshot v2 + the mapped catalog backend
// (DESIGN.md §5.10).
//
// A v2 snapshot carries the BUILT ColumnStatsCatalog — sorted distinct
// sets, per-column cardinalities, and the CSR postings index — as
// block-aligned sections after the table payload, so the file is both
// the data and the index. This header is the storage-level half of that
// contract:
//
//   * CatalogSectionViews — borrowed, backend-neutral views of the four
//     catalog arrays (per-column runs, spine, CSR offsets, CSR
//     payload). The engine produces one from a RAM-built catalog to
//     save it, and consumes one from a mapping to open without
//     rebuilding. ValueIds appear as their representation type
//     (uint32_t); this layer never depends on the engine.
//   * AppendCatalogSections — appends the sections + footer to a
//     snapshot body, strictly append-only, checksummed per section.
//   * ValidateCatalogTail — streaming full validation (footer, body
//     checksum, every section checksum, structural invariants) used by
//     LoadSnapshot so a loaded v2 snapshot is known-good end to end.
//   * MappedCatalog — the open-without-rebuild path: mmaps the file,
//     bounds-checks the directory, pins the hot spine (spine + CSR
//     offsets + column index) in a BufferPool, and exposes the section
//     views; per-column runs and CSR payload fault in on first touch.

#ifndef GENT_STORAGE_CATALOG_PAGER_H_
#define GENT_STORAGE_CATALOG_PAGER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/storage/delta_run.h"
#include "src/storage/paged_file.h"
#include "src/storage/span.h"
#include "src/util/status.h"

namespace gent::storage {

/// Footer version of a v2 snapshot that carries delta runs (body header
/// stays 2; readers that predate deltas refuse the footer instead of
/// silently dropping appended tables).
inline constexpr uint32_t kFooterVersionDelta = 3;

/// Borrowed views of a built catalog's arrays (see header comment).
struct CatalogSectionViews {
  /// Sorted distinct run of each dense column id.
  std::vector<Span<uint32_t>> columns;
  /// Sorted distinct values of the whole lake (postings spine).
  Span<uint32_t> spine;
  /// CSR offsets: spine.size() + 1 entries.
  Span<uint32_t> post_offsets;
  /// CSR payload: dense column ids, ascending per posting list.
  Span<uint32_t> post_cols;
};

/// Hash tags of a body's dictionary entries 1..n-1, for the optional
/// kDictTags section (paged_file.h).
struct DictTagsView {
  uint32_t tag_version = 0;
  Span<uint32_t> tags;
};

/// Appends the catalog sections and the v2 footer to `file`, which must
/// be positioned right after a fully written body of `body_bytes` bytes
/// whose streaming checksum is `body_checksum`. `dict_tags`, when
/// given, becomes a kDictTags section after the catalog sections. Does
/// not flush/close.
Status AppendCatalogSections(std::FILE* file, uint64_t body_bytes,
                             uint64_t body_checksum,
                             const CatalogSectionViews& views,
                             uint32_t version,
                             const DictTagsView* dict_tags = nullptr);

/// Full streaming validation of a v2 snapshot's catalog tail: footer
/// geometry, body length + checksum against what the caller just read,
/// every catalog section's checksum, and the directory's structural
/// invariants (column offsets form an exact concatenation, CSR offsets
/// bracket the CSR payload). `file` may be positioned anywhere;
/// `expected_version` is the version the caller read from the body
/// header — the footer must agree, except that a version-2 body may
/// carry a kFooterVersionDelta footer (appended runs). When the footer
/// declares delta runs, each run blob's checksum is verified too.
/// Tolerates crash debris past the last durable footer
/// (ReadFooterRecover). Fills `out_footer`/`out_runs` (if non-null) so
/// the loader can stage the runs' tables without re-reading the
/// directory.
Status ValidateCatalogTail(std::FILE* file, uint32_t expected_version,
                           uint64_t body_bytes, uint64_t body_checksum,
                           PagedFooter* out_footer = nullptr,
                           std::vector<DeltaRunDesc>* out_runs = nullptr);

/// Reads and geometry-checks the delta-run directory of `footer` from
/// `file` (empty result when the footer predates deltas or has none).
/// Does NOT verify run checksums.
Result<std::vector<DeltaRunDesc>> ReadDeltaDir(std::FILE* file,
                                               const PagedFooter& footer);

/// Streams run blob `run` through Checksum64 and compares. IOError on
/// read failure or mismatch.
Status VerifyDeltaRunChecksum(std::FILE* file, const DeltaRunDesc& run);

/// The mapped, pool-managed catalog backend of a v2 snapshot.
class MappedCatalog {
 public:
  struct Options {
    /// Re-verify every section checksum from the mapping at open.
    /// Redundant (and off) when the file was just validated by
    /// LoadSnapshot; on for standalone opens (tools, tests).
    bool verify_checksums = true;
    /// BufferPool capacity for the UNPINNED resident set, in blocks of
    /// kBlockSize (0 = unbounded fault-in). The pinned hot spine is
    /// exempt. Ignored when `budget` is set.
    size_t pool_capacity_blocks = 0;
    /// Shared capacity budget across catalogs (a service's shards share
    /// one allowance instead of per-shard caps; DESIGN.md §5.12).
    std::shared_ptr<PoolBudget> budget;
  };

  /// One delta run's catalog views plus its generation, for the
  /// engine's run-merge layer.
  struct RunViews {
    uint64_t generation = 0;
    DeltaRunCatalogViews catalog;
  };

  /// Opens `path`, validates the directory against the mapping bounds,
  /// and pins the hot spine. InvalidArgument when the file has no v2
  /// catalog (e.g. a v1 snapshot); IOError on corruption.
  static Result<std::unique_ptr<MappedCatalog>> Open(const std::string& path,
                                                     const Options& options);

  /// Views into the mapping; valid for this object's lifetime,
  /// including across pool evictions.
  const CatalogSectionViews& views() const { return views_; }

  /// Delta runs appended after the base sections, in generation order
  /// (empty for a snapshot without appends). Same lifetime as views().
  const std::vector<RunViews>& delta_runs() const { return delta_runs_; }

  /// Read-path fault-in hook (forwards to the pool; see BufferPool).
  void Touch(const void* ptr, size_t bytes) const {
    pool_->Touch(ptr, bytes);
  }

  BufferPool& pool() const { return *pool_; }
  /// Catalog region bytes under pool management.
  uint64_t region_bytes() const { return region_bytes_; }

  /// Sticky storage health of the backing file (BufferPool::health):
  /// OK until a prefault hits an I/O fault, IOError forever after.
  Status health() const { return pool_->health(); }

 private:
  MappedCatalog() = default;

  MappedFile file_;
  std::unique_ptr<BufferPool> pool_;
  CatalogSectionViews views_;
  std::vector<RunViews> delta_runs_;
  uint64_t region_bytes_ = 0;
};

}  // namespace gent::storage

#endif  // GENT_STORAGE_CATALOG_PAGER_H_
