// Read-only file mapping + block-granular residency tracker (DESIGN.md
// §5.10).
//
// MappedFile mmaps a snapshot read-only. BufferPool tracks which
// blocks of one block-aligned region of that mapping have been read
// in:
//
//   * Prefault(first, count) — read blocks in up front (the catalog
//                              prefaults its hot spine — postings
//                              spine, CSR offsets, column index — at
//                              open).
//   * Touch(ptr, bytes)      — the read-path hook: ensure the blocks
//                              under an arbitrary span are resident,
//                              counting a hit per already-resident block
//                              and a fault per block brought in.
//
// There is no eviction. The mapping is MAP_PRIVATE and never written,
// so its pages are clean file pages: under memory pressure the kernel
// drops them and re-reads them from the file on the next access, and
// every span the catalog hands out stays valid throughout. A block's
// "resident" flag therefore means "read in once", and resident_bytes()
// is what the catalog has touched, not a bound.
//
// Thread safety: all methods are safe from any number of threads. The
// fast path (Touch of resident blocks) is lock-free — one relaxed
// atomic load per block; faults serialize on one mutex. Counters are
// relaxed atomics: exact for quiescent reads, monotone always.

#ifndef GENT_STORAGE_BUFFER_POOL_H_
#define GENT_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/block.h"
#include "src/util/status.h"

namespace gent::storage {

/// A read-only, page-aligned mapping of a whole file. Move-only; unmaps
/// on destruction.
class MappedFile {
 public:
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;         // Touch/Prefault found the block resident
    uint64_t faults = 0;       // block read in on its first touch
    uint64_t read_faults = 0;  // prefault reads that hit an I/O fault
    size_t resident_blocks = 0;
    size_t total_blocks = 0;
    size_t block_size = kBlockSize;
  };

  /// Tracks `bytes` of mapping starting at `base`. `base` must sit at a
  /// block-aligned file offset of a page-aligned mapping (i.e. be
  /// page-aligned itself); the last block may be partial.
  BufferPool(const uint8_t* base, size_t bytes);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t num_blocks() const { return states_.size(); }

  /// Reads in `count` blocks starting at `first`, counted like Touch.
  void Prefault(size_t first, size_t count);

  /// Read-path hook: ensures every block underlying [ptr, ptr+bytes) is
  /// resident. `ptr` must lie inside the managed region. Cheap for
  /// resident blocks (one relaxed load each); faulting blocks take the
  /// mutex.
  void Touch(const void* ptr, size_t bytes);

  Stats stats() const;
  uint64_t resident_bytes() const;

  /// Sticky storage-health verdict: OK until a prefault read reports an
  /// I/O fault (io::ProbeMappedRead — the reportable stand-in for the
  /// SIGBUS/EIO a damaged backing file raises on mapped access), then
  /// IOError carrying the first failing block forever after. The
  /// shard-health layer polls this after serving to quarantine the
  /// shard (DESIGN.md §5.11); spans already handed out remain readable
  /// wherever the underlying pages are intact.
  Status health() const;

 private:
  size_t BlockOf(const void* ptr) const {
    return (static_cast<const uint8_t*>(ptr) - base_) / kBlockSize;
  }

  const uint8_t* base_;
  size_t bytes_;

  std::vector<std::atomic<bool>> states_;  // per block: read in yet?
  mutable std::mutex mutex_;
  size_t resident_ = 0;  // guarded by mutex_
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> read_faults_{0};
  std::string last_error_;  // guarded by mutex_ (first read fault wins)
};

}  // namespace gent::storage

#endif  // GENT_STORAGE_BUFFER_POOL_H_
