#include "src/storage/buffer_pool.h"

#include <algorithm>

#include "src/storage/io.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define GENT_STORAGE_HAVE_MMAP 1
#endif

namespace gent::storage {

// --- MappedFile -------------------------------------------------------------

Result<MappedFile> MappedFile::Open(const std::string& path) {
#ifndef GENT_STORAGE_HAVE_MMAP
  return Status::Internal("mmap is not available on this platform");
#else
  const int fd = io::InjectedFailure(io::Op::kOpen)
                     ? -1
                     : ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "' for mapping");
  }
  struct stat st;
  if (io::InjectedFailure(io::Op::kStat) || ::fstat(fd, &st) != 0 ||
      st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::IOError("'" + path + "' is empty");
  }
  // MAP_PRIVATE read-only: pages are clean file pages, so the kernel
  // can drop them under memory pressure and re-read the file on the
  // next access — the reason BufferPool needs no eviction of its own.
  // The fd can be closed once mapped; the mapping keeps the file alive.
  void* p = io::InjectedFailure(io::Op::kMmap)
                ? MAP_FAILED
                : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) {
    return Status::IOError("mmap failed for '" + path + "'");
  }
  MappedFile m;
  m.data_ = static_cast<const uint8_t*>(p);
  m.size_ = size;
  return m;
#endif
}

MappedFile::MappedFile(MappedFile&& o) noexcept
    : data_(o.data_), size_(o.size_) {
  o.data_ = nullptr;
  o.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& o) noexcept {
  if (this != &o) {
    this->~MappedFile();
    data_ = o.data_;
    size_ = o.size_;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
#ifdef GENT_STORAGE_HAVE_MMAP
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
}

// --- BufferPool -------------------------------------------------------------

BufferPool::BufferPool(const uint8_t* base, size_t bytes)
    : base_(base),
      bytes_(bytes),
      states_((bytes + kBlockSize - 1) / kBlockSize) {
  for (auto& s : states_) s.store(false, std::memory_order_relaxed);
}

void BufferPool::Prefault(size_t first, size_t count) {
  if (first >= states_.size()) return;
  const size_t end = std::min(first + count, states_.size());
  // Fast path: every block already resident — no lock.
  bool all_resident = true;
  for (size_t b = first; b < end; ++b) {
    if (!states_[b].load(std::memory_order_relaxed)) {
      all_resident = false;
      break;
    }
  }
  if (all_resident) {
    hits_.fetch_add(end - first, std::memory_order_relaxed);
    return;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t b = first; b < end; ++b) {
    if (states_[b].load(std::memory_order_relaxed)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Prefault the block so residency accounting matches reality: one
    // volatile read per page brings it in from the file. The probe
    // stands in for the SIGBUS/EIO a damaged backing file would raise
    // on the access — a signal userspace cannot locally survive — so an
    // injected fault is recorded sticky instead of dereferenced (the
    // shard-health layer reads it via health()).
    const uint8_t* p = base_ + b * kBlockSize;
    const uint8_t* block_end = base_ + std::min(bytes_, (b + 1) * kBlockSize);
    if (!io::ProbeMappedRead(p, static_cast<size_t>(block_end - p))) {
      read_faults_.fetch_add(1, std::memory_order_relaxed);
      last_error_ = "mapped read fault in block " + std::to_string(b);
    } else {
      for (const uint8_t* q = p; q < block_end; q += 4096) {
        (void)*const_cast<const volatile uint8_t*>(q);
      }
    }
    ++resident_;
    faults_.fetch_add(1, std::memory_order_relaxed);
    states_[b].store(true, std::memory_order_relaxed);
  }
}

void BufferPool::Touch(const void* ptr, size_t bytes) {
  if (bytes == 0 || ptr < base_ || ptr >= base_ + bytes_) return;
  const size_t first = BlockOf(ptr);
  const size_t last =
      BlockOf(static_cast<const uint8_t*>(ptr) + bytes - 1);
  Prefault(first, last - first + 1);
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.read_faults = read_faults_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.resident_blocks = resident_;
  }
  s.total_blocks = states_.size();
  return s;
}

uint64_t BufferPool::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<uint64_t>(resident_) * kBlockSize;
}

Status BufferPool::health() const {
  if (read_faults_.load(std::memory_order_acquire) == 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  return Status::IOError(last_error_.empty() ? "mapped read fault"
                                             : last_error_);
}

}  // namespace gent::storage
