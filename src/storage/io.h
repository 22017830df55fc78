// Storage syscall shim + deterministic fault injection (DESIGN.md
// §5.11).
//
// Every storage syscall the snapshot/catalog stack issues — stdio
// open/read/write/flush/close, fsync of files and parent directories,
// rename/remove, the mmap path's open/stat/mmap, and the buffer pool's
// prefault reads — goes through the thin wrappers in gent::io instead
// of calling libc directly. With no injector installed (the production
// configuration, and the default) each wrapper is the underlying call
// plus one relaxed atomic load, so routing costs nothing measurable.
//
// Tests install a FaultInjector (via ScopedFaultInjector) to make
// storage failure DETERMINISTIC instead of environmental: fail the Nth
// matching call with EIO/ENOSPC, short-write it, or simulate a crash
// at an exact point in the write stream. That replaces the ad-hoc
// /dev/full and truncate-the-file pokes the test suite used to rely
// on, and enables the exhaustive crash-point matrix over the v2
// snapshot writer (tests/storage_fault_test.cc).
//
// Crash semantics (FaultKind::kCrash): from the triggering call on,
// the "process is dead" as far as the file system is concerned — every
// subsequent mutating op (write/flush/sync/rename/remove/open) becomes
// a failing no-op, while bytes written BEFORE the crash point stay in
// the file. To make "bytes written" well-defined at fwrite
// granularity, io::Fopen disables stdio buffering whenever an injector
// is installed; cleanup unlinks don't run (Remove no-ops), so the
// orphan temp file a real crash would strand is stranded here too,
// exercising the startup sweep.
//
// Thread safety: installing/uninstalling the injector is not
// thread-safe against concurrent storage ops (tests arm it around the
// operation under test); the injector's own counters and trigger are
// atomics, so concurrently running storage ops observe it safely.

#ifndef GENT_STORAGE_IO_H_
#define GENT_STORAGE_IO_H_

#include <atomic>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/util/status.h"

namespace gent::io {

/// Kinds of storage operation the shim distinguishes — the granularity
/// at which faults can be targeted and calls are counted.
enum class Op : uint32_t {
  kOpen = 0,   // Fopen (any mode)
  kRead,       // Fread
  kWrite,      // Fwrite
  kFlush,      // Fflush (incl. the flush half of SyncFile)
  kSync,       // fsync of a file or a parent directory
  kClose,      // Fclose
  kRename,     // Rename
  kRemove,     // Remove
  kStat,       // FileSize / the mmap path's fstat
  kMapRead,    // ProbeMappedRead (buffer-pool prefault of a block)
  kMmap,       // MappedFile's mmap(2)
};
inline constexpr size_t kNumOps = 11;

/// Bit for Op `op` in FaultPlan::op_mask.
constexpr uint32_t OpBit(Op op) { return 1u << static_cast<uint32_t>(op); }

enum class FaultKind : uint32_t {
  kErrno,      // fail the triggering call, errno = FaultPlan::error_code
  kShortWrite, // write half the requested bytes, report the short count
  kCrash,      // triggering call and everything after it: dead (sticky)
};

/// One armed fault: the Nth call (1-based) whose Op is in `op_mask`
/// misbehaves per `kind`. kErrno/kShortWrite are one-shot; kCrash is
/// sticky (see header comment).
struct FaultPlan {
  uint32_t op_mask = 0;
  uint64_t trigger_at = 1;
  FaultKind kind = FaultKind::kErrno;
  int error_code = 0;  // EIO unless set; used by kErrno
};

/// Test-only fault controller. Counts every shimmed call per Op
/// (armed or not), so a counting run can size a crash-point matrix.
class FaultInjector {
 public:
  /// Arms `plan`, resetting the trigger/crash state (not the counters).
  void Arm(const FaultPlan& plan);
  /// Disarms without uninstalling; counting continues.
  void Disarm();
  void ResetCounts();

  /// Calls of kind `op` observed since construction/ResetCounts.
  uint64_t CountOf(Op op) const {
    return counts_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }
  /// True once a kCrash plan has triggered.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// What the shim should do for one call of kind `op`.
  enum class Outcome { kPass, kErrno, kShortWrite, kCrashed };
  Outcome OnCall(Op op);

  int error_code() const { return error_code_; }

 private:
  std::array<std::atomic<uint64_t>, kNumOps> counts_{};
  std::atomic<uint64_t> matched_{0};
  std::atomic<bool> armed_{false};
  std::atomic<bool> crashed_{false};
  FaultPlan plan_{};
  int error_code_ = 0;
};

/// Installs `injector` as the process-global injector for its scope.
/// Only one may be installed at a time.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector);
  ~ScopedFaultInjector();
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
};

/// The installed injector, or nullptr (production).
FaultInjector* ActiveInjector();

// --- The shim ---------------------------------------------------------------
//
// Signatures mirror the libc calls they wrap; each consults the
// injector (if installed) before delegating.

std::FILE* Fopen(const std::string& path, const char* mode);
size_t Fread(void* dst, size_t n, std::FILE* f);
size_t Fwrite(const void* src, size_t n, std::FILE* f);
int Fflush(std::FILE* f);
/// Always releases the handle (even under an injected failure — a
/// leaked FILE* would poison later tests); returns 0 or EOF.
int Fclose(std::FILE* f);
int Rename(const std::string& from, const std::string& to);
int Remove(const std::string& path);

/// fflush + fsync(fileno(f)): the file's bytes are durable on success.
/// On platforms without fsync the flush alone decides the result.
Status SyncFile(std::FILE* f, const std::string& path);
/// fsyncs the directory containing `path`, making a just-renamed entry
/// durable. No-op success where directory fsync is unsupported.
Status SyncParentDir(const std::string& path);

/// Size of the file at `path` (stat).
Result<uint64_t> FileSize(const std::string& path);

/// Buffer-pool prefault hook: called once per block fault just before
/// the pool touches the mapped pages. Returns false when an injected
/// fault says the underlying read would have failed (the real
/// equivalent is a SIGBUS/EIO on a mapped access, which a userspace
/// process cannot locally survive — the injector substitutes a
/// reportable signal for it; see BufferPool's sticky fault flag).
bool ProbeMappedRead(const void* addr, size_t len);

/// Generic injection point for call sites that issue a raw syscall
/// themselves (MappedFile's open/fstat/mmap): counts one call of kind
/// `op` and returns true — with errno set — when an injected fault
/// says it should fail.
bool InjectedFailure(Op op);

}  // namespace gent::io

#endif  // GENT_STORAGE_IO_H_
