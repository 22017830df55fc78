#include "src/storage/io.h"

#include <cassert>
#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define GENT_IO_HAVE_UNISTD 1
#else
#include <mutex>
#endif

namespace gent::io {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

// The injector's verdict for one call, kPass when none is installed.
FaultInjector::Outcome Consult(Op op) {
  FaultInjector* fi = g_injector.load(std::memory_order_acquire);
  if (fi == nullptr) return FaultInjector::Outcome::kPass;
  return fi->OnCall(op);
}

void SetInjectedErrno() {
  FaultInjector* fi = g_injector.load(std::memory_order_acquire);
  const int code = fi != nullptr ? fi->error_code() : 0;
  errno = code != 0 ? code : EIO;
}

}  // namespace

// --- FaultInjector ----------------------------------------------------------

void FaultInjector::Arm(const FaultPlan& plan) {
  plan_ = plan;
  error_code_ = plan.error_code != 0 ? plan.error_code : EIO;
  matched_.store(0, std::memory_order_relaxed);
  crashed_.store(false, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() { armed_.store(false, std::memory_order_release); }

void FaultInjector::ResetCounts() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

FaultInjector::Outcome FaultInjector::OnCall(Op op) {
  counts_[static_cast<size_t>(op)].fetch_add(1, std::memory_order_relaxed);
  if (!armed_.load(std::memory_order_acquire)) return Outcome::kPass;
  if (crashed_.load(std::memory_order_acquire)) {
    // Post-crash: every mutating op is dead; reads and metadata
    // lookups still pass so a test can immediately inspect the
    // aftermath without disarming first.
    switch (op) {
      case Op::kWrite:
      case Op::kFlush:
      case Op::kSync:
      case Op::kRename:
      case Op::kRemove:
      case Op::kOpen:
        return Outcome::kCrashed;
      default:
        return Outcome::kPass;
    }
  }
  if ((plan_.op_mask & OpBit(op)) == 0) return Outcome::kPass;
  const uint64_t n = matched_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n != plan_.trigger_at) return Outcome::kPass;
  switch (plan_.kind) {
    case FaultKind::kErrno:
      return Outcome::kErrno;
    case FaultKind::kShortWrite:
      return Outcome::kShortWrite;
    case FaultKind::kCrash:
      crashed_.store(true, std::memory_order_release);
      return Outcome::kCrashed;
  }
  return Outcome::kPass;
}

ScopedFaultInjector::ScopedFaultInjector(FaultInjector* injector) {
  FaultInjector* expected = nullptr;
  const bool installed = g_injector.compare_exchange_strong(
      expected, injector, std::memory_order_acq_rel);
  assert(installed && "another FaultInjector is already installed");
  (void)installed;
}

ScopedFaultInjector::~ScopedFaultInjector() {
  g_injector.store(nullptr, std::memory_order_release);
}

FaultInjector* ActiveInjector() {
  return g_injector.load(std::memory_order_acquire);
}

// --- Shim -------------------------------------------------------------------

std::FILE* Fopen(const std::string& path, const char* mode) {
  switch (Consult(Op::kOpen)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return nullptr;
  }
  std::FILE* f = std::fopen(path.c_str(), mode);
  // With an injector installed, stdio buffering would decouple fwrite
  // calls from bytes-on-disk and make crash points meaningless; run
  // unbuffered so the Nth Fwrite is exactly the file's byte frontier.
  if (f != nullptr && ActiveInjector() != nullptr) {
    std::setvbuf(f, nullptr, _IONBF, 0);
  }
  return f;
}

size_t Fread(void* dst, size_t n, std::FILE* f) {
  switch (Consult(Op::kRead)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return 0;
  }
  return std::fread(dst, 1, n, f);
}

size_t Pread(std::FILE* f, void* dst, size_t n, uint64_t offset) {
  switch (Consult(Op::kRead)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return 0;
  }
#ifdef GENT_IO_HAVE_UNISTD
  const int fd = ::fileno(f);
  uint8_t* out = static_cast<uint8_t*>(dst);
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd, out + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    done += static_cast<size_t>(got);
  }
  return done;
#else
  // One seek-and-read at a time, so threads sharing `f` each read
  // where they asked.
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) return 0;
  return std::fread(dst, 1, n, f);
#endif
}

size_t Fwrite(const void* src, size_t n, std::FILE* f) {
  switch (Consult(Op::kWrite)) {
    case FaultInjector::Outcome::kPass:
      break;
    case FaultInjector::Outcome::kShortWrite: {
      const size_t half = n / 2;
      const size_t wrote = half > 0 ? std::fwrite(src, 1, half, f) : 0;
      SetInjectedErrno();
      return wrote;
    }
    default:
      SetInjectedErrno();
      return 0;
  }
  // An empty write may come with a null `src` (an empty vector's data()),
  // which fwrite must not receive.
  return n == 0 ? 0 : std::fwrite(src, 1, n, f);
}

int Fflush(std::FILE* f) {
  switch (Consult(Op::kFlush)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return EOF;
  }
  return std::fflush(f);
}

int Fclose(std::FILE* f) {
  const FaultInjector::Outcome o = Consult(Op::kClose);
  // Always really close: even a "failed" or post-crash close must
  // release the handle (the injected stream is unbuffered, so the real
  // fclose writes nothing). Fold injected and real failure together.
  const int rc = std::fclose(f);
  if (o != FaultInjector::Outcome::kPass) {
    SetInjectedErrno();
    return EOF;
  }
  return rc;
}

int Rename(const std::string& from, const std::string& to) {
  switch (Consult(Op::kRename)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return -1;
  }
  return std::rename(from.c_str(), to.c_str());
}

int Remove(const std::string& path) {
  switch (Consult(Op::kRemove)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return -1;
  }
  return std::remove(path.c_str());
}

Status SyncFile(std::FILE* f, const std::string& path) {
  if (Fflush(f) != 0) {
    return Status::IOError("flush failed for '" + path + "': " +
                           std::strerror(errno));
  }
  switch (Consult(Op::kSync)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return Status::IOError("fsync failed for '" + path + "': " +
                             std::strerror(errno));
  }
#ifdef GENT_IO_HAVE_UNISTD
  if (::fsync(::fileno(f)) != 0) {
    return Status::IOError("fsync failed for '" + path + "': " +
                           std::strerror(errno));
  }
#endif
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  switch (Consult(Op::kSync)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return Status::IOError("fsync failed for parent dir of '" + path +
                             "': " + std::strerror(errno));
  }
#ifdef GENT_IO_HAVE_UNISTD
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open directory '" + dir +
                           "' for fsync: " + std::strerror(errno));
  }
  // Some filesystems refuse fsync on a directory fd (EINVAL); the
  // rename is still atomic, only durability of the entry is weaker —
  // treat it as best-effort, fail only on real I/O errors.
  if (::fsync(fd) != 0 && errno == EIO) {
    ::close(fd);
    return Status::IOError("fsync failed for directory '" + dir + "'");
  }
  ::close(fd);
#endif
  return Status::OK();
}

Result<uint64_t> FileSize(const std::string& path) {
  switch (Consult(Op::kStat)) {
    case FaultInjector::Outcome::kPass:
      break;
    default:
      SetInjectedErrno();
      return Status::IOError("cannot stat '" + path + "'");
  }
#ifdef GENT_IO_HAVE_UNISTD
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 0) {
    return Status::IOError("cannot stat '" + path + "'");
  }
  return static_cast<uint64_t>(st.st_size);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot stat '" + path + "'");
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fclose(f);
  if (end < 0) return Status::IOError("cannot stat '" + path + "'");
  return static_cast<uint64_t>(end);
#endif
}

bool ProbeMappedRead(const void* addr, size_t len) {
  (void)addr;
  (void)len;
  switch (Consult(Op::kMapRead)) {
    case FaultInjector::Outcome::kPass:
      return true;
    default:
      return false;
  }
}

bool InjectedFailure(Op op) {
  switch (Consult(op)) {
    case FaultInjector::Outcome::kPass:
      return false;
    default:
      SetInjectedErrno();
      return true;
  }
}

}  // namespace gent::io
