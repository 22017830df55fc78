// Resource limits for integration operators and pipeline checkpoints.
//
// Full disjunction and complementation are super-linear; the paper's
// baselines (notably ALITE) time out on large benchmarks. OpLimits lets
// callers bound both wall-clock time and intermediate cardinality so a
// bench can report a timeout instead of hanging.
//
// Beyond the original row/timeout budgets, OpLimits carries the
// service-level interruption machinery (DESIGN.md §5.9): an absolute
// deadline (so a request's budget covers its queue wait, not just its
// execution) and a borrowed cancellation token. Pipeline stages poll
// Interrupted() at their checkpoints; once the token fires or the
// deadline passes, every later poll fails too — an aborted stage can
// never be mistaken for a complete one, because the terminal driver
// checkpoint re-asks the same question.

#ifndef GENT_OPS_OP_LIMITS_H_
#define GENT_OPS_OP_LIMITS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "src/util/status.h"

namespace gent {

/// The steady-clock instant `seconds` after `from`, saturating instead of
/// overflowing: +inf, NaN, or an offset of 2^62 ticks or more (~146
/// years) or past the clock's range gives time_point::max(), an instant
/// never reached — no deadline. A non-positive offset is an instant
/// already due (clamped at time_point::min()).
inline std::chrono::steady_clock::time_point SteadyTimeAfter(
    std::chrono::steady_clock::time_point from, double seconds) {
  using Clock = std::chrono::steady_clock;
  using Rep = Clock::rep;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double>(seconds))
                           .count();
  if (!(ticks < 0x1p62)) return Clock::time_point::max();  // NaN too
  if (!(ticks > -0x1p62)) return Clock::time_point::min();
  const Rep d = static_cast<Rep>(ticks);
  const Rep base = from.time_since_epoch().count();
  if (d > 0 && base > std::numeric_limits<Rep>::max() - d) {
    return Clock::time_point::max();
  }
  if (d < 0 && base < std::numeric_limits<Rep>::min() - d) {
    return Clock::time_point::min();
  }
  return from + Clock::duration(d);
}

class OpLimits {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited.
  OpLimits() = default;

  /// Bounded by wall-clock seconds from now (SteadyTimeAfter: a budget
  /// past the clock's range, +inf or NaN is no deadline).
  static OpLimits WithTimeout(double seconds) {
    OpLimits l;
    l.Deadline(SteadyTimeAfter(Clock::now(), seconds));
    return l;
  }

  /// Bounded by an absolute steady-clock deadline (a service request's
  /// end-to-end budget, fixed at admission).
  static OpLimits WithDeadline(Clock::time_point deadline) {
    OpLimits l;
    l.Deadline(deadline);
    return l;
  }

  OpLimits& MaxRows(uint64_t rows) {
    max_rows_ = rows;
    return *this;
  }

  /// Adds an absolute deadline; with one already set, the earlier wins
  /// (a request's timeout and its admission deadline compose).
  /// time_point::max() adds none.
  OpLimits& Deadline(Clock::time_point deadline) {
    if (deadline == Clock::time_point::max()) return *this;  // never due
    deadline_ = has_deadline_ ? std::min(deadline_, deadline) : deadline;
    has_deadline_ = true;
    return *this;
  }

  /// Borrows a cancellation token (not owned; must outlive every stage
  /// running under these limits). Once the token stores true, every
  /// Check/Interrupted call fails with Cancelled — the flag is
  /// one-way, so stages that already raced past a checkpoint are caught
  /// by the next one.
  OpLimits& CancelToken(const std::atomic<bool>* token) {
    cancel_ = token;
    return *this;
  }

  uint64_t max_rows() const { return max_rows_; }
  bool has_deadline() const { return has_deadline_; }

  /// The pure interruption test (no row budget): Cancelled once the
  /// token fired, Timeout once the deadline passed, OK otherwise.
  /// Pipeline checkpoints call this; both conditions are permanent.
  Status Interrupted() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_acquire)) {
      return Status::Cancelled("operation cancelled at checkpoint");
    }
    if (has_deadline_ && Clock::now() > deadline_) {
      return Status::Timeout("operator exceeded time budget");
    }
    return Status::OK();
  }

  /// OK while within budget; OutOfRange/Cancelled/Timeout once
  /// exceeded. `rows` is the current intermediate cardinality.
  Status Check(uint64_t rows) const {
    if (rows > max_rows_) {
      return Status::OutOfRange("intermediate result exceeds row budget");
    }
    return Interrupted();
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t max_rows_ = std::numeric_limits<uint64_t>::max();
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace gent

#endif  // GENT_OPS_OP_LIMITS_H_
