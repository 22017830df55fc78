#include "src/engine/admission_queue.h"

#include <optional>
#include <utility>

#include "src/ops/op_limits.h"

namespace gent {

// --- ReclaimTicket ----------------------------------------------------------

struct ReclaimTicket::SharedState {
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::optional<Result<ReclamationResult>> result;
  // Stamped by Publish immediately before waking waiters.
  std::chrono::steady_clock::time_point completed_at{};
  // Cancel() ran before the result was published. One-way. It is the
  // OpLimits cancel token the pipeline polls lock-free at its
  // checkpoints; Cancel() stores it under `mutex` and the publisher
  // (AdmissionQueue::Publish) reads it under `mutex`, forcing the
  // published status to Cancelled.
  std::atomic<bool> cancel_flag{false};
};

const Result<ReclamationResult>& ReclaimTicket::Wait() const {
  SharedState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  s.ready_cv.wait(lock, [&s]() { return s.result.has_value(); });
  return *s.result;
}

bool ReclaimTicket::WaitUntil(
    std::chrono::steady_clock::time_point deadline) const {
  SharedState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  return s.ready_cv.wait_until(lock, deadline,
                               [&s]() { return s.result.has_value(); });
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
  // Fire the pipeline token (idempotent: repeat Cancels also report
  // success). Publication is serialized on s.mutex, so either the
  // publisher already ran (result above) or it will observe the flag
  // and publish Cancelled — Cancel()==true is a guarantee.
  s.cancel_flag.store(true, std::memory_order_release);
  return true;
}

// --- AdmissionQueue ---------------------------------------------------------

size_t AdmissionQueue::QueuedLocked() const {
  size_t queued = 0;
  for (const auto& queue : queues_) queued += queue.size();
  return queued;
}

Result<ReclaimTicket> AdmissionQueue::Submit(Entry entry) {
  ReclaimTicket ticket;
  ticket.state_ = entry.state = std::make_shared<ReclaimTicket::SharedState>();
  const size_t pri = static_cast<size_t>(entry.request.priority);
  std::shared_ptr<ReclaimTicket::SharedState> shed_victim;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto full = [&]() {
      return capacity_ > 0 && QueuedLocked() >= capacity_;
    };
    if (full() && policy_ == AdmissionPolicy::kBlock) {
      space_.wait(lock, [&]() { return !full(); });
    } else if (full()) {
      // kShedOldest. The victim is the oldest entry of the lowest class
      // at or below the newcomer's; when everything queued outranks the
      // newcomer, the newcomer itself is rejected.
      size_t p = kNumPriorityClasses;
      while (p > pri && queues_[p - 1].empty()) --p;
      if (p == pri) {
        ++counts_.rejected;
        return Status::ResourceExhausted(
            "admission queue full of higher-priority work");
      }
      shed_victim = std::move(queues_[p - 1].front().state);
      queues_[p - 1].pop_front();
      ++counts_.shed;
    }
    queues_[pri].push_back(std::move(entry));
  }
  if (shed_victim != nullptr) {
    // The victim's already-submitted pump task now drains the newcomer
    // instead: queued entries and outstanding pumps both stay balanced
    // without a new Submit.
    Publish(*shed_victim,
            Status::ResourceExhausted(
                "shed from the admission queue by newer work (kShedOldest)"),
            nullptr, nullptr);
  } else {
    pool_->Submit([this]() { PumpOne(); });
  }
  return ticket;
}

void AdmissionQueue::PumpOne() {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The invariant (outstanding pumps == queued entries) guarantees an
    // entry; kHigh → kNormal → kBatch.
    for (auto& queue : queues_) {
      if (queue.empty()) continue;
      entry = std::move(queue.front());
      queue.pop_front();
      break;
    }
  }
  space_.notify_all();
  ReclaimTicket::SharedState& state = *entry.state;

  if (state.cancel_flag.load(std::memory_order_acquire)) {
    Publish(state, Status::Cancelled("cancelled before execution started"),
            &Stats::cancelled, nullptr);
  } else if (entry.request.deadline_seconds > 0 &&
             std::chrono::steady_clock::now() >
                 SteadyTimeAfter(entry.submitted,
                                 entry.request.deadline_seconds)) {
    // Dead on arrival: running the pipeline could only waste the pool.
    // A Cancel() landing in this check's race window still never ran,
    // so it counts as a pre-start cancel.
    Publish(state, Status::Timeout("deadline expired in the admission queue"),
            &Stats::cancelled, &Stats::deadline_expired_in_queue);
  } else {
    Publish(state, runner_(entry, &state.cancel_flag),
            &Stats::cancelled_mid_flight, nullptr);
  }
}

void AdmissionQueue::Publish(ReclaimTicket::SharedState& state,
                             Result<ReclamationResult> result,
                             Counter if_cancelled, Counter otherwise) {
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.cancel_flag.load(std::memory_order_relaxed)) {
    // Cancel() won the race: honor its guarantee and discard whatever
    // the runner produced (even a completed result).
    result = Status::Cancelled("reclamation cancelled");
  }
  const bool cancelled = result.status().code() == StatusCode::kCancelled;
  if (Counter counter = cancelled ? if_cancelled : otherwise) {
    std::lock_guard<std::mutex> queue_lock(mutex_);
    ++(counts_.*counter);
  }
  state.result = std::move(result);
  state.completed_at = std::chrono::steady_clock::now();
  state.ready_cv.notify_all();
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = counts_;
  for (size_t p = 0; p < kNumPriorityClasses; ++p) {
    stats.queue_depth[p] = queues_[p].size();
  }
  stats.queued = QueuedLocked();
  stats.capacity = capacity_;
  stats.pool_backlog = pool_->queue_depth();
  return stats;
}

}  // namespace gent
