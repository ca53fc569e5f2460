#include "updates/merge_scheduler.h"

#include <utility>

namespace liod {

MergeScheduler::MergeScheduler(DrainFn drain)
    : drain_(std::move(drain)), worker_([this] { DrainLoop(); }) {}

MergeScheduler::~MergeScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  worker_.join();
}

void MergeScheduler::RequestMerge() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = true;
  }
  wake_.notify_one();
}

Status MergeScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return !pending_ && !running_; });
  // Hand the sticky error to exactly one caller: once surfaced, a retried
  // drain (merges are idempotent) starts from a clean slate instead of the
  // owner failing forever on a failure it already reported.
  Status error = first_error_;
  first_error_ = Status::Ok();
  return error;
}

std::uint64_t MergeScheduler::merges_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merges_completed_;
}

void MergeScheduler::DrainLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_.wait(lock, [this] { return pending_ || stop_; });
    if (stop_) break;
    pending_ = false;
    running_ = true;
    lock.unlock();
    const Status status = drain_();  // drain_ takes the owner's own locks
    lock.lock();
    running_ = false;
    ++merges_completed_;
    if (first_error_.ok() && !status.ok()) first_error_ = status;
    idle_.notify_all();
  }
}

}  // namespace liod
