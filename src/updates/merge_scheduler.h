#ifndef LIOD_UPDATES_MERGE_SCHEDULER_H_
#define LIOD_UPDATES_MERGE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace liod {

/// Background merge driver: one dedicated thread that runs a drain callback
/// whenever a merge is requested. UpdateBufferedIndex owns one scheduler per
/// decorated index when update_buffer_merge_mode == kBackground, which makes
/// background merges per-shard under a ShardedEngine (every shard's index is
/// decorated independently).
///
/// Requests coalesce: any number of RequestMerge calls while a drain is
/// pending or running collapse into at most one additional drain. Drain
/// errors are sticky -- the first failure is remembered until WaitIdle hands
/// it to exactly one caller (then cleared, so a retried drain is not blamed
/// for an already-reported failure) -- because a background thread has
/// nowhere else to surface a Status. UpdateBufferedIndex additionally keeps
/// its own sticky copy so the failure fails the NEXT foreground operation
/// fast instead of hiding until the end-of-window FlushUpdates.
class MergeScheduler {
 public:
  using DrainFn = std::function<Status()>;

  /// Starts the worker thread. `drain` is called on that thread, never
  /// concurrently with itself.
  explicit MergeScheduler(DrainFn drain);

  /// Stops the worker: pending requests are abandoned, a running drain is
  /// allowed to finish, the thread is joined.
  ~MergeScheduler();

  MergeScheduler(const MergeScheduler&) = delete;
  MergeScheduler& operator=(const MergeScheduler&) = delete;

  /// Signals the worker that a merge is wanted. Returns immediately.
  void RequestMerge();

  /// Blocks until no drain is pending or running, then returns the sticky
  /// first drain error (Ok if none).
  Status WaitIdle();

  /// Drains completed by the worker (attempted, including failed ones).
  std::uint64_t merges_completed() const;

 private:
  void DrainLoop();

  DrainFn drain_;
  mutable std::mutex mu_;
  std::condition_variable wake_;   ///< signals the worker
  std::condition_variable idle_;   ///< signals WaitIdle callers
  bool pending_ = false;
  bool running_ = false;
  bool stop_ = false;
  Status first_error_;
  std::uint64_t merges_completed_ = 0;
  std::thread worker_;  // last member: starts after all state is initialized
};

}  // namespace liod

#endif  // LIOD_UPDATES_MERGE_SCHEDULER_H_
