#ifndef LIOD_TESTS_TEST_UTIL_H_
#define LIOD_TESTS_TEST_UTIL_H_

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/io_stats.h"

namespace liod {
namespace testing_util {

/// `n` sorted unique uniform-random keys in [1, 2^62).
inline std::vector<Key> UniformKeys(std::size_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < n) keys.insert(1 + rng.NextBounded((1ULL << 62) - 1));
  return {keys.begin(), keys.end()};
}

/// Sorted unique keys from a clustered (hard-to-model) distribution.
inline std::vector<Key> ClusteredKeys(std::size_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  std::set<Key> keys;
  Key base = 1000;
  while (keys.size() < n) {
    // Jump to a new cluster occasionally; dense runs in between.
    if (rng.NextBounded(100) < 5) base += 1 + rng.NextBounded(1ULL << 40);
    base += 1 + rng.NextBounded(16);
    keys.insert(base);
  }
  return {keys.begin(), keys.end()};
}

/// Sorted unique keys from a heavy-tailed (lognormal-like) distribution.
inline std::vector<Key> HeavyTailKeys(std::size_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < n) {
    const double g = rng.NextGaussian();
    const double v = std::exp(1.5 * g + 20.0);
    if (v < 1.0 || v >= 9.0e18) continue;
    keys.insert(static_cast<Key>(v));
  }
  return {keys.begin(), keys.end()};
}

/// Perfectly linear keys (easiest case).
inline std::vector<Key> SequentialKeys(std::size_t n, Key start = 1000, Key stride = 7) {
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = start + stride * static_cast<Key>(i);
  return keys;
}

inline std::vector<Record> ToRecords(const std::vector<Key>& keys) {
  std::vector<Record> records(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) records[i] = {keys[i], PayloadFor(keys[i])};
  return records;
}

/// Expects `got` and `want` to count the same I/O: every counted field,
/// field by field. Not the defaulted operator==: read_lock_waits is
/// timing-dependent by design and excluded from the comparison.
inline void ExpectSameCountedIo(const IoStatsSnapshot& got, const IoStatsSnapshot& want,
                                const std::string& label) {
  EXPECT_EQ(got.reads, want.reads) << label;
  EXPECT_EQ(got.writes, want.writes) << label;
  EXPECT_EQ(got.buffer_hits, want.buffer_hits) << label;
  EXPECT_EQ(got.buffer_misses, want.buffer_misses) << label;
  EXPECT_EQ(got.buffer_evictions, want.buffer_evictions) << label;
  EXPECT_EQ(got.buffer_writebacks, want.buffer_writebacks) << label;
  EXPECT_EQ(got.inner_nodes_visited, want.inner_nodes_visited) << label;
  EXPECT_EQ(got.leaf_nodes_visited, want.leaf_nodes_visited) << label;
}

/// Cooperative racing-thread harness for concurrency tests (the shared home
/// for the writer-racing-scanner boilerplate of update_buffer_test,
/// recovery_test, and engine_concurrency_test).
///
/// Each worker is a callable `Status fn(const std::atomic<bool>& stop)` --
/// long-running workers poll `stop` and return when it flips. JoinAll()
/// requests the stop, joins every worker, and returns the first failure:
/// either a worker's non-ok Status or an uncaught exception (converted to a
/// Corruption status), so gtest assertions stay on the main thread:
///
///   RacingThreads workers;
///   workers.Start([&](const std::atomic<bool>& stop) { ... });
///   ... main-thread assertions racing the workers ...
///   ASSERT_TRUE(workers.JoinAll().ok());
class RacingThreads {
 public:
  RacingThreads() = default;
  ~RacingThreads() { (void)JoinAll(); }
  RacingThreads(const RacingThreads&) = delete;
  RacingThreads& operator=(const RacingThreads&) = delete;

  /// Launches one worker running `fn(stop)`.
  template <typename Fn>
  void Start(Fn fn) {
    threads_.emplace_back([this, fn = std::move(fn)]() mutable {
      Status status;
      try {
        status = fn(static_cast<const std::atomic<bool>&>(stop_));
      } catch (const std::exception& e) {
        status = Status::Corruption(std::string("worker threw: ") + e.what());
      } catch (...) {
        status = Status::Corruption("worker threw a non-std::exception");
      }
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (first_error_.ok()) first_error_ = status;
      }
    });
  }

  /// Launches `n` workers, each running `fn(i, stop)` with its index.
  template <typename Fn>
  void StartN(std::size_t n, Fn fn) {
    for (std::size_t i = 0; i < n; ++i) {
      Start([fn, i](const std::atomic<bool>& stop) { return fn(i, stop); });
    }
  }

  /// Flips the stop flag without joining (workers wind down while the main
  /// thread keeps asserting).
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  /// Stops and joins every worker; returns the first captured failure.
  /// Idempotent -- the destructor calls it as a safety net, so a test that
  /// forgets still terminates.
  Status JoinAll() {
    RequestStop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::mutex mu_;
  Status first_error_;
};

/// A fresh directory under ::testing::TempDir() for one test's files. The
/// destructor removes it with everything in it, so device files a test
/// creates there (MakeBlockDevice names them liod_<pid>_<n>_<class>.bin and
/// never unlinks them) do not outlive the test.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string path = ::testing::TempDir() + "liod_test_XXXXXX";
    if (::mkdtemp(path.data()) != nullptr) path_ = std::move(path);
    EXPECT_FALSE(path_.empty()) << "mkdtemp failed: errno " << errno;
  }

  ~ScopedTempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Lowers RLIMIT_NOFILE to just above the lowest free descriptor number and
/// opens /dev/null until every number below the limit is taken, so the
/// process's next new descriptor fails with EMFILE. The destructor closes the
/// fillers and restores the limit, whatever path the test leaves by.
class DescriptorExhaustion {
 public:
  DescriptorExhaustion() {
    const int lowest = ::open("/dev/null", O_RDONLY);
    if (lowest < 0) return;
    ::close(lowest);
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(lowest) + 8;
    if (lowered.rlim_cur > saved_.rlim_cur || ::setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
    limited_ = true;
    for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0; fd = ::open("/dev/null", O_RDONLY)) {
      fillers_.push_back(fd);
    }
    exhausted_ = errno == EMFILE && !fillers_.empty();
  }

  ~DescriptorExhaustion() {
    for (int fd : fillers_) ::close(fd);
    if (limited_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }

  DescriptorExhaustion(const DescriptorExhaustion&) = delete;
  DescriptorExhaustion& operator=(const DescriptorExhaustion&) = delete;

  bool exhausted() const { return exhausted_; }

  /// Frees exactly one descriptor number for the caller's next open.
  void FreeOne() {
    ::close(fillers_.back());
    fillers_.pop_back();
  }

 private:
  rlimit saved_{};
  bool limited_ = false;
  bool exhausted_ = false;
  std::vector<int> fillers_;
};

}  // namespace testing_util
}  // namespace liod

#endif  // LIOD_TESTS_TEST_UTIL_H_
