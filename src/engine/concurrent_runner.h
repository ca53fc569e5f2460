#ifndef LIOD_ENGINE_CONCURRENT_RUNNER_H_
#define LIOD_ENGINE_CONCURRENT_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/sharded_engine.h"
#include "storage/disk_model.h"
#include "workload/workloads.h"

namespace liod {

/// Per-operation measurement: CPU time plus the exact block I/O, so modeled
/// latency can be computed for any disk model after the fact.
struct OpSample {
  float cpu_us;
  std::uint32_t reads;
  std::uint32_t writes;

  /// Modeled latency of this op under `model`, in microseconds.
  double LatencyUs(const DiskModel& model) const {
    return cpu_us + reads * model.read_latency_us + writes * model.write_latency_us;
  }
};

/// Result of one thread's op tape.
struct ThreadRunResult {
  std::uint64_t operations = 0;
  double cpu_us = 0.0;  ///< wall-clock of the tape loop (includes lock waits)
  IoStatsSnapshot io;   ///< exact block I/O attributed to this thread's ops
  /// Per shard, the subset of `io` this thread performed under a SHARED
  /// latch (empty under the exclusive lock mode). Shared-mode reads on one
  /// shard overlap each other, so the makespan model must not serialize
  /// them behind one shard-wide queue.
  std::vector<IoStatsSnapshot> shared_io;
  std::vector<OpSample> samples;  ///< per-op, when requested

  /// Modeled completion time of this thread: CPU plus its I/O serialized
  /// against the modeled device.
  double MakespanUs(const DiskModel& model) const { return cpu_us + model.IoMicros(io); }
};

/// Result of executing one ConcurrentWorkload against one ShardedEngine.
struct ConcurrentRunResult {
  std::uint64_t operations = 0;  ///< total across threads
  double bulkload_cpu_us = 0.0;
  IoStatsSnapshot bulkload_io;
  IoStatsSnapshot io;      ///< op-phase I/O merged across all shards (exact)
  double wall_us = 0.0;    ///< measured wall-clock of the op phase
  IndexStats stats_after;  ///< merged shard stats at the end
  std::vector<ThreadRunResult> threads;
  std::vector<IoStatsSnapshot> shard_io;  ///< op-phase I/O per shard
  /// Lock mode the engine ran under (drives the per-shard makespan bound).
  ShardLockMode lock_mode = ShardLockMode::kExclusive;

  /// Modeled makespan of the run. Threads execute in parallel, so the run
  /// cannot finish before the slowest thread -- and each shard bounds the
  /// run from below too, by a lock-mode-dependent amount:
  ///
  ///  - exclusive: the shard's latch serializes EVERY op on it, so the shard
  ///    bound is all of its I/O drained back to back. This is what makes
  ///    1-shard/N-thread configurations (correctly) not scale their modeled
  ///    I/O.
  ///  - shared: only exclusive ops (inserts, RMWs, merges, end-of-
  ///    window flushes) serialize on the shard. Shared-latch reads overlap
  ///    each other, so across threads they complete no later than the
  ///    slowest single thread's shared I/O on that shard: the bound is
  ///    IoMicros(exclusive I/O) + max over threads of IoMicros(that thread's
  ///    shared I/O on the shard). Exclusive I/O is what remains of the
  ///    shard's total after subtracting every thread's tallied shared I/O.
  double MakespanUs(const DiskModel& model) const;
  /// Modeled throughput in operations/second: operations / makespan.
  double ThroughputOps(const DiskModel& model) const;
  double AvgBlocksReadPerOp() const;
  /// Blocks read plus written per operation.
  double AvgBlocksPerOp() const;
  /// p-quantile (e.g. 0.99) of modeled per-op latency over every thread's
  /// samples. Requires record_samples.
  double LatencyPercentileUs(double q, const DiskModel& model) const;
  /// Standard deviation of modeled per-op latency over every thread's
  /// samples. Requires record_samples.
  double LatencyStdDevUs(const DiskModel& model) const;
  /// p-quantile of MEASURED per-op wall time over every thread's samples (on
  /// a real device this includes the actual I/O). Requires record_samples.
  double WallPercentileUs(double q) const;
};

struct ConcurrentRunnerConfig {
  bool record_samples = false;  ///< keep per-op samples (tail-latency study)
  bool drop_caches_after_bulkload = true;
  bool check_lookups = false;  ///< fail if a lookup or RMW misses its key
  /// Bumped once per completed operation across all tapes (relaxed); a
  /// progress-reporting thread may read it concurrently. Non-owning, may be
  /// null. Per-op metrics and spans come from the engine itself
  /// (EngineOptions::index.metrics / .trace), not from the runner.
  std::atomic<std::uint64_t>* progress = nullptr;
  /// Invoked once after bulkload + cache drop (so after the engine has
  /// registered every metric), immediately before the measured phase -- the
  /// point where a periodic sampler sees every metric name, and a progress
  /// thread can start against the now-built shards.
  std::function<void()> before_ops;
};

/// Bulkloads `workload.bulk` into the engine, then executes every thread tape
/// concurrently, one std::thread per tape. Tapes from BuildConcurrentWorkload
/// only look up keys they know are live, so check_lookups is safe under any
/// interleaving. Returns the first per-thread error, if any.
///
/// The one workload runner: the paper figures run it at 1 thread x 1 shard
/// (a one-shard engine and BuildConcurrentWorkload(keys, spec, 1)), which is
/// the paper's single-threaded evaluation of one index; engine.shard(0) is
/// that index.
Status RunConcurrentWorkload(ShardedEngine* engine, const ConcurrentWorkload& workload,
                             const ConcurrentRunnerConfig& config,
                             ConcurrentRunResult* result);

}  // namespace liod

#endif  // LIOD_ENGINE_CONCURRENT_RUNNER_H_
