#include "engine/concurrent_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "kv/request.h"

namespace liod {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(elapsed)
      .count();
}

Status RunTape(ShardedEngine* engine, const std::vector<WorkloadOp>& ops,
               std::size_t scan_length, const ConcurrentRunnerConfig& config,
               ThreadRunResult* out) {
  if (config.record_samples) out->samples.reserve(ops.size());
  // Per-shard shared-latch I/O of THIS thread.
  out->shared_io.assign(engine->num_shards(), IoStatsSnapshot{});
  // One reused single-request batch per tape: every op dispatches through
  // ShardedEngine::Execute -- batch size 1 is the historical per-op path, so
  // the tape's op interleaving and counted I/O are unchanged.
  kv::RequestBatch batch;
  batch.requests.resize(1);
  batch.responses.resize(1);
  const auto tape_start = std::chrono::steady_clock::now();
  for (const WorkloadOp& op : ops) {
    IoStatsSnapshot delta;
    std::chrono::steady_clock::time_point op_start;
    if (config.record_samples) op_start = std::chrono::steady_clock::now();
    batch.requests[0] = ToRequest(op, scan_length);
    LIOD_RETURN_IF_ERROR(engine->Execute(batch, &delta, &out->shared_io));
    if (config.check_lookups && !batch.responses[0].found &&
        (op.kind == WorkloadOp::Kind::kLookup ||
         op.kind == WorkloadOp::Kind::kReadModifyWrite)) {
      return Status::Corruption(
          (op.kind == WorkloadOp::Kind::kLookup ? "concurrent lookup missed key "
                                                : "concurrent RMW missed key ") +
          std::to_string(op.key));
    }
    out->io += delta;
    ++out->operations;
    if (config.progress != nullptr) {
      config.progress->fetch_add(1, std::memory_order_relaxed);
    }
    if (config.record_samples) {
      OpSample sample;
      sample.cpu_us = static_cast<float>(ElapsedUs(op_start));
      sample.reads = static_cast<std::uint32_t>(delta.TotalReads());
      sample.writes = static_cast<std::uint32_t>(delta.TotalWrites());
      out->samples.push_back(sample);
    }
  }
  out->cpu_us = ElapsedUs(tape_start);
  return Status::Ok();
}

/// q-quantile (floor-index convention) of `value(sample)` over every
/// thread's samples; 0 without samples.
template <typename Value>
double SampleQuantile(const std::vector<ThreadRunResult>& threads, double q,
                      const Value& value) {
  std::vector<double> values;
  for (const ThreadRunResult& t : threads) {
    for (const OpSample& s : t.samples) values.push_back(value(s));
  }
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[std::min(values.size() - 1, static_cast<std::size_t>(q * values.size()))];
}

}  // namespace

double ConcurrentRunResult::MakespanUs(const DiskModel& model) const {
  double makespan = 0.0;
  for (const ThreadRunResult& t : threads) makespan = std::max(makespan, t.MakespanUs(model));
  for (std::size_t s = 0; s < shard_io.size(); ++s) {
    // Shared-latch reads overlap: across threads they finish no later than
    // the slowest single thread's shared I/O on this shard. Whatever is not
    // tallied as shared ran exclusively (writes, merges, flushes) and
    // serializes.
    IoStatsSnapshot shared_total;
    double slowest_reader_us = 0.0;
    for (const ThreadRunResult& t : threads) {
      if (s >= t.shared_io.size()) continue;
      shared_total += t.shared_io[s];
      slowest_reader_us = std::max(slowest_reader_us, model.IoMicros(t.shared_io[s]));
    }
    makespan = std::max(makespan, model.IoMicros(shard_io[s] - shared_total) + slowest_reader_us);
  }
  return makespan;
}

double ConcurrentRunResult::ThroughputOps(const DiskModel& model) const {
  const double makespan_us = MakespanUs(model);
  if (operations == 0 || makespan_us <= 0.0) return 0.0;
  return static_cast<double>(operations) / (makespan_us / 1e6);
}

double ConcurrentRunResult::AvgBlocksReadPerOp() const {
  return operations == 0 ? 0.0
                         : static_cast<double>(io.TotalReads()) /
                               static_cast<double>(operations);
}

double ConcurrentRunResult::AvgBlocksPerOp() const {
  return operations == 0 ? 0.0
                         : static_cast<double>(io.TotalIo()) / static_cast<double>(operations);
}

double ConcurrentRunResult::LatencyPercentileUs(double q, const DiskModel& model) const {
  return SampleQuantile(threads, q, [&](const OpSample& s) { return s.LatencyUs(model); });
}

double ConcurrentRunResult::LatencyStdDevUs(const DiskModel& model) const {
  double sum = 0.0, sum_sq = 0.0, n = 0.0;
  for (const ThreadRunResult& t : threads) {
    for (const OpSample& s : t.samples) {
      const double l = s.LatencyUs(model);
      sum += l;
      sum_sq += l * l;
      n += 1.0;
    }
  }
  if (n == 0.0) return 0.0;
  const double mean = sum / n;
  return std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
}

double ConcurrentRunResult::WallPercentileUs(double q) const {
  return SampleQuantile(threads, q, [](const OpSample& s) { return double{s.cpu_us}; });
}

Status RunConcurrentWorkload(ShardedEngine* engine, const ConcurrentWorkload& workload,
                             const ConcurrentRunnerConfig& config,
                             ConcurrentRunResult* result) {
  *result = ConcurrentRunResult{};

  // --- bulkload phase -------------------------------------------------------
  const auto bulk_start = std::chrono::steady_clock::now();
  LIOD_RETURN_IF_ERROR(engine->Bulkload(workload.bulk));
  result->bulkload_cpu_us = ElapsedUs(bulk_start);
  // Attribute write-back I/O deferred during bulkload to the bulkload phase
  // (no-op under write-through).
  LIOD_RETURN_IF_ERROR(engine->FlushBuffers());
  result->bulkload_io = engine->MergedIo();
  LIOD_RETURN_IF_ERROR(engine->DropCaches());

  // --- measured op phase ----------------------------------------------------
  if (config.before_ops) config.before_ops();
  const IoStatsSnapshot before_ops = engine->MergedIo();
  const std::vector<IoStatsSnapshot> shard_before = engine->PerShardIo();
  const std::size_t num_threads = workload.thread_ops.size();
  result->threads.resize(num_threads);
  std::vector<Status> statuses(num_threads);
  const auto ops_start = std::chrono::steady_clock::now();
  if (num_threads == 1) {
    statuses[0] = RunTape(engine, workload.thread_ops[0], workload.scan_length, config,
                          &result->threads[0]);
  } else {
    std::vector<std::thread> runners;
    runners.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      runners.emplace_back([&, t] {
        statuses[t] = RunTape(engine, workload.thread_ops[t], workload.scan_length, config,
                              &result->threads[t]);
      });
    }
    for (auto& runner : runners) runner.join();
  }
  result->wall_us = ElapsedUs(ops_start);
  for (const Status& status : statuses) LIOD_RETURN_IF_ERROR(status);

  // End-of-run flushes: staged out-of-place updates are merged into each
  // shard's base index, then dirty frames deferred by write-back are paid
  // (and counted) inside the measured window. Both land in shard/merged
  // totals but not in any thread's samples -- per-op attribution of deferred
  // work is inherently fuzzy (an eviction in one op pays an earlier op's
  // write; a background merge pays many ops' inserts at once).
  LIOD_RETURN_IF_ERROR(engine->FlushUpdates());
  LIOD_RETURN_IF_ERROR(engine->FlushBuffers());

  result->io = engine->MergedIo() - before_ops;
  const std::vector<IoStatsSnapshot> shard_after = engine->PerShardIo();
  result->shard_io.reserve(shard_after.size());
  for (std::size_t s = 0; s < shard_after.size(); ++s) {
    result->shard_io.push_back(shard_after[s] - shard_before[s]);
  }
  for (const ThreadRunResult& t : result->threads) result->operations += t.operations;
  result->stats_after = engine->MergedStats();
  return Status::Ok();
}

}  // namespace liod
