#ifndef LIOD_BENCH_WRITE_RUNS_H_
#define LIOD_BENCH_WRITE_RUNS_H_

// Shared execution of the four write-containing workloads (Section 5.2)
// used by Figures 5, 6, 9, 10, and 12.

#include <map>
#include <memory>
#include <utility>

#include "bench_common.h"

namespace liod::bench {

inline const std::vector<WorkloadType>& WriteWorkloads() {
  static const std::vector<WorkloadType>* types = new std::vector<WorkloadType>{
      WorkloadType::kWriteOnly, WorkloadType::kReadHeavy, WorkloadType::kWriteHeavy,
      WorkloadType::kBalanced};
  return *types;
}

/// Runs one write-containing workload for one index on one dataset; dataset
/// keys are drawn once (bulk sample + disjoint insert pool, Section 5.2).
/// When `engine_out` is non-null the one-shard engine is handed back, so
/// callers can inspect the index's phase breakdown (shard(0)->breakdown()).
inline ConcurrentRunResult RunWrite(const std::string& index_name, const std::string& dataset,
                                    WorkloadType type, const BenchArgs& args,
                                    const IndexOptions& options,
                                    const ConcurrentRunnerConfig& config = {},
                                    std::unique_ptr<ShardedEngine>* engine_out = nullptr) {
  auto engine = std::make_unique<ShardedEngine>(
      EngineOptions{.index_name = index_name, .index = options});
  const auto keys = MakeDataset(dataset, args.write_bulk + args.write_ops, args.seed);
  WorkloadSpec spec;
  spec.type = type;
  spec.bulk_keys = args.write_bulk;
  spec.operations = args.write_ops;
  spec.seed = args.seed + 3;
  ConcurrentRunResult result =
      MustRun(engine.get(), BuildConcurrentWorkload(keys, spec, 1), config);
  if (engine_out != nullptr) *engine_out = std::move(engine);
  return result;
}

}  // namespace liod::bench

#endif  // LIOD_BENCH_WRITE_RUNS_H_
