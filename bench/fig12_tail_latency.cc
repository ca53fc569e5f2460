// Reproduces Figure 12: p99 latency and standard deviation of per-op
// modeled latency (HDD) for the Lookup-Only and Write-Only workloads.

#include "search_runs.h"
#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const IndexOptions options = BenchOptions();
  const DiskModel hdd = DiskModel::Hdd();
  ConcurrentRunnerConfig config;
  config.record_samples = true;

  std::printf(
      "Figure 12: tail latency on HDD -- p99 (ms) and stddev (ms) per op.\n"
      "search bulk=%zu/ops=%zu, write bulk=%zu/ops=%zu\n\n",
      args.search_keys, args.search_ops, args.write_bulk, args.write_ops);

  std::printf("== lookup-only ==\n%-10s", "dataset");
  for (const auto& idx : args.indexes) std::printf(" %16s", idx.c_str());
  std::printf("\n");
  for (const auto& dataset : args.datasets) {
    std::printf("%-10s", dataset.c_str());
    const auto keys = MakeDataset(dataset, args.search_keys, args.seed);
    for (const auto& idx : args.indexes) {
      ShardedEngine engine({.index_name = idx, .index = options});
      WorkloadSpec spec;
      spec.type = WorkloadType::kLookupOnly;
      spec.operations = args.search_ops;
      spec.seed = args.seed + 1;
      const ConcurrentRunResult r =
          MustRun(&engine, BuildConcurrentWorkload(keys, spec, 1), config);
      char cell[40];
      std::snprintf(cell, sizeof(cell), "%.1f/%.1f",
                    r.LatencyPercentileUs(0.99, hdd) / 1000.0,
                    r.LatencyStdDevUs(hdd) / 1000.0);
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }

  std::printf("\n== write-only ==\n%-10s", "dataset");
  for (const auto& idx : args.indexes) std::printf(" %16s", idx.c_str());
  std::printf("\n");
  for (const auto& dataset : args.datasets) {
    std::printf("%-10s", dataset.c_str());
    for (const auto& idx : args.indexes) {
      const ConcurrentRunResult r =
          RunWrite(idx, dataset, WorkloadType::kWriteOnly, args, options, config);
      char cell[40];
      std::snprintf(cell, sizeof(cell), "%.1f/%.1f",
                    r.LatencyPercentileUs(0.99, hdd) / 1000.0,
                    r.LatencyStdDevUs(hdd) / 1000.0);
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check vs paper (O18): B+-tree has the smallest, most stable p99;\n"
      "SMO-heavy learned indexes show large write stddev.\n");
  return 0;
}
