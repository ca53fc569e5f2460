// Reproduces Figure 5: Write-Only / Read-Heavy / Write-Heavy / Balanced
// throughput on HDD and SSD, entire index disk-resident.

#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const IndexOptions options = BenchOptions();

  std::printf(
      "Figure 5: write-workload throughput (ops/s), entire index disk-resident.\n"
      "bulk=%zu keys, ops=%zu\n\n",
      args.write_bulk, args.write_ops);

  for (WorkloadType type : WriteWorkloads()) {
    std::printf("== %s ==\n", WorkloadTypeName(type));
    std::printf("%-11s", "dataset");
    for (const auto& idx : args.indexes) std::printf(" %10s", idx.c_str());
    std::printf("\n");
    for (const auto& dataset : args.datasets) {
      std::map<std::string, ConcurrentRunResult> results;
      for (const auto& idx : args.indexes) {
        results.emplace(idx, RunWrite(idx, dataset, type, args, options));
      }
      for (const DiskModel& disk : {DiskModel::Hdd(), DiskModel::Ssd()}) {
        std::printf("%-7s-%-3s", dataset.c_str(), disk.name.c_str());
        for (const auto& idx : args.indexes) {
          std::printf(" %10.1f", results.at(idx).ThroughputOps(disk));
        }
        std::printf("\n");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper (O6-O10): PGM wins Write-Only by a wide margin;\n"
      "B+-tree beats the other learned indexes on writes; PGM degrades as the\n"
      "read ratio grows.\n");
  return 0;
}
