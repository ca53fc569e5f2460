// Reproduces Figure 9: write-workload throughput when inner nodes are
// memory-resident, leaves on disk (Section 6.2). LIPP excluded as in the
// paper.

#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  const BenchArgs args =
      BenchArgs::Parse(argc, argv, {.indexes = {"btree", "fiting", "pgm", "alex"}});
  IndexOptions options = BenchOptions();
  options.memory_resident_inner = true;

  std::printf(
      "Figure 9: write throughput (ops/s) with memory-resident inner nodes.\n"
      "bulk=%zu keys, ops=%zu (LIPP excluded by default, Section 6.2)\n\n",
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
      "Shape check vs paper (O14-O15): caching inner nodes barely helps PGM\n"
      "(its writes never climb the tree); B+-tree leads every workload here.\n");
  return 0;
}
