// Reproduces Figure 10: on-disk storage usage after each write-containing
// workload (the paper notes all write workloads show the Write-Only
// pattern). Freed space is unreclaimable invalid space (Section 6.3),
// except for PGM which deletes merged level files.

#include "write_runs.h"

using namespace liod;
using namespace liod::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  const IndexOptions options = BenchOptions();

  std::printf(
      "Figure 10: storage on disk after write workloads (MiB total, of which\n"
      "invalid). bulk=%zu keys, ops=%zu\n\n",
      args.write_bulk, args.write_ops);

  for (WorkloadType type : {WorkloadType::kWriteOnly, WorkloadType::kBalanced}) {
    std::printf("== %s ==\n", WorkloadTypeName(type));
    std::printf("%-10s", "dataset");
    for (const auto& idx : args.indexes) std::printf(" %16s", idx.c_str());
    std::printf("\n");
    for (const auto& dataset : args.datasets) {
      std::printf("%-10s", dataset.c_str());
      for (const auto& idx : args.indexes) {
        const ConcurrentRunResult r = RunWrite(idx, dataset, type, args, options);
        char cell[40];
        std::snprintf(cell, sizeof(cell), "%s(%s)", FmtMiB(r.stats_after.disk_bytes).c_str(),
                      FmtMiB(r.stats_after.freed_bytes).c_str());
        std::printf(" %16s", cell);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper (O16): PGM and B+-tree smallest; LIPP largest;\n"
      "FITing grows most on easy datasets (big segments rewritten per SMO).\n");
  return 0;
}
